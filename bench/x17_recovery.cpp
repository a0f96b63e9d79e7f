// X17 — the self-healing layer (src/robust) closes X14's liveness gap.
//
// X14 measured the damage of crash-stop failures under the plain protocol:
// safety is local (decided colors never conflict), but a leader that dies
// while serving its cluster permanently stalls the requesters it orphaned —
// a requester in state R can only be released by ITS leader's assignment.
// Random early kills rarely hit that window, so the baseline scenario here
// constructs it deterministically with X14's replay technique: probe a clean
// run, find the slot each member enters R, and kill its leader right after.
//
// Three scenarios, each baseline (core::run_mw_coloring, no recovery) vs
// recovery (robust::run_recovering_mw, failure detector + failover + joins):
//   * "10% early (listen phase)"  — X14's scenario verbatim; nobody has
//     committed to a leader yet, so both modes should finish stall-free.
//   * "leaders killed while serving" — up to 10% of the nodes, all of them
//     leaders with at least one committed requester, die right after their
//     first member enters R. The baseline stalls; recovery must not.
//   * "10% join after convergence" — ⌈0.1·n⌉ late arrivals wake into the
//     converged network, listen, pick a free color and repair collisions.
// Validity is always judged on live nodes (a corpse's stale color is not on
// the air; a joiner cannot have heard it).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "graph/coloring.h"
#include "robust/recovery_protocol.h"

namespace {

using namespace sinrcolor;

// (1,·)-validity restricted to nodes alive at the end of the run.
bool live_coloring_valid(const graph::UnitDiskGraph& g,
                         const core::MwRunResult& r) {
  graph::Coloring live = r.coloring;
  for (std::size_t v = 0; v < g.size(); ++v) {
    if (r.metrics.death_slot[v] >= 0) live.color[v] = graph::kUncolored;
    else if (live.color[v] == graph::kUncolored) return false;
  }
  for (const auto& violation : graph::find_coloring_violations(g, live)) {
    if (violation.u != violation.v) return false;
  }
  return true;
}

struct TargetedKills {
  std::vector<graph::NodeId> victims;
  std::vector<radio::Slot> slots;
  radio::Slot clean_slots = 0;  ///< clean-run convergence time
};

// Probe a clean run and schedule up to ⌈0.1·n⌉ leader kills, each one slot
// after the leader's first member committed to it (entered state R).
TargetedKills plan_leader_kills(const graph::UnitDiskGraph& g,
                                const core::MwRunConfig& cfg) {
  const std::size_t n = g.size();
  core::MwInstance probe(g, cfg);
  const auto& nodes = probe.nodes();
  std::vector<radio::Slot> request_entry(n, -1);
  probe.simulator().add_observer(
      [&](radio::Slot slot, std::span<const radio::TxRecord>) {
        for (std::size_t v = 0; v < n; ++v) {
          if (request_entry[v] < 0 &&
              nodes[v]->state() == core::MwStateKind::kRequesting) {
            request_entry[v] = slot;
          }
        }
      });
  const auto clean = probe.run();

  // Earliest commit slot per leader.
  std::vector<radio::Slot> first_request(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    if (request_entry[v] < 0) continue;
    const graph::NodeId leader = nodes[v]->leader();
    if (leader == graph::kInvalidNode) continue;
    if (first_request[leader] < 0 || request_entry[v] < first_request[leader]) {
      first_request[leader] = request_entry[v];
    }
  }
  std::vector<graph::NodeId> serving_leaders;
  for (graph::NodeId leader : clean.leaders) {
    if (first_request[leader] >= 0) serving_leaders.push_back(leader);
  }
  std::sort(serving_leaders.begin(), serving_leaders.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return first_request[a] < first_request[b];
            });

  TargetedKills plan;
  plan.clean_slots = clean.metrics.slots_executed;
  const auto quota = static_cast<std::size_t>((n + 9) / 10);  // ⌈0.1·n⌉
  for (graph::NodeId leader : serving_leaders) {
    if (plan.victims.size() >= quota) break;
    plan.victims.push_back(leader);
    plan.slots.push_back(first_request[leader] + 2);
  }
  return plan;
}

struct Tally {
  common::Accumulator killed, stalled, recovered;
  std::size_t invalid_runs = 0;
  void add(const graph::UnitDiskGraph& g, const core::MwRunResult& r) {
    killed.add(static_cast<double>(r.metrics.failed_nodes));
    stalled.add(static_cast<double>(r.metrics.stalled_nodes));
    recovered.add(static_cast<double>(r.recovery.recovered_nodes));
    if (!live_coloring_valid(g, r)) ++invalid_runs;
  }
};

void add_rows(common::Table& table, const char* scenario, const Tally& baseline,
              const Tally& recovery, std::uint64_t seeds) {
  const auto row = [&](const char* mode, const Tally& t) {
    table.add_row({scenario, mode, common::Table::num(t.killed.mean(), 1),
                   common::Table::num(t.stalled.mean(), 1),
                   common::Table::num(t.recovered.mean(), 1),
                   t.invalid_runs == 0 ? "yes" : "NO",
                   common::Table::integer(static_cast<long long>(seeds))});
  };
  row("baseline", baseline);
  row("recovery", recovery);
}

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 200, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 3, 1));
  bench::MetricsSidecar sidecar(cli);
  cli.reject_unknown();

  bench::print_experiment_header(
      "X17: failure recovery and dynamic joins (vs X14's baseline)",
      "the failure detector + leader failover drive X14's stalled-survivor "
      "count to zero, and late joiners obtain a valid color online");

  Tally early_base, early_rec, serving_base, serving_rec, join_rec;
  common::Accumulator join_conflicts, join_fallbacks, joined;

  for (std::uint64_t s = 0; s < seeds; ++s) {
    const auto g = bench::uniform_graph_with_density(n, 14.0, 35000 + s);
    core::MwRunConfig cfg;
    cfg.seed = 71000 + s;

    // Shared probe: clean convergence time + the targeted kill schedule.
    const TargetedKills plan = plan_leader_kills(g, cfg);
    const radio::Slot cap = 5 * plan.clean_slots;

    // --- scenario 1: X14's "10% early (listen phase)", verbatim ---
    {
      core::MwRunConfig early = cfg;
      early.max_slots = cap;
      early.failure_fraction = 0.10;
      core::MwInstance probe(g, cfg);
      early.failure_window = static_cast<radio::Slot>(
          0.02 * static_cast<double>(probe.params().recommended_max_slots()) /
          40.0);
      early_base.add(g, core::run_mw_coloring(g, early));
      early.recovery.enabled = true;
      early_rec.add(g, robust::run_recovering_mw(g, early));
    }

    // --- scenario 2: leaders killed right after a member commits ---
    {
      core::MwRunConfig targeted = cfg;
      targeted.max_slots = cap;
      {
        core::MwInstance baseline(g, targeted);
        for (std::size_t k = 0; k < plan.victims.size(); ++k) {
          baseline.simulator().set_failure_slot(plan.victims[k], plan.slots[k]);
        }
        serving_base.add(g, baseline.run());
      }
      {
        targeted.recovery.enabled = true;
        robust::RecoveryInstance recovery(g, targeted);
        if (sidecar.observation() != nullptr) {
          recovery.attach_observation(sidecar.observation());
        }
        for (std::size_t k = 0; k < plan.victims.size(); ++k) {
          recovery.simulator().set_failure_slot(plan.victims[k], plan.slots[k]);
        }
        serving_rec.add(g, recovery.run());
      }
    }

    // --- scenario 3: 10% of the nodes join the converged network ---
    {
      core::MwRunConfig churn = cfg;
      churn.max_slots = cap;
      churn.recovery.enabled = true;
      churn.recovery.join_fraction = 0.10;
      churn.recovery.join_at = plan.clean_slots + 500;
      churn.recovery.join_window = 200;
      const auto r = robust::run_recovering_mw(g, churn);
      join_rec.add(g, r);
      joined.add(static_cast<double>(r.recovery.joined_nodes));
      join_conflicts.add(static_cast<double>(r.recovery.join_conflicts_repaired));
      join_fallbacks.add(static_cast<double>(r.recovery.join_fallbacks));
    }
  }

  common::Table table({"scenario", "mode", "killed(avg)", "stalled(avg)",
                       "recovered(avg)", "live-valid", "runs"});
  add_rows(table, "10% early (listen phase)", early_base, early_rec, seeds);
  add_rows(table, "leaders killed while serving", serving_base, serving_rec,
           seeds);
  table.add_row({"10% join after convergence", "recovery",
                 common::Table::num(join_rec.killed.mean(), 1),
                 common::Table::num(join_rec.stalled.mean(), 1),
                 common::Table::num(join_rec.recovered.mean(), 1),
                 join_rec.invalid_runs == 0 ? "yes" : "NO",
                 common::Table::integer(static_cast<long long>(seeds))});
  table.print(std::cout);
  std::printf(
      "joins: %.1f arrivals/run, %.1f collisions repaired, %.1f fell back to "
      "the full protocol\n",
      joined.mean(), join_conflicts.mean(), join_fallbacks.mean());

  sidecar.write("x17_recovery");
  const bool baseline_stalls = serving_base.stalled.mean() > 0.0;
  const bool recovery_clears = early_rec.stalled.mean() == 0.0 &&
                               serving_rec.stalled.mean() == 0.0 &&
                               join_rec.stalled.mean() == 0.0;
  const bool all_valid = early_rec.invalid_runs == 0 &&
                         serving_rec.invalid_runs == 0 &&
                         join_rec.invalid_runs == 0;
  return bench::print_verdict(
      baseline_stalls && recovery_clears && all_valid,
      "the no-recovery baseline stalls orphaned requesters; with recovery "
      "enabled every survivor and every joiner ends with a valid color");
}
