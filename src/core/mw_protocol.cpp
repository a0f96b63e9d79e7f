#include "core/mw_protocol.h"
#include <cmath>

#include <cstdio>

#include "common/check.h"
#include "core/verify.h"
#include "radio/interference_model.h"
#include "radio/wakeup.h"

namespace sinrcolor::core {

sinr::ResolveKind resolve_kind_flag(const common::Cli& cli) {
  sinr::ResolveKind kind = MwRunConfig{}.resolve;
  const std::string resolve = cli.get("resolve", sinr::to_string(kind));
  if (!sinr::resolve_kind_from_string(resolve, kind)) {
    cli.usage_error("unknown --resolve=" + resolve + " (field|simd|naive)");
  }
  return kind;
}

void apply_resolve_flags(const common::Cli& cli, MwRunConfig& cfg) {
  cfg.resolve = resolve_kind_flag(cli);
  cfg.threads = static_cast<std::size_t>(cli.get_int_at_least("threads", 1, 1));
}

sinr::SinrParams resolve_phys(const graph::UnitDiskGraph& g,
                              const MwRunConfig& config) {
  const double r_t = g.radius();
  const sinr::SinrParams phys = config.phys_template.with_r_t(r_t);
  phys.validate();
  SINRCOLOR_CHECK(std::abs(phys.r_t() - r_t) <= 1e-9 * r_t);
  return phys;
}

MwParams derive_mw_params(const graph::UnitDiskGraph& g,
                          const MwRunConfig& config) {
  if (config.params_override.has_value()) return *config.params_override;
  MwConfig mw;
  mw.n = config.n_estimate > 0 ? config.n_estimate : g.size();
  mw.max_degree = config.delta_estimate > 0
                      ? config.delta_estimate
                      : std::max<std::size_t>(g.max_degree(), 1);
  mw.phys = resolve_phys(g, config);
  return MwParams::practical(mw, config.tuning);
}

std::unique_ptr<radio::InterferenceModel> make_interference_model(
    const graph::UnitDiskGraph& g, const MwRunConfig& config) {
  if (config.graph_model) {
    return std::make_unique<radio::GraphInterferenceModel>(g);
  }
  return std::make_unique<radio::SinrInterferenceModel>(
      g, resolve_phys(g, config), config.fading,
      radio::ResolveOptions{config.resolve, config.threads});
}

radio::WakeupSchedule make_wakeup_schedule(std::size_t n, WakeupKind kind,
                                           radio::Slot window,
                                           std::uint64_t seed) {
  switch (kind) {
    case WakeupKind::kSimultaneous:
      return radio::simultaneous_wakeup(n);
    case WakeupKind::kUniform: {
      common::Rng rng(common::derive_seed(seed, 0xbeefULL));
      return radio::uniform_wakeup(n, window, rng);
    }
    case WakeupKind::kStaggered:
      return radio::staggered_wakeup(n, window);
  }
  return radio::simultaneous_wakeup(n);
}

std::vector<graph::NodeId> schedule_random_failures(
    radio::Simulator& sim, const MwRunConfig& config,
    const std::vector<bool>* exclude) {
  std::vector<graph::NodeId> scheduled;
  if (config.failure_fraction <= 0.0) return scheduled;
  SINRCOLOR_CHECK(config.failure_fraction <= 1.0);
  const std::size_t n = sim.graph().size();
  common::Rng rng(common::derive_seed(config.seed, 0xdeadULL));
  std::vector<graph::NodeId> victims(n);
  for (graph::NodeId v = 0; v < n; ++v) victims[v] = v;
  common::shuffle(victims, rng);
  const auto kills = static_cast<std::size_t>(
      std::ceil(config.failure_fraction * static_cast<double>(n)));
  for (std::size_t k = 0; k < kills && k < victims.size(); ++k) {
    // Draw the slot even for excluded victims so the failure pattern of the
    // non-excluded nodes matches a run without exclusions (seeded replays).
    const radio::Slot slot = rng.uniform_int(
        0, std::max<radio::Slot>(config.failure_window, 0));
    if (exclude != nullptr && (*exclude)[victims[k]]) continue;
    sim.set_failure_slot(victims[k], slot);
    scheduled.push_back(victims[k]);
  }
  return scheduled;
}

MwInstance::MwInstance(const graph::UnitDiskGraph& g, const MwRunConfig& config)
    : graph_(g), config_(config), params_(derive_mw_params(g, config)) {
  simulator_ = std::make_unique<radio::Simulator>(
      graph_, make_interference_model(graph_, config_),
      make_wakeup_schedule(g.size(), config_.wakeup, config_.wakeup_window,
                           config_.seed),
      config_.seed);

  schedule_random_failures(*simulator_, config_);

  // Contiguous arena: reserve up front so emplace_back never reallocates
  // (the simulator and nodes_ hold raw pointers into the storage).
  node_arena_.reserve(g.size());
  nodes_.reserve(g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    MwNode& node = node_arena_.emplace_back(v, params_);
    node.reserve_peers(g.degree(v));
    node.set_retransmit_policy(config_.recovery.retransmit);
    nodes_.push_back(&node);
    simulator_->set_protocol(v, &node);
  }

  if (config_.check_independence) {
    // Incremental Theorem-1 verification: a violation can only appear the
    // slot a node finalizes its color, so checking newly decided nodes
    // against their decided neighbors each slot is complete. An MwNode
    // decides only in begin_slot, so this slot's deciders are among the
    // simulator's active nodes, visited in ascending id order.
    simulator_->add_observer(
        [this, known = std::vector<bool>(graph_.size(), false)](
            radio::Slot slot, std::span<const radio::TxRecord>) mutable {
          for (const graph::NodeId v : simulator_->active_nodes()) {
            if (known[v] || !nodes_[v]->decided()) continue;
            known[v] = true;
            const graph::Color mine = nodes_[v]->final_color();
            for (graph::NodeId u : graph_.neighbors(v)) {
              if (known[u] && nodes_[u]->final_color() == mine) {
                ++independence_violations_;
                if (observation_ != nullptr) {
                  observation_->trace.record(
                      slot, obs::EventKind::kIndependenceViolation, v, u, 0,
                      static_cast<std::int64_t>(mine));
                }
              }
            }
          }
        });
  }
}

void MwInstance::attach_observation(obs::RunObservation* observation) {
  observation_ = observation;
  simulator_->set_observation(observation);
  for (MwNode* node : nodes_) node->set_observation(observation);
}

MwRunResult MwInstance::run() {
  obs::Profiler* const profiler =
      observation_ != nullptr ? observation_->profiler.get() : nullptr;
  SINRCOLOR_PROFILE(profiler, obs::Phase::kRun);
  const radio::Slot horizon =
      config_.max_slots > 0 ? config_.max_slots : params_.recommended_max_slots();

  MwRunResult result;
  result.params = params_;
  result.metrics = simulator_->run(horizon);
  result.coloring = extract_coloring(nodes_);
  result.leaders = extract_leaders(nodes_);
  result.independence_violations = independence_violations_;
  result.coloring_valid = graph::is_valid_coloring(graph_, result.coloring);
  result.palette = result.coloring.palette_size();
  result.max_color = result.coloring.max_color();
  if (observation_ != nullptr) {
    auto& m = observation_->metrics;
    m.counter("mw.independence_violations").add(independence_violations_);
    auto& latency = m.histogram(
        "mw.decision_latency",
        {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0});
    for (std::size_t v = 0; v < graph_.size(); ++v) {
      if (result.metrics.decision_slot[v] < 0) continue;
      latency.record(static_cast<double>(result.metrics.decision_slot[v] -
                                         result.metrics.wake_slot[v]));
    }
  }
  return result;
}

MwRunResult run_mw_coloring(const graph::UnitDiskGraph& g,
                            const MwRunConfig& config) {
  MwInstance instance(g, config);
  return instance.run();
}

std::string MwRunResult::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "colors=%zu max_color=%d leaders=%zu valid=%s indep_viol=%zu %s",
                palette, max_color, leaders.size(),
                coloring_valid ? "yes" : "NO", independence_violations,
                metrics.summary().c_str());
  return buf;
}

}  // namespace sinrcolor::core
