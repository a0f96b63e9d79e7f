// X13 — the MAC design space around Theorem 3: slots needed to serve one
// full local-broadcast round (every node → all neighbors) by
//   (a) the paper's coloring TDMA: a distance-(d+1) coloring frame —
//       deterministic, distributed-computable, 100% delivery;
//   (b) a centralized greedy SINR link scheduler (related-work refs [16–19])
//       — the "what could a global optimizer do" yardstick;
//   (c) [21]-style slotted ALOHA with p = Θ(1/Δ) — schedule-free,
//       probabilistic completion;
//   (d) idealized CSMA — carrier sensing improves on ALOHA but stays
//       probabilistic.
#include <cstdio>
#include <iostream>

#include "baseline/greedy_coloring.h"
#include "baseline/local_broadcast.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "mac/link_scheduler.h"
#include "mac/tdma.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 200, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 3, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X13: MAC baselines for one local-broadcast round",
      "coloring TDMA (distributed, deterministic) vs centralized greedy link "
      "scheduling vs ALOHA/CSMA (schedule-free, probabilistic)");

  const auto phys = bench::phys_for_radius(1.0);
  const double d = phys.mac_distance_d();

  common::Table table({"mechanism", "slots (avg)", "completion",
                       "deterministic?"});
  common::Accumulator tdma_slots, link_slots, aloha_slots, csma_slots;
  std::size_t aloha_done = 0, csma_done = 0, link_feasible = 0;

  for (std::uint64_t s = 0; s < seeds; ++s) {
    const auto g = bench::uniform_graph_with_density(n, 14.0, 33000 + s);

    const auto schedule = mac::TdmaSchedule::from_coloring(
        baseline::greedy_distance_d_coloring(g, d + 1.0));
    tdma_slots.add(schedule.frame_length());

    const auto requests = mac::all_neighbor_links(g);
    const auto links = mac::greedy_link_schedule(g, phys, requests);
    link_feasible +=
        mac::count_infeasible_links(g, phys, requests, links) == 0;
    link_slots.add(links.slots);

    const auto aloha =
        baseline::run_local_broadcast_known_delta(g, phys, 0.3, 3.0, 61000 + s);
    aloha_done += aloha.completed;
    aloha_slots.add(static_cast<double>(aloha.slots));

    const auto csma = baseline::run_csma_local_broadcast(
        g, phys, 0.25, 4.0, 200000, 67000 + s);
    csma_done += csma.completed;
    csma_slots.add(static_cast<double>(csma.slots));
  }

  char frac[16];
  table.add_row({"coloring TDMA (paper)", common::Table::num(tdma_slots.mean(), 1),
                 "guaranteed", "yes"});
  std::snprintf(frac, sizeof frac, "%zu/%llu ok", link_feasible,
                static_cast<unsigned long long>(seeds));
  table.add_row({"greedy link schedule (centralized)",
                 common::Table::num(link_slots.mean(), 1), frac, "yes"});
  std::snprintf(frac, sizeof frac, "%zu/%llu", aloha_done,
                static_cast<unsigned long long>(seeds));
  table.add_row({"ALOHA p=0.3/Delta ([21]-style)",
                 common::Table::num(aloha_slots.mean(), 1), frac, "no"});
  std::snprintf(frac, sizeof frac, "%zu/%llu", csma_done,
                static_cast<unsigned long long>(seeds));
  table.add_row({"idealized CSMA", common::Table::num(csma_slots.mean(), 1),
                 frac, "no"});
  table.print(std::cout);

  std::printf("note: link scheduling serves each directed pair separately; "
              "TDMA serves all neighbors of a sender in ONE slot, which is "
              "why it beats per-link scheduling on broadcast workloads.\n");

  const double tdma = tdma_slots.mean();
  const bool ok = link_feasible == seeds && aloha_done == seeds &&
                  csma_done == seeds && tdma < link_slots.mean() &&
                  tdma < aloha_slots.mean() && tdma < csma_slots.mean();
  return bench::print_verdict(
      ok,
      "all mechanisms complete; the paper's TDMA needs the fewest slots and "
      "is the only distributed deterministic one");
}
