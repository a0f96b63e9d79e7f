// Quickstart: deploy a random sensor field, run the SINR-tuned MW coloring,
// and verify the result.
//
//   ./examples/quickstart [--n=200] [--side=5.0] [--seed=1]
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "graph/coloring.h"
#include "graph/unit_disk_graph.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 200, 1));
  const double side = cli.get_double_at_least("side", 5.0, 1e-9);
  const auto seed = cli.get_seed("seed", 1);
  cli.reject_unknown();

  // 1. Deploy n nodes uniformly in a side×side square; R_T = 1 defines the
  //    unit disk graph (and, implicitly, the physical layer whose
  //    transmission range is exactly R_T).
  common::Rng rng(seed);
  graph::UnitDiskGraph g(geometry::uniform_deployment(n, side, rng), 1.0);
  std::printf("deployed n=%zu nodes, max degree Delta=%zu, avg degree %.1f\n",
              g.size(), g.max_degree(), g.average_degree());

  // 2. Run the distributed coloring under the SINR physical model.
  core::MwRunConfig config;
  config.seed = seed;
  const auto result = core::run_mw_coloring(g, config);
  std::printf("protocol parameters: %s\n", result.params.to_string().c_str());

  // 3. Inspect the outcome.
  std::printf("finished in %lld slots (max node latency %lld)\n",
              static_cast<long long>(result.metrics.slots_executed),
              static_cast<long long>(result.metrics.max_decision_latency()));
  std::printf("colors used: %zu (Theorem 2 bound: %lld), leaders: %zu\n",
              result.palette, static_cast<long long>(result.params.palette_bound()),
              result.leaders.size());
  std::printf("valid (1,*)-coloring: %s, Theorem-1 violations: %zu\n",
              result.coloring_valid ? "yes" : "NO",
              result.independence_violations);

  if (!result.coloring_valid) {
    for (const auto& v : graph::find_coloring_violations(g, result.coloring)) {
      std::printf("  violation: %s\n", v.to_string().c_str());
    }
    return 1;
  }
  return 0;
}
