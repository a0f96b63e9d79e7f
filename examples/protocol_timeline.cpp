// Visualizes one protocol execution as a state-population timeline — and
// demonstrates the observability layer end-to-end while doing it:
//
//   1. record  — attach an obs::RunObservation to the instance, run it;
//   2. export  — write the event trace as JSONL (and optionally a Chrome
//                trace for chrome://tracing / ui.perfetto.dev);
//   3. analyze — read the JSONL back, rebuild the per-slot state timeline
//                and the per-node lifecycle digest purely from the events.
//
// The rendered chart shows the MW algorithm's phase structure: the initial
// listening wave, leader election in class 0, the request/assign pipeline,
// and the cascaded per-class competitions until everyone holds a color.
//
//   ./examples/protocol_timeline [--n=150] [--side=4.5] [--seed=2]
//                                [--wakeup-window=0] [--trace-out=...]
//                                [--chrome-out=...] [--digest-rows=8]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/cli.h"
#include "common/rng.h"
#include "core/mw_protocol.h"
#include "core/timeline.h"
#include "geometry/deployment.h"
#include "obs/export.h"
#include "obs/observation.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 150, 1));
  const double side = cli.get_double("side", 4.5);
  const auto seed = cli.get_seed("seed", 2);
  const auto wakeup_window = cli.get_int("wakeup-window", 0);
  const std::string trace_out = cli.get("trace-out", "");
  const std::string chrome_out = cli.get("chrome-out", "");
  const auto digest_rows =
      static_cast<std::size_t>(cli.get_int("digest-rows", 8));
  cli.reject_unknown();

  common::Rng rng(seed);
  graph::UnitDiskGraph g(geometry::uniform_deployment(n, side, rng), 1.0);
  std::printf("n=%zu Delta=%zu avg_deg=%.1f\n\n", g.size(), g.max_degree(),
              g.average_degree());

  core::MwRunConfig config;
  config.seed = seed;
  if (wakeup_window > 0) {
    config.wakeup = core::WakeupKind::kUniform;
    config.wakeup_window = wakeup_window;
  }

  // 1. Record: every tx/delivery/drop/transition/decision lands in the ring.
  obs::RunObservation observation(std::size_t{1} << 22);
  core::MwInstance instance(g, config);
  instance.attach_observation(&observation);
  const auto result = instance.run();

  // 2. Export: JSONL (round-trippable) and, on request, a Perfetto trace.
  obs::TraceMeta meta;
  meta.node_count = g.size();
  meta.seed = seed;
  meta.scenario = "color";
  meta.recorded = observation.trace.recorded();
  meta.dropped = observation.trace.dropped();
  std::stringstream jsonl;
  obs::write_jsonl(meta, observation.trace.events(), jsonl);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << jsonl.str();
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(meta.recorded),
                static_cast<unsigned long long>(meta.dropped));
  }
  if (!chrome_out.empty()) {
    std::ofstream out(chrome_out);
    obs::write_chrome_trace(meta, observation.trace.events(), out);
    std::printf("chrome trace written to %s\n", chrome_out.c_str());
  }

  // 3. Analyze from the exported bytes alone — the live instance is no
  // longer consulted, proving the trace is self-contained.
  obs::TraceMeta parsed_meta;
  std::vector<obs::TraceEvent> events;
  std::string error;
  if (!obs::read_jsonl(jsonl, parsed_meta, events, &error)) {
    std::fprintf(stderr, "trace round-trip failed: %s\n", error.c_str());
    return 2;
  }

  const auto interval =
      std::max<radio::Slot>(1, instance.params().listen_slots / 64);
  const auto timeline = core::timeline_from_trace(
      events, static_cast<std::size_t>(parsed_meta.node_count), interval);
  std::printf("%s\n", timeline.render_ascii().c_str());
  std::printf("50%% of nodes decided by slot ~%lld, 100%% by ~%lld\n",
              static_cast<long long>(timeline.decided_fraction_slot(0.5)),
              static_cast<long long>(timeline.decided_fraction_slot(1.0)));

  const auto digest = obs::build_digest(
      events, static_cast<std::size_t>(parsed_meta.node_count));
  std::vector<obs::NodeDigest> head(
      digest.begin(),
      digest.begin() +
          static_cast<std::ptrdiff_t>(std::min(digest_rows, digest.size())));
  std::printf("\nper-node digest (first %zu of %zu nodes):\n%s", head.size(),
              digest.size(), obs::render_digest(head).c_str());

  // Decision slots reconstructed from events must equal the simulator's own
  // metrics — the digest is trustworthy, not approximate.
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    if (digest[v].decision_slot != result.metrics.decision_slot[v]) {
      std::fprintf(stderr, "digest drift at node %u: %lld != %lld\n", v,
                   static_cast<long long>(digest[v].decision_slot),
                   static_cast<long long>(result.metrics.decision_slot[v]));
      return 2;
    }
  }
  std::printf("\ndigest decision slots match RunMetrics exactly (%zu nodes)\n",
              digest.size());
  std::printf("result: %s\n", result.summary().c_str());
  return result.coloring_valid ? 0 : 1;
}
