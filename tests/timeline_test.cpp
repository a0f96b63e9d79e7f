// Tests for the state timeline instrumentation and the clique lower bound.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/mw_protocol.h"
#include "core/timeline.h"
#include "geometry/deployment.h"
#include "graph/packing.h"
#include "obs/observation.h"

namespace sinrcolor {
namespace {

TEST(StateTimeline, SamplesSumToNodeCountAndEndColored) {
  common::Rng rng(55);
  graph::UnitDiskGraph g(geometry::uniform_deployment(60, 3.0, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 3;
  core::MwInstance instance(g, cfg);
  core::StateTimeline timeline(64);
  timeline.attach(instance);
  const auto result = instance.run();
  ASSERT_TRUE(result.metrics.all_decided);
  ASSERT_FALSE(timeline.samples().empty());

  for (const auto& sample : timeline.samples()) {
    std::uint32_t total = 0;
    for (std::uint32_t c : sample.count) total += c;
    ASSERT_EQ(total, g.size());
  }
  // First sample: everyone in the listening phase (simultaneous wake-up).
  const auto& first = timeline.samples().front();
  EXPECT_EQ(first.count[static_cast<std::size_t>(core::MwStateKind::kListening)],
            g.size());
  // Last sample: nobody asleep, and decided states dominate.
  const auto& last = timeline.samples().back();
  EXPECT_EQ(last.count[static_cast<std::size_t>(core::MwStateKind::kAsleep)], 0u);
  const auto decided =
      last.count[static_cast<std::size_t>(core::MwStateKind::kLeader)] +
      last.count[static_cast<std::size_t>(core::MwStateKind::kColored)];
  EXPECT_GT(decided, g.size() / 2);
}

TEST(StateTimeline, DecidedFractionIsMonotone) {
  common::Rng rng(56);
  graph::UnitDiskGraph g(geometry::uniform_deployment(50, 3.0, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 4;
  core::MwInstance instance(g, cfg);
  core::StateTimeline timeline(32);
  timeline.attach(instance);
  (void)instance.run();
  const auto t25 = timeline.decided_fraction_slot(0.25);
  const auto t50 = timeline.decided_fraction_slot(0.5);
  const auto t90 = timeline.decided_fraction_slot(0.9);
  ASSERT_GE(t25, 0);
  ASSERT_GE(t50, t25);
  ASSERT_GE(t90, t50);
  EXPECT_EQ(timeline.decided_fraction_slot(0.0), timeline.samples().front().slot);
}

TEST(StateTimeline, AsciiRenderContainsAllStates) {
  common::Rng rng(57);
  graph::UnitDiskGraph g(geometry::uniform_deployment(40, 2.5, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 5;
  core::MwInstance instance(g, cfg);
  core::StateTimeline timeline(16);
  timeline.attach(instance);
  (void)instance.run();
  const auto art = timeline.render_ascii(40);
  EXPECT_NE(art.find("listening"), std::string::npos);
  EXPECT_NE(art.find("competing"), std::string::npos);
  EXPECT_NE(art.find("colored"), std::string::npos);
  EXPECT_NE(art.find("samples"), std::string::npos);
}

TEST(StateTimeline, EmptyTimelineRendersPlaceholder) {
  core::StateTimeline timeline(16);
  EXPECT_EQ(timeline.render_ascii(), "(no samples)\n");
  EXPECT_EQ(timeline.decided_fraction_slot(0.5), -1);
}

TEST(TimelineFromTrace, MatchesLiveAttachedSampling) {
  // The offline replay (timeline_from_trace) must reproduce the counts the
  // live observer saw at every shared sample slot: a sample at boundary s
  // reflects all state changes up to and including slot s.
  common::Rng rng(59);
  graph::UnitDiskGraph g(geometry::uniform_deployment(50, 3.0, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 6;
  cfg.wakeup = core::WakeupKind::kUniform;
  cfg.wakeup_window = 200;

  obs::RunObservation observation(std::size_t{1} << 22);
  core::MwInstance instance(g, cfg);
  instance.attach_observation(&observation);
  core::StateTimeline live(64);
  live.attach(instance);
  (void)instance.run();
  ASSERT_EQ(observation.trace.dropped(), 0u);

  const auto events = observation.trace.events();
  const auto replayed = core::timeline_from_trace(events, g.size(), 64);
  ASSERT_GE(replayed.samples().size(), live.samples().size());
  for (std::size_t i = 0; i < live.samples().size(); ++i) {
    EXPECT_EQ(replayed.samples()[i].slot, live.samples()[i].slot) << i;
    EXPECT_EQ(replayed.samples()[i].count, live.samples()[i].count) << i;
  }
  // The replay additionally closes with the end-of-run population.
  const auto& final_count = replayed.samples().back().count;
  std::uint32_t total = 0;
  for (std::uint32_t c : final_count) total += c;
  EXPECT_EQ(total, g.size());
}

TEST(TimelineFromTrace, EmptyTraceYieldsNoSamples) {
  const auto timeline = core::timeline_from_trace({}, 10, 16);
  EXPECT_TRUE(timeline.samples().empty());
  EXPECT_EQ(timeline.node_count(), 10u);
  EXPECT_EQ(timeline.render_ascii(), "(no samples)\n");
  EXPECT_EQ(timeline.decided_fraction_slot(1.0), -1);
}

TEST(TimelineFromTrace, SingleEventProducesSingleSample) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent e;
  e.slot = 0;
  e.node = 2;
  e.kind = obs::EventKind::kMwTransition;
  e.a = static_cast<std::int32_t>(core::MwStateKind::kAsleep);
  e.b = static_cast<std::int64_t>(core::MwStateKind::kListening);
  events.push_back(e);

  const auto timeline = core::timeline_from_trace(events, 4, 16);
  ASSERT_EQ(timeline.samples().size(), 1u);
  const auto& s = timeline.samples().front();
  EXPECT_EQ(s.slot, 0);
  EXPECT_EQ(s.count[static_cast<std::size_t>(core::MwStateKind::kAsleep)], 3u);
  EXPECT_EQ(s.count[static_cast<std::size_t>(core::MwStateKind::kListening)],
            1u);
  EXPECT_NE(timeline.render_ascii().find("listening"), std::string::npos);
}

TEST(TimelineFromTrace, HeaderCountBeyondTheEventsStaysAsleep) {
  // A header may declare 2^32 − 1 nodes: the replay's table ends at the
  // last node an event names, and every other node counts as asleep.
  constexpr std::size_t kNodes = 0xffffffffu;
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent e;
  e.slot = 3;
  e.node = 5;
  e.kind = obs::EventKind::kMwTransition;
  e.a = static_cast<std::int32_t>(core::MwStateKind::kAsleep);
  e.b = static_cast<std::int64_t>(core::MwStateKind::kListening);
  events.push_back(e);

  const auto timeline = core::timeline_from_trace(events, kNodes, 2);
  ASSERT_FALSE(timeline.samples().empty());
  const auto& last = timeline.samples().back();
  EXPECT_EQ(last.slot, 3);
  EXPECT_EQ(last.count[static_cast<std::size_t>(core::MwStateKind::kAsleep)],
            kNodes - 1);
  EXPECT_EQ(
      last.count[static_cast<std::size_t>(core::MwStateKind::kListening)], 1u);
  EXPECT_EQ(timeline.node_count(), kNodes);
}

TEST(CliqueLowerBound, ExactOnHandInstances) {
  // Triangle + isolated node: clique number 3.
  geometry::Deployment dep;
  dep.side = 10.0;
  dep.points = {{0, 0}, {0.5, 0}, {0.25, 0.4}, {5, 5}};
  graph::UnitDiskGraph g(dep, 1.0);
  EXPECT_EQ(graph::greedy_clique_lower_bound(g), 3u);

  graph::UnitDiskGraph chain(geometry::line_deployment(5, 0.9), 1.0);
  EXPECT_EQ(graph::greedy_clique_lower_bound(chain), 2u);

  graph::UnitDiskGraph empty_graph(geometry::line_deployment(3, 2.0), 1.0);
  EXPECT_EQ(graph::greedy_clique_lower_bound(empty_graph), 1u);
}

TEST(CliqueLowerBound, NeverExceedsPaletteOfAnyValidColoring) {
  common::Rng rng(58);
  graph::UnitDiskGraph g(geometry::uniform_deployment(200, 5.0, rng), 1.0);
  const auto lb = graph::greedy_clique_lower_bound(g);
  EXPECT_GE(lb, 1u);
  EXPECT_LE(lb, g.max_degree() + 1);
  // Clique LB ≤ χ(G) ≤ palette of the greedy coloring.
  // (Checked against the MW protocol's palette in bench X1.)
}

}  // namespace
}  // namespace sinrcolor
