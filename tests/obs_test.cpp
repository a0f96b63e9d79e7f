// Tests for the observability layer (src/obs): event naming, the ring
// buffer's drop-oldest policy, JSONL round-tripping, histogram bucket edges,
// and the digest's exact agreement with the simulator's own RunMetrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mw_node.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/observation.h"
#include "obs/trace.h"
#include "robust/recovery_protocol.h"

namespace sinrcolor {
namespace {

TEST(TraceNames, EventKindNamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kEventKindCount; ++i) {
    const auto kind = static_cast<obs::EventKind>(i);
    const std::string name = obs::to_string(kind);
    EXPECT_NE(name, "?");
    obs::EventKind parsed;
    ASSERT_TRUE(obs::event_kind_from_string(name, parsed)) << name;
    EXPECT_EQ(parsed, kind);
  }
  obs::EventKind parsed;
  EXPECT_FALSE(obs::event_kind_from_string("no_such_kind", parsed));
}

TEST(TraceNames, MwStateNamesMatchCoreToString) {
  // obs cannot include core (layering), so it carries its own copy of the
  // state names; this is the drift guard the header promises.
  for (std::size_t i = 0; i < core::kMwStateCount; ++i) {
    EXPECT_STREQ(obs::mw_state_name(static_cast<std::int64_t>(i)),
                 core::to_string(static_cast<core::MwStateKind>(i)));
  }
  EXPECT_STREQ(obs::mw_state_name(-1), "?");
  EXPECT_STREQ(obs::mw_state_name(6), "?");
}

TEST(TraceNames, JoinPhaseNamesAreStableWireNames) {
  // robust::SelfHealingNode::JoinPhase has no to_string; these literals ARE
  // the wire names (kInactive, kListening, kConfirming, kConfirmed).
  EXPECT_STREQ(obs::join_phase_name(0), "inactive");
  EXPECT_STREQ(obs::join_phase_name(1), "listening");
  EXPECT_STREQ(obs::join_phase_name(2), "confirming");
  EXPECT_STREQ(obs::join_phase_name(3), "confirmed");
  EXPECT_STREQ(obs::join_phase_name(4), "?");
}

TEST(Tracer, RingDropsOldestOnOverflow) {
  obs::Tracer tracer(4);
  for (std::int64_t s = 0; s < 6; ++s) {
    tracer.record(s, obs::EventKind::kTx, static_cast<obs::NodeId>(s));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].slot, static_cast<obs::Slot>(i + 2));  // 0,1 dropped
  }
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, NullSinkMacroSkipsArgumentEvaluation) {
  obs::Tracer* tracer = nullptr;
  int evaluations = 0;
  const auto payload = [&]() { return ++evaluations; };
  SINRCOLOR_TRACE(tracer, 0, obs::EventKind::kTx, 0u, obs::kNoNode, payload());
  EXPECT_EQ(evaluations, 0);
  obs::Tracer live(4);
  SINRCOLOR_TRACE(&live, 0, obs::EventKind::kTx, 0u, obs::kNoNode, payload());
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(live.size(), 1u);
}

TEST(JsonlExport, RoundTripIsLossless) {
  obs::TraceMeta meta;
  meta.node_count = 7;
  meta.seed = 424242;
  meta.scenario = "quoted \"name\"\twith\nescapes\\";
  meta.recorded = 20;
  meta.dropped = 3;

  std::vector<obs::TraceEvent> events;
  for (std::size_t i = 0; i < obs::kEventKindCount; ++i) {
    obs::TraceEvent e;
    e.slot = static_cast<obs::Slot>(100 + i);
    e.kind = static_cast<obs::EventKind>(i);
    e.node = static_cast<obs::NodeId>(i % 7);
    e.peer = i % 2 == 0 ? static_cast<obs::NodeId>((i + 1) % 7) : obs::kNoNode;
    e.a = static_cast<std::int32_t>(i) - 3;       // negatives survive
    e.b = -static_cast<std::int64_t>(i) * 1000000000000LL;  // wide payload
    if (e.kind == obs::EventKind::kMwTransition ||
        e.kind == obs::EventKind::kJoinTransition) {
      e.a = 1;  // automaton edges carry state values (the schema's range)
      e.b = 3;
    }
    events.push_back(e);
  }

  std::stringstream buf;
  obs::write_jsonl(meta, events, buf);

  obs::TraceMeta parsed_meta;
  std::vector<obs::TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(obs::read_jsonl(buf, parsed_meta, parsed, &error)) << error;
  EXPECT_EQ(parsed_meta, meta);
  EXPECT_EQ(parsed, events);
}

TEST(JsonlExport, RejectsMalformedInput) {
  obs::TraceMeta meta;
  std::vector<obs::TraceEvent> events;
  std::string error;

  std::stringstream wrong_schema(
      "{\"schema\":\"other.v9\",\"node_count\":1,\"seed\":0,\"scenario\":\"\","
      "\"recorded\":0,\"dropped\":0}\n");
  EXPECT_FALSE(obs::read_jsonl(wrong_schema, meta, events, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;

  std::stringstream garbage_event;
  obs::write_jsonl(obs::TraceMeta{}, {}, garbage_event);
  garbage_event << "not json\n";
  garbage_event.seekg(0);
  EXPECT_FALSE(obs::read_jsonl(garbage_event, meta, events, &error));
  EXPECT_NE(error.find("line"), std::string::npos) << error;

  // One case per sinrcolor.trace.v1 rule (tools/lint/trace_schema_check.py
  // states the same ones), each refused with a "line N: ..." diagnostic.
  const auto rejects = [&](const std::string& n, const std::string& lines,
                           const std::string& want) {
    std::stringstream trace(
        "{\"schema\":\"sinrcolor.trace.v1\",\"n\":" + n +
        ",\"seed\":0,\"scenario\":\"\",\"recorded\":2,\"dropped\":0}\n" +
        lines);
    error.clear();
    EXPECT_FALSE(obs::read_jsonl(trace, meta, events, &error)) << lines;
    EXPECT_NE(error.find(want), std::string::npos) << error;
  };
  const auto event = [](const std::string& slot, const std::string& kind,
                        const std::string& node, const std::string& peer,
                        const std::string& a, const std::string& b) {
    return "{\"slot\":" + slot + ",\"kind\":\"" + kind + "\",\"node\":" +
           node + ",\"peer\":" + peer + ",\"a\":" + a + ",\"b\":" + b +
           "}\n";
  };
  const std::string no_node = "4294967295";
  rejects("-1", "", "line 1: meta header needs integers");
  rejects("4294967296", "", "line 1: n 4294967296 exceeds the node id range");
  rejects("3", event("-1", "tx", "0", no_node, "0", "0"),
          "line 2: negative slot -1");
  rejects("3",
          event("5", "tx", "0", no_node, "0", "0") +
              event("4", "tx", "0", no_node, "0", "0"),
          "line 3: slot 4 < previous slot 5");
  rejects("3", event("0", "tx", "3", no_node, "0", "0"),
          "line 2: node 3 out of range [0, 3)");
  rejects("3", event("0", "tx", "-5", no_node, "0", "0"),
          "line 2: event needs integers");
  rejects("3", event("0", "tx", "4294967296", no_node, "0", "0"),
          "line 2: event needs integers");
  rejects("3", event("0", "delivery", "0", "3", "0", "0"),
          "line 2: peer 3 out of range [0, 3) and not kNoNode");
  rejects("3", event("0", "tx", "0", no_node, "4294967297", "0"),
          "line 2: a 4294967297 exceeds 32 bits");
  rejects("3", event("0", "mw_transition", "0", no_node, "0", "200"),
          "line 2: mw_transition payload (0, 200) outside 0..5");
  rejects("3", event("0", "join_transition", "0", no_node, "4", "0"),
          "line 2: join_transition payload (4, 0) outside 0..3");
  // The same shapes inside their ranges parse.
  std::stringstream valid(
      "{\"schema\":\"sinrcolor.trace.v1\",\"n\":3,\"seed\":0,"
      "\"scenario\":\"\",\"recorded\":2,\"dropped\":0}\n" +
      event("0", "mw_transition", "2", no_node, "0", "5") +
      event("0", "join_transition", "0", "2", "3", "0"));
  EXPECT_TRUE(obs::read_jsonl(valid, meta, events, &error)) << error;
  EXPECT_EQ(events.size(), 2u);
}

TEST(Histogram, BucketEdgesAreUpperInclusive) {
  obs::Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.bucket_count(), 4u);  // 3 edges + overflow
  h.record(0.5);   // <= 1.0          -> bucket 0
  h.record(1.0);   // == edge 0       -> bucket 0 (upper-inclusive)
  h.record(1.5);   // (1, 2]          -> bucket 1
  h.record(2.0);   // == edge 1       -> bucket 1
  h.record(4.0);   // == last edge    -> bucket 2
  h.record(4.001); // > last edge     -> overflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 4.001);
  EXPECT_NEAR(h.mean(), (0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.001) / 6.0, 1e-12);
}

TEST(MetricsRegistry, NamesAreStableHandles) {
  obs::MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.counter("a").add(2);
  registry.counter("a").add(3);
  EXPECT_EQ(registry.counter("a").value(), 5u);
  auto& h = registry.histogram("h", {1.0, 2.0});
  registry.histogram("h", {1.0, 2.0}).record(1.5);
  EXPECT_EQ(h.total(), 1u);  // same edges -> same histogram object
  EXPECT_FALSE(registry.empty());
  // Exported JSON is ordered (std::map) and therefore byte-stable.
  EXPECT_EQ(registry.to_json(), registry.to_json());
}

// --- export edge cases -------------------------------------------------------

TEST(JsonlExport, EmptyTraceRoundTripsAndRendersChromeSkeleton) {
  obs::TraceMeta meta;
  meta.node_count = 3;
  meta.scenario = "empty";

  std::stringstream jsonl;
  obs::write_jsonl(meta, {}, jsonl);
  obs::TraceMeta parsed_meta;
  std::vector<obs::TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(obs::read_jsonl(jsonl, parsed_meta, parsed, &error)) << error;
  EXPECT_EQ(parsed_meta, meta);
  EXPECT_TRUE(parsed.empty());

  // The Chrome trace of an empty run is still a valid skeleton: process
  // metadata, no node tracks (and no profiler process without a profiler).
  std::stringstream chrome;
  obs::write_chrome_trace(meta, {}, chrome);
  const std::string out = chrome.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("process_name"), std::string::npos);
  EXPECT_EQ(out.find("thread_name"), std::string::npos);
  EXPECT_EQ(out.find("\"pid\":1"), std::string::npos);
}

TEST(JsonlExport, RingOverflowAccountingSurvivesExport) {
  // After the ring drops the oldest events, the exported header must still
  // satisfy recorded - dropped == events held (the invariant
  // tools/lint/trace_schema_check.py enforces on the artifact).
  obs::Tracer tracer(4);
  for (std::int64_t s = 0; s < 9; ++s) {
    tracer.record(s, obs::EventKind::kTx, static_cast<obs::NodeId>(0));
  }
  obs::TraceMeta meta;
  meta.node_count = 1;
  meta.recorded = tracer.recorded();
  meta.dropped = tracer.dropped();

  std::stringstream jsonl;
  obs::write_jsonl(meta, tracer.events(), jsonl);
  obs::TraceMeta parsed_meta;
  std::vector<obs::TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(obs::read_jsonl(jsonl, parsed_meta, parsed, &error)) << error;
  EXPECT_EQ(parsed_meta.recorded, 9u);
  EXPECT_EQ(parsed_meta.dropped, 5u);
  EXPECT_EQ(parsed_meta.recorded - parsed_meta.dropped, parsed.size());
  // The surviving tail keeps emission order (slots 5..8).
  EXPECT_EQ(parsed.front().slot, 5);
  EXPECT_EQ(parsed.back().slot, 8);
}

TEST(ChromeTrace, ProfilerTracksLandInSecondProcess) {
  obs::Profiler profiler;
  profiler.record(obs::Phase::kSlot, 120'000, 100'000);  // ns
  profiler.record(obs::Phase::kResolve, 20'000, 20'000);
  obs::TraceMeta meta;
  meta.node_count = 1;

  std::stringstream chrome;
  obs::write_chrome_trace(meta, {}, chrome, &profiler);
  const std::string out = chrome.str();
  EXPECT_NE(out.find("profiler (phase totals, us)"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(out.find("phase slot"), std::string::npos);        // thread name
  EXPECT_NE(out.find("phase resolve"), std::string::npos);
  EXPECT_NE(out.find("phase_total_us:slot"), std::string::npos);  // counter
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(out.find("\"self_us\":100"), std::string::npos);
  // Silent phases emit no track.
  EXPECT_EQ(out.find("phase deliver"), std::string::npos);

  // A profiler that never recorded adds nothing — same bytes as no profiler.
  obs::Profiler idle;
  std::stringstream with_idle, without;
  obs::write_chrome_trace(meta, {}, with_idle, &idle);
  obs::write_chrome_trace(meta, {}, without, nullptr);
  EXPECT_EQ(with_idle.str(), without.str());
}

// --- digest / end-to-end agreement with the simulator -----------------------

TEST(Digest, MatchesRunMetricsExactly) {
  common::Rng rng(91);
  graph::UnitDiskGraph g(geometry::uniform_deployment(40, 2.8, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 17;
  cfg.wakeup = core::WakeupKind::kUniform;
  cfg.wakeup_window = 300;

  obs::RunObservation observation(std::size_t{1} << 22);
  core::MwInstance instance(g, cfg);
  instance.attach_observation(&observation);
  const auto result = instance.run();
  ASSERT_TRUE(result.metrics.all_decided);
  ASSERT_EQ(observation.trace.dropped(), 0u);

  const auto digest = obs::build_digest(observation.trace.events(), g.size());
  ASSERT_EQ(digest.size(), g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    EXPECT_EQ(digest[v].first_wake, result.metrics.wake_slot[v]) << v;
    EXPECT_EQ(digest[v].decision_slot, result.metrics.decision_slot[v]) << v;
    EXPECT_EQ(digest[v].final_color,
              static_cast<std::int64_t>(result.coloring.color[v]))
        << v;
    EXPECT_EQ(digest[v].death_slot, -1) << v;
  }
  std::size_t digest_leaders = 0;
  for (const auto& d : digest) digest_leaders += d.leader ? 1u : 0u;
  EXPECT_EQ(digest_leaders, result.leaders.size());

  const auto table = obs::render_digest(digest);
  EXPECT_NE(table.find("decided"), std::string::npos);
  // Filtering to one node keeps the header but drops the other 39 rows.
  const auto filtered = obs::render_digest(digest, 3);
  EXPECT_LT(std::count(filtered.begin(), filtered.end(), '\n'),
            std::count(table.begin(), table.end(), '\n'));
}

TEST(Digest, SizedByTheEventsNotTheHeader) {
  // A header may declare 2^32 − 1 nodes; the two events name nodes 0 and 5,
  // so the table holds rows 0..5 and node 3, without events, stays empty.
  std::vector<obs::TraceEvent> events(2);
  events[0].slot = 0;
  events[0].node = 0;
  events[0].kind = obs::EventKind::kWake;
  events[1].slot = 3;
  events[1].node = 5;
  events[1].kind = obs::EventKind::kWake;
  const auto digest = obs::build_digest(events, std::size_t{0xffffffffu});
  ASSERT_EQ(digest.size(), 6u);
  EXPECT_EQ(digest[0].first_wake, 0);
  EXPECT_EQ(digest[5].first_wake, 3);
  EXPECT_EQ(digest[3].node, 3u);
  EXPECT_EQ(digest[3].first_wake, -1);
  EXPECT_TRUE(obs::build_digest({}, std::size_t{0xffffffffu}).empty());
}

TEST(Digest, FailoverAndDeathAreVisibleInTheTrace) {
  // The X14 orphaned-requester scenario (see recovery_test.cpp): probe when
  // the member commits, kill its leader right after, and expect the trace to
  // carry the death and the self-healing failover.
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 5;
  cfg.recovery.enabled = true;

  graph::NodeId leader = graph::kInvalidNode;
  graph::NodeId member = graph::kInvalidNode;
  radio::Slot request_entry = -1;
  {
    robust::RecoveryInstance probe(g, cfg);
    const auto& nodes = probe.nodes();
    probe.simulator().add_observer(
        [&](radio::Slot slot, std::span<const radio::TxRecord>) {
          for (graph::NodeId v = 0; v < 2; ++v) {
            const core::MwNode* inner = nodes[v]->inner();
            if (request_entry < 0 && inner != nullptr &&
                inner->state() == core::MwStateKind::kRequesting) {
              request_entry = slot;
              member = v;
            }
          }
        });
    const auto clean = probe.run();
    ASSERT_TRUE(clean.metrics.all_decided);
    ASSERT_EQ(clean.leaders.size(), 1u);
    leader = clean.leaders.front();
    ASSERT_GE(request_entry, 0);
    ASSERT_NE(member, leader);
  }

  obs::RunObservation observation(std::size_t{1} << 20);
  robust::RecoveryInstance instance(g, cfg);  // same seed => identical prefix
  instance.attach_observation(&observation);
  instance.simulator().set_failure_slot(leader, request_entry + 1);
  const auto result = instance.run();
  ASSERT_EQ(result.metrics.stalled_nodes, 0u);

  const auto events = observation.trace.events();
  bool saw_failover = false, saw_death = false;
  for (const auto& e : events) {
    saw_failover |= e.kind == obs::EventKind::kFailover && e.node == member;
    saw_death |= e.kind == obs::EventKind::kFailure && e.node == leader;
  }
  EXPECT_TRUE(saw_failover);
  EXPECT_TRUE(saw_death);

  const auto digest = obs::build_digest(events, g.size());
  EXPECT_GE(digest[member].failover_count, 1u);
  EXPECT_EQ(digest[leader].death_slot, request_entry + 1);
  EXPECT_NE(digest[member].final_color, -1);
  EXPECT_EQ(observation.metrics.counter("robust.failovers").value(),
            digest[member].failover_count);
}

}  // namespace
}  // namespace sinrcolor
