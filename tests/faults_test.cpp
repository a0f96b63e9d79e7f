// Fault-injection subsystem (src/faults): FaultPlan parsing + validation,
// FaultEngine's injection semantics on every medium, and the
// InvariantMonitor's episode bookkeeping. The determinism tests here (with
// the faulted field-vs-simd run in tests/field_equivalence_test.cpp) are the
// dynamic check of the contract stated in radio/fault_injection.h.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "faults/fault_engine.h"
#include "faults/fault_plan.h"
#include "faults/invariant_monitor.h"
#include "geometry/deployment.h"
#include "graph/coloring.h"
#include "graph/unit_disk_graph.h"
#include "radio/interference_model.h"
#include "radio/simulator.h"
#include "robust/recovery_protocol.h"

namespace sinrcolor {
namespace {

sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
}

graph::UnitDiskGraph scenario_graph(std::uint64_t seed) {
  common::Rng rng(seed);
  return graph::UnitDiskGraph(geometry::uniform_deployment(60, 3.5, rng), 1.0);
}

// Transmits every slot; decides upon first reception.
class ChattyProtocol final : public radio::Protocol {
 public:
  explicit ChattyProtocol(graph::NodeId id) : id_(id) {}
  void on_wake(radio::Slot) override {}
  std::optional<radio::Message> begin_slot(radio::Slot, common::Rng&) override {
    radio::Message m;
    m.kind = radio::MessageKind::kCompete;
    m.sender = id_;
    return m;
  }
  bool on_receive(radio::Slot, const radio::Message&) override {
    heard_ = true;
    return true;
  }
  bool decided() const override { return heard_; }

 private:
  graph::NodeId id_;
  bool heard_ = false;
};

// Listens forever; decides upon first reception.
class ListenerProtocol final : public radio::Protocol {
 public:
  void on_wake(radio::Slot) override {}
  std::optional<radio::Message> begin_slot(radio::Slot, common::Rng&) override {
    return std::nullopt;
  }
  bool on_receive(radio::Slot, const radio::Message&) override {
    heard_ = true;
    return true;
  }
  bool decided() const override { return heard_; }

 private:
  bool heard_ = false;
};

// Beacons a fixed claimed color every slot, never decides.
class BeaconProtocol final : public radio::Protocol {
 public:
  BeaconProtocol(graph::NodeId id, graph::Color color)
      : id_(id), color_(color) {}
  void on_wake(radio::Slot) override {}
  std::optional<radio::Message> begin_slot(radio::Slot, common::Rng&) override {
    radio::Message m;
    m.kind = radio::MessageKind::kColorBeacon;
    m.sender = id_;
    m.color_class = color_;
    return m;
  }
  bool on_receive(radio::Slot, const radio::Message&) override {
    return true;
  }
  bool decided() const override { return false; }

 private:
  graph::NodeId id_;
  graph::Color color_;
};

const char* kFullPlan = R"({
  "schema": "sinrcolor.faults.v1",
  "seed_salt": 7,
  "crashes": [{"node": 3, "slot": 100, "restart": 200}],
  "deafness": [{"node": 1, "from": 10, "to": 20}],
  "jammers": [{"x": 1.5, "y": 2.0, "from": 0, "to": 99,
               "power": 2.0, "period": 10, "duty": 4, "radius": 0.5}],
  "noise": [{"from": 50, "to": 80, "factor": 1.5}],
  "drops": [{"from": 0, "probability": 0.25}]
})";

TEST(FaultPlan, ParsesFullDocument) {
  faults::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(faults::FaultPlan::from_string(kFullPlan, plan, &error)) << error;
  EXPECT_EQ(plan.seed_salt, 7u);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].node, 3u);
  EXPECT_EQ(plan.crashes[0].slot, 100);
  EXPECT_EQ(plan.crashes[0].restart, 200);
  ASSERT_EQ(plan.deafness.size(), 1u);
  EXPECT_EQ(plan.deafness[0].node, 1u);
  ASSERT_EQ(plan.jammers.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.jammers[0].position.x, 1.5);
  EXPECT_DOUBLE_EQ(plan.jammers[0].power, 2.0);
  ASSERT_EQ(plan.noise.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.noise[0].factor, 1.5);
  ASSERT_EQ(plan.drops.size(), 1u);
  EXPECT_EQ(plan.drops[0].to, -1);  // default: until the end of the run
  EXPECT_DOUBLE_EQ(plan.drops[0].probability, 0.25);
  EXPECT_TRUE(plan.validate(8).empty());
}

TEST(FaultPlan, RoundTripsThroughToJson) {
  faults::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(faults::FaultPlan::from_string(kFullPlan, plan, &error)) << error;
  const std::string canonical = plan.to_json();
  faults::FaultPlan reparsed;
  ASSERT_TRUE(faults::FaultPlan::from_string(canonical, reparsed, &error))
      << error;
  EXPECT_EQ(reparsed.to_json(), canonical);
}

TEST(FaultPlan, RejectsUnknownKeys) {
  // A typo'd key must fail loudly, not silently disable the fault.
  faults::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1", "jamers": []})", plan, &error));
  EXPECT_NE(error.find("jamers"), std::string::npos);
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1",
          "drops": [{"from": 0, "probabilty": 0.5}]})",
      plan, &error));
  EXPECT_NE(error.find("probabilty"), std::string::npos);
}

TEST(FaultPlan, RejectsMissingOrWrongSchema) {
  faults::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(faults::FaultPlan::from_string(R"({"drops": []})", plan, &error));
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v2"})", plan, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(FaultPlan, RejectsNonIntegerSlots) {
  faults::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1",
          "crashes": [{"node": 0, "slot": 1.5}]})",
      plan, &error));
  EXPECT_NE(error.find("integer"), std::string::npos);
}

// JSON numbers parse as doubles: an integer is taken only where the double
// holds it exactly (|v| <= 2^53 - 1), checked before any cast.
TEST(FaultPlan, RejectsASaltBeyondTheInt64Range) {
  faults::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1", "seed_salt": 1e19})", plan, &error));
  EXPECT_NE(error.find("at most 2^53 - 1"), std::string::npos) << error;
}

TEST(FaultPlan, RejectsASaltTheDoubleCannotHold) {
  faults::FaultPlan plan;
  std::string error;
  // Reads as 2^53, one below what was written.
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1", "seed_salt": 9007199254740993})",
      plan, &error));
  EXPECT_NE(error.find("at most 2^53 - 1"), std::string::npos) << error;
  ASSERT_TRUE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1", "seed_salt": 9007199254740991})",
      plan, &error))
      << error;
  EXPECT_EQ(plan.seed_salt, faults::FaultPlan::kMaxExactInt);
}

TEST(FaultPlan, RejectsANegativeSalt) {
  faults::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1", "seed_salt": -1})", plan, &error));
  EXPECT_NE(error.find("\"seed_salt\" must be >= 0"), std::string::npos)
      << error;
}

TEST(FaultPlan, RejectsANodeIdThatWouldWrap) {
  // 2^32 must not narrow to node 0.
  faults::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1",
          "crashes": [{"node": 4294967296, "slot": 5}]})",
      plan, &error));
  EXPECT_NE(error.find("crashes[0]: node outside the node id range"),
            std::string::npos)
      << error;
  EXPECT_FALSE(faults::FaultPlan::from_string(
      R"({"schema": "sinrcolor.faults.v1",
          "deafness": [{"node": -1, "from": 0}]})",
      plan, &error));
  EXPECT_NE(error.find("deafness[0]: node outside the node id range"),
            std::string::npos)
      << error;
}

TEST(FaultPlan, EveryValidSaltRoundTrips) {
  faults::FaultPlan plan;
  plan.seed_salt = ~std::uint64_t{0};  // to_json would write it unreadably
  EXPECT_NE(plan.validate(4).find("seed_salt"), std::string::npos);
  plan.seed_salt = faults::FaultPlan::kMaxExactInt;
  ASSERT_TRUE(plan.validate(4).empty());
  faults::FaultPlan reparsed;
  std::string error;
  ASSERT_TRUE(faults::FaultPlan::from_string(plan.to_json(), reparsed, &error))
      << error;
  EXPECT_EQ(reparsed.seed_salt, plan.seed_salt);
}

TEST(FaultPlan, ValidateCatchesSemanticErrors) {
  faults::FaultPlan plan;
  plan.crashes.push_back({5, 10, -1});
  EXPECT_NE(plan.validate(4).find("out of range"), std::string::npos);
  plan.crashes[0] = {1, 100, 50};  // restart before the crash
  EXPECT_NE(plan.validate(4).find("restart"), std::string::npos);
  plan.crashes.clear();

  plan.drops.push_back({0, -1, 1.5});
  EXPECT_NE(plan.validate(4).find("probability"), std::string::npos);
  plan.drops.clear();

  faults::JammerSpec j;
  j.position = {1.0, 1.0};
  j.period = 5;
  j.duty = 9;  // duty > period
  plan.jammers.push_back(j);
  EXPECT_NE(plan.validate(4).find("duty"), std::string::npos);
  plan.jammers.clear();

  plan.noise.push_back({20, 10, 2.0});  // to < from
  EXPECT_NE(plan.validate(4).find("window"), std::string::npos);
  plan.noise.clear();
  EXPECT_TRUE(plan.validate(4).empty());
}

TEST(FaultPlan, ValidateRejectsAJammerOnANodeGivenPositions) {
  // Without positions the plan cannot know the deployment; with them, a
  // jammer on a node is named by index, and a near miss is fine.
  const std::vector<geometry::Point> positions = {
      {0.0, 0.0}, {0.8, 0.0}, {1.6, 0.0}};
  faults::FaultPlan plan;
  faults::JammerSpec j;
  j.position = {0.8, 0.0};
  plan.jammers.push_back(j);
  EXPECT_TRUE(plan.validate(3).empty());
  EXPECT_EQ(plan.validate(3, positions), "jammers[0]: coincides with node 1");
  plan.jammers[0].position = {0.8, 1e-9};
  EXPECT_TRUE(plan.validate(3, positions).empty());
}

TEST(FaultPlan, JammerDutyCycle) {
  faults::JammerSpec j;
  j.from = 100;
  j.to = 199;
  j.period = 10;
  j.duty = 3;
  EXPECT_FALSE(j.active(99));
  EXPECT_TRUE(j.active(100));   // cycle slots 0, 1, 2 are on
  EXPECT_TRUE(j.active(102));
  EXPECT_FALSE(j.active(103));  // cycle slots 3..9 are off
  EXPECT_TRUE(j.active(110));   // next cycle
  EXPECT_FALSE(j.active(200));  // window is inclusive, 200 is out

  j.period = 0;  // continuously on inside the window
  EXPECT_TRUE(j.active(150));
  EXPECT_TRUE(j.active(199));
  EXPECT_FALSE(j.active(200));
}

TEST(FaultEngine, DropHashIsPureAndSaltSeparated) {
  faults::FaultPlan plan;
  plan.drops.push_back({0, -1, 0.5});
  faults::FaultEngine a(plan, 42);
  faults::FaultEngine b(plan, 42);
  plan.seed_salt = 1;
  faults::FaultEngine salted(plan, 42);
  bool diverged = false;
  for (radio::Slot slot = 0; slot < 256; ++slot) {
    // Same plan + seed: every answer identical (pure hash, no generator
    // state to advance). A different salt: an independent pattern.
    EXPECT_EQ(a.drop_delivery(slot, 0, 1), b.drop_delivery(slot, 0, 1));
    diverged |= a.drop_delivery(slot, 2, 3) != salted.drop_delivery(slot, 2, 3);
  }
  EXPECT_TRUE(diverged);
  EXPECT_GT(a.stats().dropped_deliveries, 0u);
}

TEST(FaultEngine, DropWindowBoundsAreInclusive) {
  faults::FaultPlan plan;
  plan.drops.push_back({10, 20, 1.0});
  faults::FaultEngine engine(plan, 1);
  EXPECT_FALSE(engine.drop_delivery(9, 0, 1));
  EXPECT_TRUE(engine.drop_delivery(10, 0, 1));
  EXPECT_TRUE(engine.drop_delivery(20, 0, 1));
  EXPECT_FALSE(engine.drop_delivery(21, 0, 1));
}

TEST(FaultEngine, CertainDropSuppressesEveryDelivery) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  faults::FaultPlan plan;
  plan.drops.push_back({0, -1, 1.0});
  faults::FaultEngine engine(plan, 3);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 3);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  engine.install(sim);
  const auto metrics = sim.run(50);
  EXPECT_EQ(metrics.decision_slot[1], -1);  // never heard a thing
  EXPECT_EQ(metrics.fault_dropped_deliveries, 50u);
  EXPECT_EQ(engine.stats().dropped_deliveries, 50u);
  EXPECT_EQ(metrics.total_deliveries, 0u);
}

TEST(FaultEngine, DeafnessBlocksReceptionOnly) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  faults::FaultPlan plan;
  plan.deafness.push_back({1, 0, 24});
  faults::FaultEngine engine(plan, 3);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 3);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  engine.install(sim);
  const auto metrics = sim.run(50);
  // The sender transmitted throughout (deafness is a receiver fault); the
  // listener decodes in the first slot after its window ends.
  EXPECT_EQ(metrics.tx_count[0], 50u);
  EXPECT_EQ(metrics.decision_slot[1], 25);
  EXPECT_EQ(metrics.fault_deaf_slots, 25u);
}

// Shared scenario for the channel-disturbance tests: sender 0 → listener 1
// at distance 0.5, a fault window over slots [0, 24], decode expected from
// slot 25 on.
radio::RunMetrics run_disturbed(std::unique_ptr<radio::InterferenceModel> model,
                                const graph::UnitDiskGraph& g,
                                faults::FaultEngine& engine) {
  radio::Simulator sim(g, std::move(model), radio::simultaneous_wakeup(2), 3);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  engine.install(sim);
  return sim.run(50);
}

TEST(FaultEngine, JammerBlocksTheSinrMediumDuringItsWindow) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  faults::FaultPlan plan;
  faults::JammerSpec j;
  j.position = {g.position(1).x + 0.1, g.position(1).y + 0.1};
  j.from = 0;
  j.to = 24;
  j.power = 1.0;  // node transmit power right next to the listener
  plan.jammers.push_back(j);
  faults::FaultEngine engine(plan, 3);
  const auto metrics = run_disturbed(
      std::make_unique<radio::SinrInterferenceModel>(g, phys_for_radius(1.0)),
      g, engine);
  EXPECT_EQ(metrics.decision_slot[1], 25);
  EXPECT_EQ(engine.stats().jammer_slots, 25u);
}

TEST(FaultEngine, JammerBlanksTheGraphMediumWithinItsRadius) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  faults::FaultPlan plan;
  faults::JammerSpec j;
  j.position = {g.position(1).x + 0.05, g.position(1).y + 0.05};
  j.from = 0;
  j.to = 24;
  j.radius = 0.3;  // covers the listener, not the sender
  plan.jammers.push_back(j);
  faults::FaultEngine engine(plan, 3);
  const auto metrics = run_disturbed(
      std::make_unique<radio::GraphInterferenceModel>(g), g, engine);
  EXPECT_EQ(metrics.decision_slot[1], 25);
}

TEST(FaultEngine, NoiseBurstBlocksDecoding) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  faults::FaultPlan plan;
  plan.noise.push_back({0, 24, 1e9});
  faults::FaultEngine engine(plan, 3);
  const auto metrics = run_disturbed(
      std::make_unique<radio::SinrInterferenceModel>(g, phys_for_radius(1.0)),
      g, engine);
  EXPECT_EQ(metrics.decision_slot[1], 25);
  EXPECT_EQ(engine.stats().noisy_slots, 25u);
}

TEST(FaultEngine, FadingMediumHonoursTheJammerToo) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  faults::FaultPlan plan;
  faults::JammerSpec j;
  j.position = {g.position(1).x + 0.1, g.position(1).y + 0.1};
  j.from = 0;
  j.to = 24;
  plan.jammers.push_back(j);
  faults::FaultEngine engine(plan, 3);
  sinr::FadingSpec fading;
  fading.kind = sinr::FadingKind::kRayleigh;
  const auto metrics = run_disturbed(
      std::make_unique<radio::SinrInterferenceModel>(g, phys_for_radius(1.0),
                                                     fading),
      g, engine);
  // Fading may additionally kill post-window slots, but nothing decodes
  // while the jammer sits on the listener.
  EXPECT_GE(metrics.decision_slot[1], 25);
}

TEST(InvariantMonitor, CleanRunIsCleanAndUnperturbed) {
  const auto g = scenario_graph(92);
  core::MwRunConfig cfg;
  cfg.seed = 99;
  const std::string bare = core::to_json(core::run_mw_coloring(g, cfg));

  core::MwInstance instance(g, cfg);
  const auto& nodes = instance.nodes();
  faults::InvariantMonitor monitor(
      g, [&nodes](graph::NodeId v) { return nodes[v]->final_color(); });
  monitor.attach(instance.simulator());
  const auto result = instance.run();
  ASSERT_TRUE(result.metrics.all_decided);
  // The monitor is a pure read: same bytes as the unmonitored run, and a
  // fault-free protocol execution trips no invariant.
  EXPECT_EQ(core::to_json(result), bare);
  const auto report = monitor.report();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.conflicts_repaired, 0u);
}

TEST(InvariantMonitor, TracksConflictEpisodesWithDurations) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ListenerProtocol>());
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  // Drive the observed colors from a script: both claim color 0 at slot 10
  // (conflict opens), node 1 repairs to color 1 at slot 20 (episode closes
  // with duration 10). The mutating observer is registered BEFORE the
  // monitor, so the monitor's scan sees each slot's final colors.
  std::vector<graph::Color> colors(2, graph::kUncolored);
  sim.add_end_observer([&colors](radio::Slot slot) {
    if (slot == 10) colors = {0, 0};
    if (slot == 20) colors[1] = 1;
  });
  faults::InvariantMonitor monitor(
      g, [&colors](graph::NodeId v) { return colors[v]; });
  monitor.attach(sim);
  sim.run(30);
  const auto report = monitor.report();
  EXPECT_EQ(report.legality_violations, 1u);
  EXPECT_EQ(report.conflicts_repaired, 1u);
  EXPECT_EQ(report.open_conflicts, 0u);
  EXPECT_EQ(report.max_conflict_duration, 10);
  ASSERT_EQ(monitor.conflict_durations().size(), 1u);
  EXPECT_EQ(monitor.conflict_durations()[0], 10);
  EXPECT_FALSE(report.clean());  // a violation DID occur, even if repaired
}

TEST(InvariantMonitor, ReportsConflictsStillOpenAtRunEnd) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ListenerProtocol>());
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  std::vector<graph::Color> colors = {2, 2};  // conflicting from slot 0, never
  faults::InvariantMonitor monitor(             // repaired
      g, [&colors](graph::NodeId v) { return colors[v]; });
  monitor.attach(sim);
  sim.run(15);
  const auto report = monitor.report();
  EXPECT_EQ(report.legality_violations, 1u);  // one episode, not 15
  EXPECT_EQ(report.open_conflicts, 1u);
  EXPECT_EQ(report.conflicts_repaired, 0u);
}

TEST(InvariantMonitor, DeathOfOneSideClosesTheEpisode) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ListenerProtocol>());
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  sim.set_failure_slot(1, 8);
  std::vector<graph::Color> colors = {4, 4};
  faults::InvariantMonitor monitor(
      g, [&colors](graph::NodeId v) { return colors[v]; });
  monitor.attach(sim);
  sim.run(20);
  const auto report = monitor.report();
  EXPECT_EQ(report.legality_violations, 1u);
  EXPECT_EQ(report.open_conflicts, 0u);
  EXPECT_EQ(report.conflicts_repaired, 1u);  // closed by the death
  EXPECT_EQ(report.max_conflict_duration, 8);
}

TEST(InvariantMonitor, FlagsAdjacentSameColorBeaconsOnAir) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<BeaconProtocol>(0, 5));
  sim.set_protocol(1, std::make_unique<BeaconProtocol>(1, 5));
  std::vector<graph::Color> colors(2, graph::kUncolored);
  faults::InvariantMonitor monitor(
      g, [&colors](graph::NodeId v) { return colors[v]; });
  monitor.attach(sim);
  sim.run(3);
  const auto report = monitor.report();
  EXPECT_EQ(report.tx_independence_violations, 3u);  // one per slot
  EXPECT_EQ(report.legality_violations, 0u);  // final state never conflicted
}

TEST(InvariantMonitor, FeasibilityBoundFlagsEachNodeOnce) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 2.0), 1.0);  // no edge
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ListenerProtocol>());
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  std::vector<graph::Color> colors = {3, 1};  // 3 exceeds the bound below
  faults::InvariantMonitor::Options options;
  options.max_color = 1;
  faults::InvariantMonitor monitor(
      g, [&colors](graph::NodeId v) { return colors[v]; }, options);
  monitor.attach(sim);
  sim.run(10);
  EXPECT_EQ(monitor.report().feasibility_violations, 1u);  // once, not per slot
}

// Decides in its very first slot without any traffic.
class InstantProtocol final : public radio::Protocol {
 public:
  void on_wake(radio::Slot) override {}
  std::optional<radio::Message> begin_slot(radio::Slot, common::Rng&) override {
    decided_ = true;
    return std::nullopt;
  }
  bool on_receive(radio::Slot, const radio::Message&) override {
    return true;
  }
  bool decided() const override { return decided_; }

 private:
  bool decided_ = false;
};

TEST(Chaos, SettleWindowKeepsTheRunAliveAfterAllDecided) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  const auto run_with = [&g](radio::Slot settle, radio::Slot max_slots) {
    radio::Simulator sim(g,
                         std::make_unique<radio::SinrInterferenceModel>(
                             g, phys_for_radius(1.0)),
                         radio::simultaneous_wakeup(2), 1);
    sim.set_protocol(0, std::make_unique<InstantProtocol>());
    sim.set_protocol(1, std::make_unique<InstantProtocol>());
    sim.set_settle_slots(settle);
    return sim.run(max_slots).slots_executed;
  };
  // Default: the run stops at the first all-decided slot.
  EXPECT_EQ(run_with(0, 100), 1);
  // A settle window keeps the slot loop alive past the last decision...
  EXPECT_EQ(run_with(10, 100), 10);
  // ...but never past max_slots.
  EXPECT_EQ(run_with(10, 5), 5);
}

TEST(Chaos, RecoveryRunUnderFullPlanConvergesWithBoundedConflicts) {
  // End-to-end: crash + restart, message loss and a noise burst against the
  // self-healing protocol, with the monitor as the judge — every conflict
  // the faults cause must be repaired before the run ends.
  common::Rng rng(77);
  graph::UnitDiskGraph g(geometry::uniform_deployment(30, 2.5, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 29;
  cfg.recovery.enabled = true;
  cfg.recovery.retransmit.initial_wait = 40;

  faults::FaultPlan plan;
  plan.crashes.push_back({3, 9000, 15000});
  plan.noise.push_back({9000, 11000, 1.4});
  plan.drops.push_back({7290, 30000, 0.2});

  robust::RecoveryInstance instance(g, cfg);
  faults::FaultEngine engine(plan, cfg.seed);
  engine.install(instance.simulator());
  const auto& nodes = instance.nodes();
  faults::InvariantMonitor monitor(
      g, [&nodes](graph::NodeId v) { return nodes[v]->final_color(); });
  monitor.attach(instance.simulator());
  const auto result = instance.run();

  EXPECT_TRUE(result.coloring_valid);
  EXPECT_EQ(result.metrics.stalled_nodes, 0u);
  EXPECT_EQ(result.metrics.joined_nodes, 1u);  // the restart
  EXPECT_GT(engine.stats().dropped_deliveries, 0u);
  const auto report = monitor.report();
  EXPECT_EQ(report.open_conflicts, 0u);
  EXPECT_EQ(report.feasibility_violations, 0u);
}

}  // namespace
}  // namespace sinrcolor
