// The quiet-plan contract (radio/protocol.h): a node may promise that its
// next slots only draw one Bernoulli value each, and the simulator then
// skips its begin_slot calls in those slots. Skipping must never change a
// byte of a run: the same transmissions, the same RNG streams, the same
// reports and traces as a node called every slot.
//
//  (a) MwInstance runs whose MwNodes keep the default plan (a forwarding
//      wrapper) against plain runs, over every medium and wake-up mode,
//      with failures and with a fault plan;
//  (b) one MwNode stepped every slot against a twin driven through its
//      quiet plans, with deliveries landing inside quiet spans (a competing
//      node through to kColored, and a leader through idle and serve spans),
//      and one case per state showing that a delivery on_receive reports as
//      no change leaves the plan and decided() as they were;
//  (c) scripted protocols whose plans skip slots, inside the simulator,
//      including deliveries that keep, extend or shorten a plan or change
//      its probability, so the simulator steps drawn-ahead coins back.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mw_node.h"
#include "core/mw_params.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "faults/fault_engine.h"
#include "faults/fault_plan.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "obs/export.h"
#include "obs/observation.h"
#include "radio/interference_model.h"
#include "radio/simulator.h"

namespace sinrcolor {
namespace {

// --- (a) whole runs: quiet plans vs. the default plan ----------------------

// Forwards every call to an MwNode but keeps Protocol's default plan, so
// the simulator calls begin_slot in every awake slot.
class EverySlot final : public radio::Protocol {
 public:
  explicit EverySlot(core::MwNode& inner) : inner_(inner) {}
  void on_wake(radio::Slot slot) override { inner_.on_wake(slot); }
  std::optional<radio::Message> begin_slot(radio::Slot slot,
                                           common::Rng& rng) override {
    return inner_.begin_slot(slot, rng);
  }
  bool on_receive(radio::Slot slot, const radio::Message& message) override {
    inner_.on_receive(slot, message);
    return true;
  }
  bool decided() const override { return inner_.decided(); }
  std::size_t memory_bytes() const override { return inner_.memory_bytes(); }

 private:
  core::MwNode& inner_;
};

const char* kFaultPlan = R"({
  "schema": "sinrcolor.faults.v1",
  "seed_salt": 3,
  "crashes": [{"node": 5, "slot": 900}],
  "deafness": [{"node": 1, "from": 10, "to": 2000},
               {"node": 12, "from": 0, "to": 400}],
  "drops": [{"from": 0, "probability": 0.2}]
})";

struct Outcome {
  std::string report;    ///< core::to_json(result)
  std::string observed;  ///< core::to_json with the observability section
  std::string jsonl;     ///< the traced event stream
  radio::RunMetrics metrics;
};

Outcome run(const graph::UnitDiskGraph& g, const core::MwRunConfig& cfg,
            bool every_slot, bool faults) {
  core::MwInstance instance(g, cfg);
  std::vector<std::unique_ptr<EverySlot>> wrappers;
  if (every_slot) {
    for (graph::NodeId v = 0; v < g.size(); ++v) {
      wrappers.push_back(std::make_unique<EverySlot>(*instance.nodes()[v]));
      instance.simulator().set_protocol(v, wrappers.back().get());
    }
  }
  std::optional<faults::FaultEngine> engine;
  if (faults) {
    faults::FaultPlan plan;
    std::string error;
    EXPECT_TRUE(faults::FaultPlan::from_string(kFaultPlan, plan, &error))
        << error;
    engine.emplace(plan, cfg.seed);
    engine->install(instance.simulator());
  }

  obs::RunObservation observation(std::size_t{1} << 22);
  instance.attach_observation(&observation);
  const core::MwRunResult result = instance.run();
  EXPECT_EQ(observation.trace.dropped(), 0u);

  Outcome out;
  out.report = core::to_json(result);
  out.observed = core::to_json(result, observation, true);
  obs::TraceMeta meta;
  meta.node_count = g.size();
  meta.seed = cfg.seed;
  meta.recorded = observation.trace.recorded();
  std::ostringstream jsonl;
  obs::write_jsonl(meta, observation.trace.events(), jsonl);
  out.jsonl = jsonl.str();
  out.metrics = result.metrics;
  return out;
}

std::uint64_t awake_node_slots(const radio::RunMetrics& m) {
  return std::accumulate(m.awake_slots.begin(), m.awake_slots.end(),
                         std::uint64_t{0});
}

void expect_identical_runs(const graph::UnitDiskGraph& g,
                           const core::MwRunConfig& cfg, bool faults = false) {
  const Outcome quiet = run(g, cfg, /*every_slot=*/false, faults);
  const Outcome every = run(g, cfg, /*every_slot=*/true, faults);
  EXPECT_EQ(quiet.report, every.report);
  EXPECT_EQ(quiet.observed, every.observed);
  EXPECT_TRUE(quiet.jsonl == every.jsonl) << "traced JSONL differs";
  const radio::RunMetrics& a = quiet.metrics;
  const radio::RunMetrics& b = every.metrics;
  EXPECT_EQ(a.decision_slot, b.decision_slot);
  EXPECT_EQ(a.death_slot, b.death_slot);
  EXPECT_EQ(a.tx_count, b.tx_count);
  EXPECT_EQ(a.awake_slots, b.awake_slots);
  EXPECT_EQ(a.fault_deaf_slots, b.fault_deaf_slots);
  EXPECT_EQ(a.fault_dropped_deliveries, b.fault_dropped_deliveries);
  // The wrapper is stepped in every awake slot; the plain run skips most.
  EXPECT_EQ(b.protocol_steps, awake_node_slots(b));
  EXPECT_LT(2 * a.protocol_steps, b.protocol_steps);
}

graph::UnitDiskGraph scenario_graph(std::uint64_t seed) {
  common::Rng rng(seed);
  return graph::UnitDiskGraph(geometry::uniform_deployment(60, 3.5, rng), 1.0);
}

TEST(QuietPlanRuns, MatchEverySlotOnEveryMediumAndWakeup) {
  const auto g = scenario_graph(91);
  for (const char* medium : {"sinr", "sinr+fading", "graph"}) {
    for (const bool uniform : {false, true}) {
      SCOPED_TRACE(std::string(medium) + (uniform ? " uniform" : " sync"));
      core::MwRunConfig cfg;
      cfg.seed = 17;
      cfg.graph_model = std::string(medium) == "graph";
      if (std::string(medium) == "sinr+fading") {
        cfg.fading.kind = sinr::FadingKind::kLogNormal;
      }
      if (uniform) {
        cfg.wakeup = core::WakeupKind::kUniform;
        cfg.wakeup_window = 500;
      }
      expect_identical_runs(g, cfg);
    }
  }
}

TEST(QuietPlanRuns, MatchEverySlotUnderCrashFailures) {
  const auto g = scenario_graph(92);
  core::MwRunConfig cfg;
  cfg.seed = 23;
  cfg.wakeup = core::WakeupKind::kUniform;
  cfg.wakeup_window = 300;
  cfg.failure_fraction = 0.1;
  cfg.failure_window = 1500;
  expect_identical_runs(g, cfg);
}

TEST(QuietPlanRuns, MatchEverySlotUnderAFaultPlan) {
  // Deafness is queried for every awake listener in every slot, quiet or
  // not, so fault_deaf_slots (compared above) cannot drift.
  const auto g = scenario_graph(93);
  core::MwRunConfig cfg;
  cfg.seed = 29;
  expect_identical_runs(g, cfg, /*faults=*/true);
}

// --- (b) one MwNode: every slot vs. its quiet plans -------------------------

// listen 5 slots, threshold 40, window_0 2, q_s 0.05.
core::MwParams quiet_params() {
  core::MwParams p;
  p.q_leader = 1.0;
  p.q_small = 0.05;
  p.listen_slots = 5;
  p.counter_threshold = 40;
  p.window_zero = 2;
  p.window_positive = 4;
  p.assign_slots = 2;
  p.phi_2rt = 5;
  p.n = 10;
  p.max_degree = 3;
  return p;
}

radio::Message compete(graph::NodeId sender, std::int64_t counter) {
  radio::Message m;
  m.kind = radio::MessageKind::kCompete;
  m.sender = sender;
  m.color_class = 0;
  m.counter = counter;
  return m;
}

radio::Message class_zero_beacon(graph::NodeId leader) {
  radio::Message m;
  m.kind = radio::MessageKind::kColorBeacon;
  m.sender = leader;
  m.color_class = 0;
  return m;
}

radio::Message assign(graph::NodeId leader, graph::NodeId target) {
  radio::Message m;
  m.kind = radio::MessageKind::kColorAssign;
  m.sender = leader;
  m.target = target;
  m.tc = 1;
  return m;
}

radio::Message beacon(graph::NodeId sender, std::int32_t klass) {
  radio::Message m;
  m.kind = radio::MessageKind::kColorBeacon;
  m.sender = sender;
  m.color_class = klass;
  return m;
}

radio::Message join_beacon(graph::NodeId sender) {
  radio::Message m;
  m.kind = radio::MessageKind::kJoinBeacon;
  m.sender = sender;
  return m;
}

radio::Message request(graph::NodeId sender, graph::NodeId leader) {
  radio::Message m;
  m.kind = radio::MessageKind::kRequest;
  m.sender = sender;
  m.target = leader;
  return m;
}

// Drives a node through its quiet plans: inside the plan it draws the
// plan's Bernoulli value on a copy of the stream, keeps the copy when the
// draw fails and calls begin_slot on the untouched stream when it hits. A
// delivery re-reads the plan only when on_receive returns true, as
// radio::Simulator does. (The simulator draws ahead instead of per slot;
// the streams it leaves are the same, which (c) checks.)
struct PlanDriver {
  core::MwNode& node;
  common::Rng rng;
  radio::QuietPlan plan{0};
  std::size_t steps = 0;
  bool stepped = false;  ///< begin_slot ran in the last slot

  std::optional<radio::Message> slot(radio::Slot s) {
    stepped = false;
    if (s < plan.until) {
      common::Rng draw = rng;
      if (!draw.bernoulli(plan.tx_probability)) {
        rng = draw;
        return std::nullopt;
      }
    }
    stepped = true;
    ++steps;
    auto tx = node.begin_slot(s, rng);
    plan = node.quiet_plan(s);
    return tx;
  }
  bool receive(radio::Slot s, const radio::Message& m) {
    const bool changed = node.on_receive(s, m);
    if (changed) plan = node.quiet_plan(s);
    return changed;
  }
};

bool same_message(const std::optional<radio::Message>& a,
                  const std::optional<radio::Message>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->kind == b->kind && a->sender == b->sender &&
         a->target == b->target && a->color_class == b->color_class &&
         a->counter == b->counter && a->tc == b->tc;
}

TEST(QuietPlanNode, TwinThroughQuietPlansMatchesEverySlot) {
  const core::MwParams params = quiet_params();
  constexpr graph::NodeId kId = 3;
  core::MwNode reference(kId, params);
  core::MwNode twin(kId, params);
  common::Rng ref_rng(2024);
  PlanDriver driver{twin, ref_rng};

  // Deliveries, all in slots the node listens in (checked below). Mirrors
  // placed at 0, −5 and −10 for slot 20 make the slot-20 reset land on
  // χ = −13; moving those three competitors far away lets the slot-26
  // reset raise the counter to χ = 0, pulling the threshold slot earlier.
  // Then a class-0 beacon sends the node to R, a grant to A_6, and it
  // competes there to kColored.
  const std::map<radio::Slot, radio::Message> deliveries = {
      {15, compete(8, -5)},   {16, compete(9, -9)},
      {17, compete(10, -13)}, {20, compete(11, 16)},
      {22, compete(8, 100)},  {23, compete(9, 100)},
      {24, compete(10, 100)}, {26, compete(12, -7)},
      {30, class_zero_beacon(1)}, {40, assign(1, kId)},
  };
  reference.on_wake(0);
  twin.on_wake(0);

  bool raised = false;
  std::size_t quiet_deliveries = 0;
  for (radio::Slot s = 0; s < 200; ++s) {
    SCOPED_TRACE(s);
    const auto expected = reference.begin_slot(s, ref_rng);
    const auto got = driver.slot(s);
    ASSERT_TRUE(same_message(expected, got));
    ASSERT_EQ(reference.state(), twin.state());
    if (driver.stepped) {
      ASSERT_EQ(reference.counter(), twin.counter());
    }
    const auto it = deliveries.find(s);
    if (it != deliveries.end()) {
      ASSERT_FALSE(expected.has_value()) << "scripted delivery to a sender";
      if (!driver.stepped) ++quiet_deliveries;
      const std::int64_t before = reference.counter();
      reference.on_receive(s, it->second);
      driver.receive(s, it->second);
      ASSERT_EQ(reference.state(), twin.state());
      ASSERT_EQ(reference.counter(), twin.counter());
      ASSERT_EQ(reference.color_class(), twin.color_class());
      if (s == 20) {
        EXPECT_EQ(reference.counter(), -13);
      }
      if (s == 26) raised = reference.counter() > before;
    }
    // Same stream position after every slot.
    common::Rng a = ref_rng;
    common::Rng b = driver.rng;
    ASSERT_EQ(a(), b());
  }
  EXPECT_TRUE(raised) << "the slot-26 reset did not raise the counter";
  EXPECT_EQ(quiet_deliveries, deliveries.size());
  EXPECT_EQ(reference.state(), core::MwStateKind::kColored);
  EXPECT_EQ(reference.final_color(), twin.final_color());
  EXPECT_LT(driver.steps, 50u);  // most of the 200 slots were quiet
}

TEST(QuietPlanNode, LeaderTwinMatchesEverySlotThroughIdleAndServeSpans) {
  // q_ℓ below 1, so an idle or serving leader skips slots; a serve window
  // of 6 slots leaves quiet slots inside it.
  core::MwParams params = quiet_params();
  params.q_leader = 0.3;
  params.assign_slots = 6;
  constexpr graph::NodeId kId = 3;
  core::MwNode reference(kId, params);
  core::MwNode twin(kId, params);
  common::Rng ref_rng(4242);
  PlanDriver driver{twin, ref_rng};
  reference.on_wake(0);
  twin.on_wake(0);

  // The first request lands in a quiet slot of the idle span, at least five
  // slots into the leadership; the second in a quiet slot of the serve
  // window the first one opens.
  radio::Slot leader_since = -1;
  radio::Slot first = -1;
  radio::Slot second = -1;
  std::size_t assignments = 0;
  for (radio::Slot s = 0; s < 400; ++s) {
    SCOPED_TRACE(s);
    const auto expected = reference.begin_slot(s, ref_rng);
    const auto got = driver.slot(s);
    ASSERT_TRUE(same_message(expected, got));
    ASSERT_EQ(reference.state(), twin.state());
    if (expected.has_value() &&
        expected->kind == radio::MessageKind::kColorAssign) {
      ++assignments;
    }
    if (leader_since < 0 && reference.state() == core::MwStateKind::kLeader) {
      leader_since = s;
    }
    const bool quiet_listener = !expected.has_value() && !driver.stepped;
    if (first < 0 && leader_since >= 0 && s >= leader_since + 5 &&
        quiet_listener) {
      ASSERT_EQ(driver.plan.until, radio::kNeverSlot) << "not idle";
      first = s;
      reference.on_receive(s, request(8, kId));
      EXPECT_TRUE(driver.receive(s, request(8, kId)));
      EXPECT_EQ(driver.plan.until, s + 1) << "the window opens next slot";
    } else if (first >= 0 && second < 0 && s > first + 1 && quiet_listener) {
      ASSERT_LT(s, first + 1 + params.assign_slots) << "outside the window";
      const radio::QuietPlan before = driver.plan;
      second = s;
      reference.on_receive(s, request(9, kId));
      EXPECT_FALSE(driver.receive(s, request(9, kId)));
      EXPECT_EQ(twin.quiet_plan(s).until, before.until);
    }
    ASSERT_TRUE(ref_rng == driver.rng) << "streams diverged";
  }
  ASSERT_GE(leader_since, 0);
  ASSERT_GE(second, 0);
  EXPECT_GT(assignments, 0u);
  EXPECT_EQ(reference.assigned_cluster_colors(), 2);
  EXPECT_EQ(twin.assigned_cluster_colors(), 2);
  EXPECT_LT(driver.steps, 250u);  // the leader skipped most of its slots
}

// --- (b) deliveries on_receive reports as no change -------------------------

// Steps `node` every slot from `from` through `to` − 1.
void drive(core::MwNode& node, common::Rng& rng, radio::Slot from,
           radio::Slot to) {
  for (radio::Slot s = from; s < to; ++s) node.begin_slot(s, rng);
}

// The node last ran begin_slot(last). Delivers ignored[i] in slot
// last + 1 + i, inside the plan it returned then, and checks that each
// returns false and leaves the plan's end and probability and decided()
// as they were.
void expect_ignored(core::MwNode& node, radio::Slot last,
                    const std::vector<radio::Message>& ignored) {
  const radio::QuietPlan plan = node.quiet_plan(last);
  const bool decided = node.decided();
  const core::MwStateKind state = node.state();
  radio::Slot at = last;
  for (const radio::Message& m : ignored) {
    ++at;
    SCOPED_TRACE(m.to_string());
    ASSERT_LT(at, plan.until) << "not a quiet slot";
    EXPECT_FALSE(node.on_receive(at, m));
    const radio::QuietPlan now = node.quiet_plan(at);
    EXPECT_EQ(now.until, plan.until);
    EXPECT_EQ(now.tx_probability, plan.tx_probability);
    EXPECT_EQ(node.decided(), decided);
    EXPECT_EQ(node.state(), state);
  }
}

// quiet_params with a serve window long enough to hold quiet slots.
core::MwParams leader_params() {
  core::MwParams p = quiet_params();
  p.assign_slots = 8;
  return p;
}

constexpr graph::NodeId kNode = 3;

// A fresh node driven to leadership: it hears nothing, so its counter
// reaches the threshold at slot listen_slots + threshold − 1.
radio::Slot make_leader(core::MwNode& node, common::Rng& rng) {
  node.on_wake(0);
  const radio::Slot elected = 5 + 40 - 1;
  drive(node, rng, 0, elected + 1);
  EXPECT_EQ(node.state(), core::MwStateKind::kLeader);
  return elected;
}

TEST(QuietPlanNode, IgnoredDeliveryKeepsPlanWhileListening) {
  const core::MwParams params = quiet_params();
  core::MwNode node(kNode, params);
  common::Rng rng(1);
  node.on_wake(0);
  drive(node, rng, 0, 1);
  ASSERT_EQ(node.state(), core::MwStateKind::kListening);
  // A listening node only records M_A; other classes and kinds pass by.
  expect_ignored(node, 0,
                 {compete(8, 3), beacon(8, 2), request(8, 1), join_beacon(8)});
}

TEST(QuietPlanNode, IgnoredDeliveryKeepsPlanWhileCompeting) {
  const core::MwParams params = quiet_params();
  core::MwNode node(kNode, params);
  common::Rng rng(2);
  node.on_wake(0);
  drive(node, rng, 0, 8);
  ASSERT_EQ(node.state(), core::MwStateKind::kCompeting);
  // An M_A outside the window is recorded but resets nothing.
  expect_ignored(node, 7,
                 {compete(8, 30), compete(9, -20), beacon(8, 1),
                  request(8, 1)});
}

TEST(QuietPlanNode, IgnoredDeliveryKeepsPlanWhileRequesting) {
  const core::MwParams params = quiet_params();
  core::MwNode node(kNode, params);
  common::Rng rng(3);
  node.on_wake(0);
  drive(node, rng, 0, 8);
  ASSERT_TRUE(node.on_receive(8, class_zero_beacon(1)));
  drive(node, rng, 9, 10);
  ASSERT_EQ(node.state(), core::MwStateKind::kRequesting);
  // Only the own leader's grant addressed to this node counts.
  expect_ignored(node, 9,
                 {class_zero_beacon(1), assign(1, 7), assign(2, kNode),
                  compete(8, 0), request(8, 1)});
}

TEST(QuietPlanNode, IgnoredDeliveryKeepsPlanOfAnIdleLeader) {
  const core::MwParams params = leader_params();
  core::MwNode node(kNode, params);
  common::Rng rng(4);
  const radio::Slot elected = make_leader(node, rng);
  drive(node, rng, elected + 1, elected + 2);
  ASSERT_EQ(node.quiet_plan(elected + 1).until, radio::kNeverSlot);
  // A request for another leader, and any other kind, leaves it idle.
  expect_ignored(node, elected + 1,
                 {request(8, 1), class_zero_beacon(1), compete(8, 0),
                  assign(1, kNode)});
}

TEST(QuietPlanNode, IgnoredDeliveryKeepsPlanOfAServingLeader) {
  const core::MwParams params = leader_params();
  core::MwNode node(kNode, params);
  common::Rng rng(5);
  const radio::Slot elected = make_leader(node, rng);
  // The request wakes the idle leader; its window opens in the next slot.
  ASSERT_TRUE(node.on_receive(elected, request(8, kNode)));
  ASSERT_EQ(node.quiet_plan(elected).until, elected + 1);
  drive(node, rng, elected + 1, elected + 2);
  ASSERT_EQ(node.quiet_plan(elected + 1).until,
            elected + 1 + params.assign_slots - 1);
  // A new request waits for the window to end; the served node's repeat
  // and a request for another leader change nothing.
  expect_ignored(node, elected + 1,
                 {request(9, kNode), request(8, kNode), request(10, 1),
                  class_zero_beacon(1)});
}

TEST(QuietPlanNode, IgnoredDeliveryKeepsPlanWhileColored) {
  const core::MwParams params = quiet_params();
  core::MwNode node(kNode, params);
  common::Rng rng(6);
  node.on_wake(0);
  drive(node, rng, 0, 8);
  ASSERT_TRUE(node.on_receive(8, class_zero_beacon(1)));
  drive(node, rng, 9, 10);
  ASSERT_TRUE(node.on_receive(10, assign(1, kNode)));
  radio::Slot s = 11;
  while (node.state() != core::MwStateKind::kColored) {
    ASSERT_LT(s, 200);
    drive(node, rng, s, s + 1);
    ++s;
  }
  drive(node, rng, s, s + 1);
  // A colored node is final and ignores all traffic, its own color too.
  expect_ignored(node, s,
                 {beacon(8, node.color_class()), compete(8, 0),
                  class_zero_beacon(1), assign(1, kNode), request(8, kNode)});
}

// --- (c) the simulator side of the contract ---------------------------------

// Transmits with probability 0.3 in every slot; with `skip` it promises four
// quiet slots after each call (it keeps no state a slot could change).
// Records, per begin_slot call, the next value of its stream and whether
// the call fell inside the plan it last returned.
class Drawer final : public radio::Protocol {
 public:
  Drawer(graph::NodeId id, bool skip) : id_(id), skip_(skip) {}
  void on_wake(radio::Slot) override {}
  std::optional<radio::Message> begin_slot(radio::Slot slot,
                                           common::Rng& rng) override {
    common::Rng peek = rng;
    calls[slot] = peek();
    inside_plan[slot] =
        last_call_ >= 0 && slot < quiet_plan(last_call_).until;
    last_call_ = slot;
    if (!rng.bernoulli(kP)) return std::nullopt;
    tx_slots.push_back(slot);
    return compete(id_, slot);
  }
  bool on_receive(radio::Slot slot, const radio::Message&) override {
    last_call_ = slot;
    return true;
  }
  radio::QuietPlan quiet_plan(radio::Slot slot) const override {
    if (!skip_) return Protocol::quiet_plan(slot);
    return {slot + 5, kP};
  }
  bool decided() const override { return false; }

  std::map<radio::Slot, std::uint64_t> calls;
  std::map<radio::Slot, bool> inside_plan;
  std::vector<radio::Slot> tx_slots;

 private:
  static constexpr double kP = 0.3;
  graph::NodeId id_;
  bool skip_;
  radio::Slot last_call_ = -1;  ///< last begin_slot or delivery; -1 = none
};

TEST(QuietPlanSimulator, SkippedSlotsCallNothingAndKeepTheStream) {
  common::Rng rng(5);
  const graph::UnitDiskGraph g(geometry::uniform_deployment(12, 2.0, rng),
                               1.0);
  const radio::WakeupSchedule wakeups = {0, 0, 3, 0, 7, 0, 0, 11, 0, 0, 0, 2};
  radio::Simulator skip_sim(
      g, std::make_unique<radio::GraphInterferenceModel>(g), wakeups, 99);
  radio::Simulator every_sim(
      g, std::make_unique<radio::GraphInterferenceModel>(g), wakeups, 99);
  std::vector<Drawer*> skipping;
  std::vector<Drawer*> every;
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    auto a = std::make_unique<Drawer>(v, true);
    auto b = std::make_unique<Drawer>(v, false);
    skipping.push_back(a.get());
    every.push_back(b.get());
    skip_sim.set_protocol(v, std::move(a));
    every_sim.set_protocol(v, std::move(b));
  }
  // Node 2 wakes in slot 3 and dies in slot 9, inside a quiet span.
  skip_sim.set_failure_slot(2, 9);
  every_sim.set_failure_slot(2, 9);
  const radio::RunMetrics quiet = skip_sim.run(60);
  const radio::RunMetrics full = every_sim.run(60);

  EXPECT_EQ(quiet.tx_count, full.tx_count);
  EXPECT_EQ(quiet.awake_slots, full.awake_slots);
  EXPECT_EQ(quiet.death_slot, full.death_slot);
  EXPECT_EQ(quiet.death_slot[2], 9);
  EXPECT_EQ(quiet.total_deliveries, full.total_deliveries);
  EXPECT_EQ(full.protocol_steps, awake_node_slots(full));
  EXPECT_LT(quiet.protocol_steps, full.protocol_steps);
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    SCOPED_TRACE(v);
    const Drawer& s = *skipping[v];
    const Drawer& e = *every[v];
    EXPECT_EQ(s.tx_slots, e.tx_slots);
    for (const auto& [slot, next] : s.calls) {
      // A call inside the plan happens only when the simulator's draw hit,
      // and then the node transmits.
      if (s.inside_plan.at(slot)) {
        EXPECT_TRUE(std::find(s.tx_slots.begin(), s.tx_slots.end(), slot) !=
                    s.tx_slots.end())
            << "begin_slot ran in skipped slot " << slot;
      }
      // The stream stands where the every-slot twin's does.
      ASSERT_EQ(e.calls.count(slot), 1u);
      EXPECT_EQ(next, e.calls.at(slot)) << "stream diverged at slot " << slot;
    }
    EXPECT_LT(s.calls.size(), e.calls.size());
  }
  // Neither run calls node 2 from its death on.
  EXPECT_LT(skipping[2]->calls.rbegin()->first, 9);
  EXPECT_LT(every[2]->calls.rbegin()->first, 9);
}

// What a scripted delivery asks its receiver to do (Message::counter), with
// the argument in Message::tc.
enum Command : std::int64_t {
  kKeep,         ///< nothing: on_receive returns false
  kEndIn,        ///< the plan ends tc slots after the delivery
  kProbability,  ///< the coin's p becomes tc / 1000
};

radio::Message command(Command c, std::int32_t arg = 0) {
  radio::Message m;
  m.kind = radio::MessageKind::kRequest;
  m.sender = 0;
  m.target = 1;
  m.counter = c;
  m.tc = arg;
  return m;
}

// Node 0 of a scripted pair: sends its script (slot → message) and nothing
// else, and with `skip` sleeps through to its next scripted slot.
class ScriptedSender final : public radio::Protocol {
 public:
  ScriptedSender(std::map<radio::Slot, radio::Message> script, bool skip)
      : script_(std::move(script)), skip_(skip) {}
  void on_wake(radio::Slot) override {}
  std::optional<radio::Message> begin_slot(radio::Slot slot,
                                           common::Rng&) override {
    const auto it = script_.find(slot);
    if (it == script_.end()) return std::nullopt;
    return it->second;
  }
  bool on_receive(radio::Slot, const radio::Message&) override { return true; }
  radio::QuietPlan quiet_plan(radio::Slot slot) const override {
    if (!skip_) return Protocol::quiet_plan(slot);
    const auto next = script_.upper_bound(slot);
    return {next == script_.end() ? radio::kNeverSlot : next->first};
  }
  bool decided() const override { return false; }

 private:
  std::map<radio::Slot, radio::Message> script_;
  bool skip_;
};

// Node 1: draws its coin in every slot and never transmits, so every
// command reaches it. With `skip` its plan is {until_, p_}: until_ is
// kNeverSlot from its first call on, except after kEndIn, and falls back
// in the slot that command names.
// Records its stream at every begin_slot, the slots its coin hit, and the
// calls that were neither a hit nor the end of its plan.
class ScriptedReceiver final : public radio::Protocol {
 public:
  explicit ScriptedReceiver(bool skip) : skip_(skip) {}
  void on_wake(radio::Slot) override {}
  std::optional<radio::Message> begin_slot(radio::Slot slot,
                                           common::Rng& rng) override {
    const bool plan_end = slot >= until_;
    if (plan_end) until_ = radio::kNeverSlot;
    streams.emplace(slot, rng);
    const bool hit = rng.bernoulli(p_);
    if (hit) hits.push_back(slot);
    if (!hit && !plan_end) needless.push_back(slot);
    return std::nullopt;
  }
  bool on_receive(radio::Slot slot, const radio::Message& m) override {
    deliveries.push_back(slot);
    switch (m.counter) {
      case kKeep:
        return false;
      case kEndIn:
        until_ = slot + m.tc;
        return true;
      case kProbability:
        p_ = static_cast<double>(m.tc) / 1000.0;
        return true;
      default:
        return true;
    }
  }
  radio::QuietPlan quiet_plan(radio::Slot slot) const override {
    if (!skip_) return Protocol::quiet_plan(slot);
    return {until_, p_};
  }
  bool decided() const override { return false; }

  std::map<radio::Slot, common::Rng> streams;  ///< stream before each call
  std::vector<radio::Slot> hits;
  std::vector<radio::Slot> deliveries;
  std::vector<radio::Slot> needless;

 private:
  bool skip_;
  radio::Slot until_ = 0;  ///< the first call, in slot 0, ends a plan
  double p_ = 0.02;
};

struct ScriptedRun {
  radio::RunMetrics metrics;
  std::unique_ptr<ScriptedReceiver> receiver;
};

ScriptedRun run_scripted(const std::map<radio::Slot, radio::Message>& script,
                         bool skip, radio::Slot slots) {
  const graph::UnitDiskGraph g(
      geometry::Deployment{{{0.0, 0.0}, {0.5, 0.0}}, 1.0}, 1.0);
  radio::Simulator sim(g, std::make_unique<radio::GraphInterferenceModel>(g),
                       {0, 0}, 2718);
  ScriptedRun out;
  out.receiver = std::make_unique<ScriptedReceiver>(skip);
  sim.set_protocol(0, std::make_unique<ScriptedSender>(script, skip));
  sim.set_protocol(1, out.receiver.get());
  out.metrics = sim.run(slots);
  return out;
}

// The first slot after `slot` in which `hits` holds a hit, or −1.
radio::Slot next_hit(const std::vector<radio::Slot>& hits, radio::Slot slot) {
  const auto it = std::upper_bound(hits.begin(), hits.end(), slot);
  return it == hits.end() ? -1 : *it;
}

// Whether the coin of `slot` hits at p, read from the every-slot run's
// stream before that slot's draw.
bool hits_at(const ScriptedReceiver& every, radio::Slot slot, double p) {
  common::Rng rng = every.streams.at(slot);
  return rng.bernoulli(p);
}

TEST(QuietPlanSimulator, DeliveriesThatMoveAPlanStepDrawnCoinsBack) {
  const std::map<radio::Slot, radio::Message> script = {
      {20, command(kKeep)},               // false: the plan stands
      {40, command(kEndIn, 6)},           // ends at 46
      {43, command(kEndIn, 30)},          // extends it to 73
      {100, command(kEndIn, 3)},          // ends at 103, before the next hit
      {150, command(kProbability, 250)},  // 0.02 → 0.25
      {200, command(kProbability, 0)},    // no coin at all
      {230, command(kProbability, 1000)}, // a hit every slot
      {260, command(kProbability, 20)},   // back to 0.02
      {300, command(kEndIn, 1)},          // ends in the next slot
      {330, command(kKeep)},
  };
  constexpr radio::Slot kSlots = 400;
  const ScriptedRun quiet = run_scripted(script, /*skip=*/true, kSlots);
  const ScriptedRun full = run_scripted(script, /*skip=*/false, kSlots);
  const ScriptedReceiver& q = *quiet.receiver;
  const ScriptedReceiver& e = *full.receiver;

  // The script reached the receiver in both runs, in every scripted slot.
  std::vector<radio::Slot> scripted;
  for (const auto& [slot, m] : script) scripted.push_back(slot);
  ASSERT_EQ(e.deliveries, scripted);
  ASSERT_EQ(q.deliveries, scripted);

  // Each delivery takes the path it is named for (read off the every-slot
  // run, whose coins are the ones the simulator drew ahead).
  // 43: no hit in 44..45, so the coins were drawn to the old end, 46.
  EXPECT_FALSE(hits_at(e, 44, 0.02) || hits_at(e, 45, 0.02));
  // 100: the drawn-ahead hit lies past the new end, 103.
  EXPECT_GT(next_hit(e.hits, 100), 103);
  // 150 and 200: coins were drawn ahead at the old p, so the p change
  // walks them back.
  EXPECT_FALSE(hits_at(e, 151, 0.02));
  EXPECT_FALSE(hits_at(e, 201, 0.25));

  EXPECT_EQ(q.hits, e.hits);
  // A plan the simulator kept, extended or cut short still calls the node
  // only on a hit or at the plan's end.
  EXPECT_TRUE(q.needless.empty()) << "first needless call in slot "
                                  << q.needless.front();
  for (const auto& [slot, rng] : q.streams) {
    SCOPED_TRACE(slot);
    ASSERT_EQ(e.streams.count(slot), 1u);
    EXPECT_TRUE(rng == e.streams.at(slot)) << "stream diverged";
  }
  EXPECT_EQ(quiet.metrics.tx_count, full.metrics.tx_count);
  EXPECT_EQ(quiet.metrics.total_deliveries, full.metrics.total_deliveries);
  EXPECT_EQ(full.metrics.protocol_steps, 2u * kSlots);
  EXPECT_LT(4 * quiet.metrics.protocol_steps, full.metrics.protocol_steps);
}

}  // namespace
}  // namespace sinrcolor
