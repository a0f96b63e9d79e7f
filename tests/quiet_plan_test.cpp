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
//      quiet plans, with deliveries landing inside quiet spans;
//  (c) a scripted protocol whose plan skips slots, inside the simulator.
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
  void on_receive(radio::Slot slot, const radio::Message& message) override {
    inner_.on_receive(slot, message);
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

// Drives a node the way radio::Simulator does: inside the node's quiet plan
// it draws the plan's Bernoulli value on a copy of the stream, keeps the
// copy when the draw fails and calls begin_slot on the untouched stream
// when it hits.
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
  void receive(radio::Slot s, const radio::Message& m) {
    node.on_receive(s, m);
    plan = node.quiet_plan(s);
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
  void on_receive(radio::Slot slot, const radio::Message&) override {
    last_call_ = slot;
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

}  // namespace
}  // namespace sinrcolor
