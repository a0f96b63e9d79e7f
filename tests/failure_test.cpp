// Crash-stop failure injection: simulator semantics, energy accounting, and
// the protocol's behaviour under targeted node deaths.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "graph/coloring.h"
#include "radio/interference_model.h"
#include "radio/simulator.h"

namespace sinrcolor {
namespace {

sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
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

TEST(FailureInjection, DeadNodeStopsTransmitting) {
  // Node 0 broadcasts every slot, node 1 listens. Killing 0 at slot 0 means
  // node 1 never hears anything and stalls.
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  sim.set_failure_slot(0, 0);
  const auto metrics = sim.run(50);
  EXPECT_EQ(metrics.failed_nodes, 1u);
  EXPECT_EQ(metrics.stalled_nodes, 1u);
  EXPECT_FALSE(metrics.all_decided);
  EXPECT_EQ(metrics.total_transmissions, 0u);
  EXPECT_EQ(metrics.tx_count[0], 0u);
}

TEST(FailureInjection, LateFailureIsHarmless) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ChattyProtocol>(1));
  // Both transmit every slot and thus never hear each other (half-duplex).
  // Killing node 1 at slot 3 stops its radio (exactly 3 transmissions); the
  // dead node is not "stalled", while node 0 keeps broadcasting into the
  // void and is.
  sim.set_failure_slot(1, 3);
  const auto metrics = sim.run(20);
  EXPECT_EQ(metrics.failed_nodes, 1u);
  // Node 0 keeps transmitting into the void and never decides: stalled.
  EXPECT_EQ(metrics.stalled_nodes, 1u);
  EXPECT_EQ(metrics.tx_count[1], 3u);  // slots 0..2 only
}

TEST(FailureInjection, DeadDecidedNodeDoesNotCountAsStalled) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  sim.set_failure_slot(1, 5);  // listener decides at slot 0, dies later
  const auto metrics = sim.run(50);
  EXPECT_EQ(metrics.decision_slot[1], 0);
  EXPECT_EQ(metrics.failed_nodes, 1u);
  EXPECT_EQ(metrics.stalled_nodes, 1u);  // node 0 never hears anyone
  EXPECT_EQ(metrics.decision_slot[0], -1);
}

TEST(EnergyModel, AccountsTxAndListenSlots) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  // The listener decides at slot 0 but the chatty node never hears anyone
  // (it always transmits), so the run exhausts all 50 slots.
  const auto metrics = sim.run(50);
  EXPECT_EQ(metrics.slots_executed, 50);
  EXPECT_EQ(metrics.tx_count[0], 50u);
  EXPECT_EQ(metrics.tx_count[1], 0u);
  EXPECT_EQ(metrics.awake_slots[0], 50u);
  EXPECT_EQ(metrics.awake_slots[1], 50u);

  radio::EnergyModel energy;  // tx 1.8, listen 1.0
  EXPECT_DOUBLE_EQ(energy.node_energy(metrics, 0), 50.0 * 1.8);
  EXPECT_DOUBLE_EQ(energy.node_energy(metrics, 1), 50.0);
  EXPECT_DOUBLE_EQ(energy.total_energy(metrics), 50.0 * 2.8);
  EXPECT_DOUBLE_EQ(energy.max_node_energy(metrics), 90.0);
}

TEST(FailureProtocol, MemberSelfPromotesIfLeaderDiesBeforeContact) {
  // Adjacent pair: kill the winner ONE slot after its election — before the
  // loser ever hears a beacon. The loser keeps competing, reaches the
  // threshold and becomes a leader itself: the protocol self-heals, and the
  // only "conflict" is with the corpse's color, which no live radio uses.
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 5;
  const auto clean = core::run_mw_coloring(g, cfg);
  ASSERT_TRUE(clean.metrics.all_decided);
  ASSERT_EQ(clean.leaders.size(), 1u);
  const graph::NodeId leader = clean.leaders.front();
  const graph::NodeId member = leader == 0 ? 1 : 0;
  const radio::Slot election = clean.metrics.decision_slot[leader];

  core::MwInstance instance(g, cfg);  // same seed ⇒ identical prefix
  instance.simulator().set_failure_slot(leader, election + 1);
  const auto result = instance.run();
  EXPECT_EQ(result.metrics.failed_nodes, 1u);
  EXPECT_EQ(result.metrics.stalled_nodes, 0u);
  EXPECT_EQ(result.coloring.color[member], 0);  // became a leader itself
}

TEST(FailureProtocol, OrphanedRequesterStalls) {
  // The genuine stall: the member must already be in state R (it has
  // committed to the leader) when the leader dies. Deterministic replay:
  // probe the exact slot the member enters kRequesting, then rerun with the
  // leader killed right after. The member can never leave R (only its own
  // leader's assignment releases it) ⇒ a stalled survivor, but no wrong
  // color ever appears.
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 5;
  const auto clean = core::run_mw_coloring(g, cfg);
  ASSERT_TRUE(clean.metrics.all_decided);
  const graph::NodeId leader = clean.leaders.front();
  const graph::NodeId member = leader == 0 ? 1 : 0;

  radio::Slot request_entry = -1;
  {
    core::MwInstance probe(g, cfg);
    const auto& nodes = probe.nodes();
    probe.simulator().add_observer(
        [&](radio::Slot slot, std::span<const radio::TxRecord>) {
          if (request_entry < 0 &&
              nodes[member]->state() == core::MwStateKind::kRequesting) {
            request_entry = slot;
          }
        });
    (void)probe.run();
    ASSERT_GE(request_entry, 0);
  }

  core::MwInstance instance(g, cfg);
  instance.simulator().set_failure_slot(leader, request_entry + 1);
  const auto result = instance.run();
  EXPECT_EQ(result.metrics.failed_nodes, 1u);
  EXPECT_EQ(result.metrics.stalled_nodes, 1u);
  EXPECT_FALSE(result.metrics.all_decided);
  EXPECT_EQ(result.coloring.color[member], graph::kUncolored);
  EXPECT_EQ(result.independence_violations, 0u);
}

TEST(FailureProtocol, RandomFailuresNeverBreakSafety) {
  common::Rng rng(123);
  graph::UnitDiskGraph g(geometry::uniform_deployment(80, 3.5, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 9;
  cfg.failure_fraction = 0.15;
  cfg.failure_window = 20000;
  const auto result = core::run_mw_coloring(g, cfg);
  EXPECT_GT(result.metrics.failed_nodes, 0u);
  EXPECT_EQ(result.independence_violations, 0u);
  // Pairwise validity among decided nodes only.
  for (const auto& v : graph::find_coloring_violations(g, result.coloring)) {
    EXPECT_EQ(v.u, v.v) << v.to_string();  // only "uncolored" entries allowed
  }
}

}  // namespace
}  // namespace sinrcolor
