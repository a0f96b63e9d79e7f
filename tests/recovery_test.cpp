// Self-healing layer (src/robust) + the simulator's join-slot semantics:
// leader failover instead of permanent stalls, dynamic joins (including the
// degenerate join-at-0 and the symmetric adjacent-joiner cases), and the
// die-then-revive accounting rules.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "graph/coloring.h"
#include "radio/interference_model.h"
#include "radio/simulator.h"
#include "robust/recovery_protocol.h"
#include "robust/self_healing_node.h"

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

TEST(JoinSlots, JoinAtSlotZeroEqualsNormalWakeup) {
  // A join slot of 0 under simultaneous wakeup is indistinguishable from the
  // scheduled wake it suppresses: same decisions, same colors, same slots.
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 5;
  const auto clean = core::run_mw_coloring(g, cfg);
  ASSERT_TRUE(clean.metrics.all_decided);

  core::MwInstance instance(g, cfg);
  instance.simulator().set_join_slot(1, 0);
  const auto joined = instance.run();
  EXPECT_TRUE(joined.metrics.all_decided);
  EXPECT_EQ(joined.metrics.joined_nodes, 1u);
  EXPECT_EQ(joined.coloring.color, clean.coloring.color);
  EXPECT_EQ(joined.metrics.decision_slot, clean.metrics.decision_slot);
}

TEST(JoinSlots, JoinSlotSuppressesScheduledWake) {
  // A join-only node ignores the wake-up schedule entirely: it sleeps (and
  // spends no energy) until its join slot.
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  sim.set_join_slot(1, 20);
  const auto metrics = sim.run(50);
  EXPECT_EQ(metrics.joined_nodes, 1u);
  EXPECT_EQ(metrics.decision_slot[1], 20);  // first slot it could listen
  EXPECT_EQ(metrics.awake_slots[1], 30u);   // slots 20..49
}

TEST(JoinSlots, RevivedNodeIsNotDoubleCounted) {
  // Die at slot 0, rejoin at slot 10: the node leaves failed_nodes again,
  // death_slot resets, and the neighbor only ever hears the revived radio.
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  radio::Simulator sim(g,
                       std::make_unique<radio::SinrInterferenceModel>(
                           g, phys_for_radius(1.0)),
                       radio::simultaneous_wakeup(2), 1);
  sim.set_protocol(0, std::make_unique<ChattyProtocol>(0));
  sim.set_protocol(1, std::make_unique<ListenerProtocol>());
  sim.set_failure_slot(0, 0);
  sim.set_join_slot(0, 10);
  const auto metrics = sim.run(50);
  EXPECT_EQ(metrics.failed_nodes, 0u);  // the revival cancels the death
  EXPECT_EQ(metrics.joined_nodes, 1u);
  EXPECT_EQ(metrics.death_slot[0], -1);
  EXPECT_EQ(metrics.tx_count[0], 40u);      // slots 10..49
  EXPECT_EQ(metrics.decision_slot[1], 10);  // heard nothing before the revival
  // The revived chatty node itself never hears anyone: a live undecided
  // survivor, counted exactly once.
  EXPECT_EQ(metrics.stalled_nodes, 1u);
  EXPECT_EQ(metrics.decision_slot[0], -1);
}

TEST(Recovery, OrphanedRequesterFailsOverInsteadOfStalling) {
  // The X14 stall scenario under the self-healing layer: probe the slot the
  // member enters R, kill its leader right after, and expect the failure
  // detector to fire and the member to re-elect (here: self-promote) rather
  // than wait forever. Mirrors failure_test's OrphanedRequesterStalls.
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

  robust::RecoveryInstance instance(g, cfg);  // same seed ⇒ identical prefix
  instance.simulator().set_failure_slot(leader, request_entry + 1);
  const auto result = instance.run();
  EXPECT_EQ(result.metrics.failed_nodes, 1u);
  EXPECT_EQ(result.metrics.stalled_nodes, 0u);
  EXPECT_TRUE(result.coloring_valid);  // judged on the live nodes
  EXPECT_NE(result.coloring.color[member], graph::kUncolored);
  EXPECT_GE(instance.nodes()[member]->failovers(), 1u);
  EXPECT_EQ(result.recovery.recovered_nodes, 1u);
  EXPECT_GT(result.recovery.max_failover_latency, 0);
}

TEST(Recovery, SimultaneousAdjacentJoinersResolveTheirCollision) {
  // Four nodes on a line at spacing 0.5; the middle two arrive together into
  // the converged network. Both hear the same established palette, pick the
  // same free color, and must break the tie themselves (lower id keeps it).
  graph::UnitDiskGraph g(geometry::line_deployment(4, 0.5), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 11;
  cfg.recovery.enabled = true;
  const auto params = core::derive_mw_params(g, cfg);
  // A long confirmation window so the collision is heard w.h.p. before both
  // joiners settle (the default is tuned for throughput, not for this test).
  cfg.recovery.join_confirm_slots =
      4 * static_cast<radio::Slot>(params.window_positive);

  radio::Simulator sim(g, core::make_interference_model(g, cfg),
                       core::make_wakeup_schedule(4, cfg.wakeup,
                                                  cfg.wakeup_window, cfg.seed),
                       cfg.seed);
  std::vector<robust::SelfHealingNode*> nodes;
  for (graph::NodeId v = 0; v < 4; ++v) {
    const bool joiner = v == 1 || v == 2;
    auto node = std::make_unique<robust::SelfHealingNode>(v, params,
                                                          cfg.recovery, joiner);
    nodes.push_back(node.get());
    sim.set_protocol(v, std::move(node));
  }
  // Nodes 0 and 3 (mutually out of range) elect themselves unopposed right
  // after listen + threshold; join well after that.
  const radio::Slot join_at = static_cast<radio::Slot>(params.listen_slots) +
                              static_cast<radio::Slot>(params.counter_threshold) +
                              10;
  sim.set_join_slot(1, join_at);
  sim.set_join_slot(2, join_at);
  const auto metrics = sim.run(
      join_at + 40 * static_cast<radio::Slot>(params.window_positive) + 1000);

  ASSERT_TRUE(metrics.all_decided);
  EXPECT_EQ(metrics.joined_nodes, 2u);
  EXPECT_FALSE(nodes[1]->fell_back_to_full_protocol());
  EXPECT_FALSE(nodes[2]->fell_back_to_full_protocol());
  // They heard the same palette ⇒ picked the same color ⇒ one had to repair.
  EXPECT_GE(nodes[1]->conflicts_repaired() + nodes[2]->conflicts_repaired(),
            1u);
  graph::Coloring coloring;
  coloring.color.resize(4);
  for (graph::NodeId v = 0; v < 4; ++v) {
    coloring.color[v] = nodes[v]->final_color();
    ASSERT_NE(coloring.color[v], graph::kUncolored);
  }
  EXPECT_NE(coloring.color[1], coloring.color[2]);
  EXPECT_TRUE(graph::find_coloring_violations(g, coloring).empty());
}

TEST(Recovery, SimultaneousLeaderAndMemberFailureStillConverges) {
  // Three mutually adjacent nodes; the leader AND one member die in the same
  // slot while the third is mid-request. The survivor must detect the
  // silence, re-elect and color itself. Every state mutation in the robust
  // layer goes through transition_to() against its transition table, so an
  // illegal transition anywhere in this scenario aborts the test.
  graph::UnitDiskGraph g(geometry::line_deployment(3, 0.4), 1.0);
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
          for (graph::NodeId v = 0; v < 3; ++v) {
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
    ASSERT_EQ(clean.leaders.size(), 1u);  // a triangle has one leader
    leader = clean.leaders.front();
    ASSERT_GE(request_entry, 0);
    ASSERT_NE(member, leader);
  }
  const graph::NodeId third = 3 - leader - member;

  robust::RecoveryInstance instance(g, cfg);  // same seed ⇒ identical prefix
  instance.simulator().set_failure_slot(leader, request_entry + 1);
  instance.simulator().set_failure_slot(third, request_entry + 1);
  const auto result = instance.run();
  EXPECT_EQ(result.metrics.failed_nodes, 2u);
  EXPECT_EQ(result.metrics.stalled_nodes, 0u);
  EXPECT_TRUE(result.coloring_valid);
  EXPECT_NE(result.coloring.color[member], graph::kUncolored);
  EXPECT_GE(instance.nodes()[member]->failovers(), 1u);
}

TEST(Recovery, FailureMidJoinPhaseLeavesSurvivorsConsistent) {
  // A joiner dies in the middle of its join automaton (while confirming its
  // tentative color). The join machinery must wind down through legal
  // transitions only (transition_to() aborts otherwise) and the survivors'
  // coloring stays valid and stall-free.
  graph::UnitDiskGraph g(geometry::line_deployment(3, 0.6), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 11;
  cfg.recovery.enabled = true;
  const auto params = core::derive_mw_params(g, cfg);
  const auto wp = static_cast<radio::Slot>(params.window_positive);

  radio::Simulator sim(g, core::make_interference_model(g, cfg),
                       core::make_wakeup_schedule(3, cfg.wakeup,
                                                  cfg.wakeup_window, cfg.seed),
                       cfg.seed);
  std::vector<robust::SelfHealingNode*> nodes;
  for (graph::NodeId v = 0; v < 3; ++v) {
    auto node = std::make_unique<robust::SelfHealingNode>(
        v, params, cfg.recovery, /*joiner=*/v == 1);
    nodes.push_back(node.get());
    sim.set_protocol(v, std::move(node));
  }
  // The ends (mutually out of range) self-elect right after listen +
  // threshold; the middle node joins the converged network and dies while
  // beaconing its tentative color (listen phase of the join is 2·window⁺ by
  // default, so listen + a few slots lands inside the confirm phase).
  const radio::Slot join_at = static_cast<radio::Slot>(params.listen_slots) +
                              static_cast<radio::Slot>(params.counter_threshold) +
                              10;
  sim.set_join_slot(1, join_at);
  sim.set_failure_slot(1, join_at + 2 * wp + 3);
  const auto metrics = sim.run(join_at + 8 * wp + 1000);

  EXPECT_EQ(metrics.joined_nodes, 1u);
  EXPECT_EQ(metrics.failed_nodes, 1u);
  EXPECT_EQ(metrics.stalled_nodes, 0u);  // both survivors decided
  // Both survivors hold colors; every edge of this line involves the dead
  // joiner, so the live coloring is trivially conflict-free.
  EXPECT_NE(nodes[0]->final_color(), graph::kUncolored);
  EXPECT_NE(nodes[2]->final_color(), graph::kUncolored);
}

TEST(Recovery, ExhaustedFailoversDegradeToProvisionalColor) {
  // Graceful degradation: with zero failover attempts allowed, a requester
  // whose leader dies must not stall — it falls back to a provisional color
  // picked from overheard beacons (the kInactive → kConfirming edge of the
  // join table) and finishes the run colored.
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 5;
  cfg.recovery.enabled = true;
  cfg.recovery.max_failovers = 0;
  cfg.recovery.degrade_to_provisional = true;

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

  robust::RecoveryInstance instance(g, cfg);
  instance.simulator().set_failure_slot(leader, request_entry + 1);
  const auto result = instance.run();
  EXPECT_EQ(result.metrics.stalled_nodes, 0u);
  EXPECT_TRUE(instance.nodes()[member]->degraded());
  EXPECT_NE(result.coloring.color[member], graph::kUncolored);
  EXPECT_EQ(result.recovery.degraded_nodes, 1u);
  EXPECT_EQ(instance.nodes()[member]->failovers(), 0u);
  EXPECT_TRUE(result.coloring_valid);
}

TEST(Recovery, ForcedRetransmissionsFireAndTheRunStaysCorrect) {
  // Request-path hardening on the PLAIN protocol driver: with a 1-slot
  // initial wait, any R episode longer than a slot forces deterministic
  // resends between the q_s coin flips; the run still converges to a valid
  // coloring.
  common::Rng rng(44);
  graph::UnitDiskGraph g(geometry::uniform_deployment(20, 2.0, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 17;
  cfg.recovery.retransmit.initial_wait = 1;
  cfg.recovery.retransmit.max_retries = 8;
  core::MwInstance instance(g, cfg);
  const auto result = instance.run();
  ASSERT_TRUE(result.metrics.all_decided);
  EXPECT_TRUE(graph::find_coloring_violations(g, result.coloring).empty());
  std::size_t forced = 0;
  for (const auto& node : instance.nodes()) {
    forced += node->forced_retransmissions();
  }
  EXPECT_GE(forced, 1u);
}

// Tiny always-transmit parameters (as in mw_node_test) so a wrapped MwNode
// can be driven to an established decision in a handful of slots.
core::MwParams tiny_params() {
  core::MwParams p;
  p.q_leader = 1.0;
  p.q_small = 1.0;
  p.listen_slots = 3;
  p.counter_threshold = 10;
  p.window_zero = 2;
  p.window_positive = 4;
  p.assign_slots = 2;
  p.phi_2rt = 5;
  p.n = 10;
  p.max_degree = 3;
  return p;
}

radio::Message color_beacon(graph::NodeId sender, std::int32_t klass) {
  radio::Message m;
  m.kind = radio::MessageKind::kColorBeacon;
  m.sender = sender;
  m.color_class = klass;
  return m;
}

radio::Message color_assign(graph::NodeId leader, graph::NodeId target,
                            std::int32_t tc) {
  radio::Message m;
  m.kind = radio::MessageKind::kColorAssign;
  m.sender = leader;
  m.target = target;
  m.color_class = 0;
  m.tc = tc;
  return m;
}

// Drives begin_slot until the node decides; returns the slot cursor.
void drive_until_decided(robust::SelfHealingNode& node, radio::Slot& slot,
                         common::Rng& rng) {
  while (!node.decided() && slot < 200) {
    node.begin_slot(slot, rng);
    ++slot;
  }
  ASSERT_TRUE(node.decided());
}

TEST(Recovery, EstablishedNodeRepairsLateCollisionFromLowerIdNeighbor) {
  // Direct drive to kColored: listen, a leader beacon puts the node in R,
  // an assignment sends it through class tc·(φ(2R_T)+1) = 6 to kColored.
  const core::MwParams params = tiny_params();
  core::RecoveryOptions options;
  options.enabled = true;
  robust::SelfHealingNode node(5, params, options, /*joiner=*/false);
  common::Rng rng(7);
  radio::Slot slot = 0;
  node.on_wake(slot);
  node.begin_slot(slot, rng);
  node.on_receive(slot, color_beacon(1, 0));  // a leader covers us → R
  ++slot;
  node.begin_slot(slot, rng);
  node.on_receive(slot, color_assign(1, 5, 1));  // grant → class 6
  ++slot;
  drive_until_decided(node, slot, rng);
  ASSERT_NE(node.inner(), nullptr);
  ASSERT_EQ(node.inner()->state(), core::MwStateKind::kColored);
  ASSERT_EQ(node.final_color(), 6);

  // A HIGHER-id neighbor claiming our color is its problem, not ours.
  node.on_receive(slot, color_beacon(9, 6));
  EXPECT_EQ(node.final_color(), 6);
  EXPECT_EQ(node.late_conflicts_repaired(), 0u);

  // A LOWER-id neighbor claiming it forces the local repair: re-pick the
  // smallest overheard-free color (heard {0, 6} → 1) on the fast-join
  // path, staying decided throughout.
  node.on_receive(slot, color_beacon(2, 6));
  EXPECT_EQ(node.late_conflicts_repaired(), 1u);
  EXPECT_TRUE(node.decided());
  EXPECT_TRUE(node.fast_join_active());
  EXPECT_EQ(node.final_color(), 1);

  // The re-confirmation window beacons the repaired color as M_J and the
  // confirm-phase watch keeps working: a further collision re-picks again.
  const auto tx = node.begin_slot(slot, rng);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->kind, radio::MessageKind::kJoinBeacon);
  EXPECT_EQ(tx->color_class, 1);
  node.on_receive(slot, color_beacon(0, 1));
  ++slot;
  EXPECT_EQ(node.final_color(), 2);  // heard {0, 1, 6} → 2
  EXPECT_TRUE(node.decided());
}

TEST(Recovery, LeaderIsExemptFromTheLateConflictWatch) {
  // Color 0 carries cluster duties; two adjacent leaders are an MIS
  // violation the local repair must not "fix" by abandoning leadership.
  const core::MwParams params = tiny_params();
  core::RecoveryOptions options;
  options.enabled = true;
  robust::SelfHealingNode node(5, params, options, /*joiner=*/false);
  common::Rng rng(7);
  radio::Slot slot = 0;
  node.on_wake(slot);
  drive_until_decided(node, slot, rng);  // unopposed class 0 → kLeader
  ASSERT_NE(node.inner(), nullptr);
  ASSERT_EQ(node.inner()->state(), core::MwStateKind::kLeader);
  ASSERT_EQ(node.final_color(), 0);

  node.on_receive(slot, color_beacon(2, 0));
  EXPECT_EQ(node.final_color(), 0);
  EXPECT_EQ(node.late_conflicts_repaired(), 0u);
  EXPECT_FALSE(node.fast_join_active());
}

TEST(Recovery, JoinersAfterConvergenceKeepTheColoringValid) {
  // End-to-end through the driver: 10% of a 40-node network arrives after
  // convergence; every joiner ends colored and the live coloring stays valid.
  common::Rng rng(321);
  graph::UnitDiskGraph g(geometry::uniform_deployment(40, 3.0, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 13;
  cfg.recovery.enabled = true;
  const auto clean = core::run_mw_coloring(g, cfg);
  ASSERT_TRUE(clean.metrics.all_decided);

  cfg.recovery.join_fraction = 0.10;
  cfg.recovery.join_at = clean.metrics.slots_executed + 200;
  cfg.recovery.join_window = 100;
  const auto result = robust::run_recovering_mw(g, cfg);
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_EQ(result.metrics.stalled_nodes, 0u);
  EXPECT_EQ(result.recovery.joined_nodes, 4u);  // ⌈0.1 · 40⌉
  EXPECT_TRUE(result.coloring_valid);
}

}  // namespace
}  // namespace sinrcolor
