// Deterministic micro-tests of the MwNode state machine (paper Figs. 1–3),
// driven directly (no simulator) with tiny hand-built parameters and
// probability-1 transmissions so every slot's behaviour is exact.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/mw_node.h"
#include "core/mw_params.h"
#include "radio/message.h"

namespace sinrcolor::core {
namespace {

// listen 3 slots, threshold 10, window_0 2, window_+ 4, assign 2 slots,
// always transmit.
MwParams tiny_params() {
  MwParams p;
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

radio::Message compete(graph::NodeId sender, std::int32_t klass,
                       std::int64_t counter) {
  radio::Message m;
  m.kind = radio::MessageKind::kCompete;
  m.sender = sender;
  m.color_class = klass;
  m.counter = counter;
  return m;
}

radio::Message beacon(graph::NodeId sender, std::int32_t klass) {
  radio::Message m;
  m.kind = radio::MessageKind::kColorBeacon;
  m.sender = sender;
  m.color_class = klass;
  return m;
}

radio::Message assign(graph::NodeId leader, graph::NodeId target,
                      std::int32_t tc) {
  radio::Message m;
  m.kind = radio::MessageKind::kColorAssign;
  m.sender = leader;
  m.target = target;
  m.color_class = 0;
  m.tc = tc;
  return m;
}

radio::Message request(graph::NodeId sender, graph::NodeId leader) {
  radio::Message m;
  m.kind = radio::MessageKind::kRequest;
  m.sender = sender;
  m.target = leader;
  return m;
}

// Drives one slot; returns the transmission.
std::optional<radio::Message> step(MwNode& node, radio::Slot& slot,
                                   common::Rng& rng) {
  auto tx = node.begin_slot(slot, rng);
  ++slot;
  return tx;
}

TEST(MwNodeMachine, ListeningPhaseIsSilentThenCompetes) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(1);
  node.on_wake(0);
  radio::Slot slot = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(node.state(), MwStateKind::kListening);
    EXPECT_FALSE(step(node, slot, rng).has_value());  // never transmits
  }
  // Slot 3: χ(∅)=0, first competition iteration: c=1, transmit M_A^0(0, 1).
  const auto tx = step(node, slot, rng);
  EXPECT_EQ(node.state(), MwStateKind::kCompeting);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->kind, radio::MessageKind::kCompete);
  EXPECT_EQ(tx->color_class, 0);
  EXPECT_EQ(tx->counter, 1);
  EXPECT_EQ(node.counter(), 1);
}

TEST(MwNodeMachine, ReachesThresholdAndBecomesLeader) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(2);
  node.on_wake(0);
  radio::Slot slot = 0;
  // 3 listen slots + 9 competition slots (c = 1..9) + threshold slot.
  for (int i = 0; i < 12; ++i) {
    (void)step(node, slot, rng);
    EXPECT_FALSE(node.decided());
  }
  const auto tx = step(node, slot, rng);  // c reaches 10 ⇒ C_0, silent slot
  EXPECT_FALSE(tx.has_value());
  EXPECT_TRUE(node.decided());
  EXPECT_EQ(node.state(), MwStateKind::kLeader);
  EXPECT_EQ(node.final_color(), 0);
}

TEST(MwNodeMachine, ResetToChiAvoidsCompetitorWindow) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(3);
  node.on_wake(0);
  radio::Slot slot = 0;
  for (int i = 0; i < 5; ++i) (void)step(node, slot, rng);  // now c = 2
  ASSERT_EQ(node.counter(), 2);
  // Competitor counter 2 ⇒ |2-2| ≤ window_0=2 ⇒ reset. Forbidden interval
  // [0, 4] around the mirror pushes χ to 2 - 2 - 1 = -1.
  node.on_receive(slot - 1, compete(7, 0, 2));
  EXPECT_EQ(node.counter(), -1);
  EXPECT_EQ(node.reset_count(), 1u);
}

TEST(MwNodeMachine, NoResetOutsideWindow) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(4);
  node.on_wake(0);
  radio::Slot slot = 0;
  for (int i = 0; i < 5; ++i) (void)step(node, slot, rng);  // c = 2
  node.on_receive(slot - 1, compete(7, 0, 9));  // |2-9| = 7 > 2: mirror only
  EXPECT_EQ(node.counter(), 2);
  EXPECT_EQ(node.reset_count(), 0u);
}

TEST(MwNodeMachine, ChiAvoidsMultipleIntervals) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(5);
  node.on_wake(0);
  radio::Slot slot = 0;
  for (int i = 0; i < 5; ++i) (void)step(node, slot, rng);  // c = 2
  // Overlapping forbidden intervals: mirror 2 ⇒ [0,4] (kicks χ to -1) and
  // mirror -2 ⇒ [-4,0] (kicks -1 further down to -2-2-1 = -5).
  node.on_receive(slot - 1, compete(8, 0, -2));  // far (|2-(-2)|>2): mirror only
  ASSERT_EQ(node.counter(), 2);
  node.on_receive(slot - 1, compete(7, 0, 2));  // within window: reset
  EXPECT_EQ(node.counter(), -5);
}

TEST(MwNodeMachine, MirrorAdvancesImplicitly) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(6);
  node.on_wake(0);
  radio::Slot slot = 0;
  for (int i = 0; i < 5; ++i) (void)step(node, slot, rng);  // c = 2 at slot 4
  node.on_receive(slot - 1, compete(7, 0, 9));              // mirror 9 @ slot 4
  // Four slots later c = 6 and a fresh message re-bases the mirror to 8, so
  // χ must avoid [8-2, 8+2] = [6, 10] — the reset lands on 0, not below the
  // (stale) slot-4 interval.
  for (int i = 0; i < 4; ++i) (void)step(node, slot, rng);
  ASSERT_EQ(node.counter(), 6);
  node.on_receive(slot - 1, compete(7, 0, 8));
  EXPECT_EQ(node.counter(), 0);
}

TEST(MwNodeMachine, ClassZeroBeaconSendsToRequesting) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(7);
  node.on_wake(0);
  radio::Slot slot = 0;
  (void)step(node, slot, rng);
  node.on_receive(0, beacon(9, 0));
  EXPECT_EQ(node.state(), MwStateKind::kRequesting);
  EXPECT_EQ(node.leader(), 9u);
  // Requesting transmits M_R(me, leader) every slot (q = 1).
  const auto tx = step(node, slot, rng);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->kind, radio::MessageKind::kRequest);
  EXPECT_EQ(tx->target, 9u);
}

TEST(MwNodeMachine, AssignOverheardCountsAsLeaderSignalInClassZero) {
  // An M_C^0(v, w, tc) addressed to someone else still proves a leader is in
  // range (Fig. 1 line 5 semantics).
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(8);
  node.on_wake(0);
  node.on_receive(0, assign(9, 3, 1));  // addressed to node 3, not us
  EXPECT_EQ(node.state(), MwStateKind::kRequesting);
  EXPECT_EQ(node.leader(), 9u);
}

TEST(MwNodeMachine, RequestingAcceptsOnlyOwnAssignment) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(9);
  node.on_wake(0);
  node.on_receive(0, beacon(9, 0));
  ASSERT_EQ(node.state(), MwStateKind::kRequesting);

  node.on_receive(1, assign(9, 3, 1));   // wrong target
  EXPECT_EQ(node.state(), MwStateKind::kRequesting);
  node.on_receive(1, assign(8, 0, 1));   // wrong leader
  EXPECT_EQ(node.state(), MwStateKind::kRequesting);
  node.on_receive(1, assign(9, 0, 2));   // ours: tc = 2
  EXPECT_EQ(node.state(), MwStateKind::kListening);
  EXPECT_EQ(node.color_class(), 2 * (params.phi_2rt + 1));  // A_{tc(φ+1)}
}

TEST(MwNodeMachine, HigherClassUsesPositiveWindowAndAdvancesOnBeacon) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(10);
  node.on_wake(0);
  node.on_receive(0, beacon(9, 0));
  node.on_receive(1, assign(9, 0, 1));
  const std::int32_t base = params.phi_2rt + 1;  // class 6
  ASSERT_EQ(node.color_class(), base);

  radio::Slot slot = 2;
  for (int i = 0; i < 4; ++i) (void)step(node, slot, rng);  // listen 3 + c=1
  ASSERT_EQ(node.state(), MwStateKind::kCompeting);
  ASSERT_EQ(node.counter(), 1);
  // window_+ = 4 now: a competitor at distance 4 triggers a reset.
  node.on_receive(slot - 1, compete(5, base, 5));
  EXPECT_EQ(node.counter(), 0);  // χ avoids [1, 9] ⇒ 0

  // A class-(base) beacon bumps us to class base+1 (A_{i+1}).
  node.on_receive(slot - 1, beacon(5, base));
  EXPECT_EQ(node.state(), MwStateKind::kListening);
  EXPECT_EQ(node.color_class(), base + 1);

  // Beacons of OTHER classes are ignored.
  node.on_receive(slot, beacon(4, base));  // stale class
  EXPECT_EQ(node.color_class(), base + 1);
}

TEST(MwNodeMachine, ColoredNodeBeaconsItsClassForever) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(11);
  node.on_wake(0);
  node.on_receive(0, beacon(9, 0));
  node.on_receive(1, assign(9, 0, 1));
  radio::Slot slot = 2;
  // listen 3 slots, then climb 0→10: 10 more slots to threshold.
  for (int i = 0; i < 13 && !node.decided(); ++i) (void)step(node, slot, rng);
  ASSERT_TRUE(node.decided());
  ASSERT_EQ(node.state(), MwStateKind::kColored);
  EXPECT_EQ(node.final_color(), params.phi_2rt + 1);

  const auto tx = step(node, slot, rng);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->kind, radio::MessageKind::kColorBeacon);
  EXPECT_EQ(tx->color_class, params.phi_2rt + 1);
  // And it ignores everything.
  node.on_receive(slot, beacon(5, params.phi_2rt + 1));
  EXPECT_TRUE(node.decided());
}

TEST(MwNodeMachine, LeaderServesQueueFifoWithIncrementingTc) {
  auto params = tiny_params();
  params.listen_slots = 0;
  params.counter_threshold = 1;
  MwNode node(0, params);
  common::Rng rng(12);
  node.on_wake(0);
  radio::Slot slot = 0;
  (void)step(node, slot, rng);  // χ=0, c=1 ≥ 1 ⇒ leader
  ASSERT_EQ(node.state(), MwStateKind::kLeader);

  // Idle leader beacons M_C^0.
  auto tx = step(node, slot, rng);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->kind, radio::MessageKind::kColorBeacon);

  // Two requests queue FIFO; duplicates while queued are ignored.
  node.on_receive(slot - 1, request(5, 0));
  node.on_receive(slot - 1, request(3, 0));
  node.on_receive(slot - 1, request(5, 0));  // duplicate

  // Service: 2 slots addressed to 5 with tc=1, then 2 slots to 3 with tc=2.
  for (int k = 0; k < 2; ++k) {
    tx = step(node, slot, rng);
    ASSERT_TRUE(tx.has_value());
    EXPECT_EQ(tx->kind, radio::MessageKind::kColorAssign);
    EXPECT_EQ(tx->target, 5u);
    EXPECT_EQ(tx->tc, 1);
  }
  for (int k = 0; k < 2; ++k) {
    tx = step(node, slot, rng);
    ASSERT_TRUE(tx.has_value());
    EXPECT_EQ(tx->target, 3u);
    EXPECT_EQ(tx->tc, 2);
  }
  EXPECT_EQ(node.assigned_cluster_colors(), 2);

  // Back to idle beaconing; a re-request from an already-served node is
  // re-admitted with a FRESH tc (the recovery path for lost assignments).
  tx = step(node, slot, rng);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->kind, radio::MessageKind::kColorBeacon);
  node.on_receive(slot - 1, request(5, 0));
  tx = step(node, slot, rng);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->kind, radio::MessageKind::kColorAssign);
  EXPECT_EQ(tx->target, 5u);
  EXPECT_EQ(tx->tc, 3);
}

TEST(MwNodeMachine, LeaderIgnoresRequestsForOtherLeaders) {
  auto params = tiny_params();
  params.listen_slots = 0;
  params.counter_threshold = 1;
  MwNode node(0, params);
  common::Rng rng(13);
  node.on_wake(0);
  radio::Slot slot = 0;
  (void)step(node, slot, rng);
  ASSERT_EQ(node.state(), MwStateKind::kLeader);
  node.on_receive(slot - 1, request(5, 4));  // addressed to leader 4
  const auto tx = step(node, slot, rng);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->kind, radio::MessageKind::kColorBeacon);  // queue stayed empty
}

TEST(MwNodeMachine, CompeteMessagesOfOtherClassesAreIgnored) {
  const auto params = tiny_params();
  MwNode node(0, params);
  common::Rng rng(14);
  node.on_wake(0);
  radio::Slot slot = 0;
  for (int i = 0; i < 5; ++i) (void)step(node, slot, rng);  // class 0, c = 2
  node.on_receive(slot - 1, compete(7, 3, 2));  // class 3 ≠ 0
  EXPECT_EQ(node.counter(), 2);
  EXPECT_EQ(node.reset_count(), 0u);
}

TEST(MwTransitionTable, EncodesTheFig13Automaton) {
  using K = MwStateKind;
  // A sleeping node can only enter A_0's listening phase.
  for (std::size_t to = 0; to < kMwStateCount; ++to) {
    EXPECT_EQ(mw_transition_allowed(K::kAsleep, static_cast<K>(to)),
              static_cast<K>(to) == K::kListening);
  }
  // kLeader / kColored are terminal: no outgoing edges, ever.
  for (std::size_t to = 0; to < kMwStateCount; ++to) {
    EXPECT_FALSE(mw_transition_allowed(K::kLeader, static_cast<K>(to)));
    EXPECT_FALSE(mw_transition_allowed(K::kColored, static_cast<K>(to)));
  }
  // Nothing transitions back to kAsleep (wake-up is irreversible).
  for (std::size_t from = 0; from < kMwStateCount; ++from) {
    EXPECT_FALSE(mw_transition_allowed(static_cast<K>(from), K::kAsleep));
  }
  // Competition outcomes (Fig. 1 lines 8-15).
  EXPECT_TRUE(mw_transition_allowed(K::kCompeting, K::kLeader));
  EXPECT_TRUE(mw_transition_allowed(K::kCompeting, K::kColored));
  // A requester can only re-enter a listening phase (grant or failover) —
  // never decide a color directly.
  EXPECT_TRUE(mw_transition_allowed(K::kRequesting, K::kListening));
  EXPECT_FALSE(mw_transition_allowed(K::kRequesting, K::kColored));
  EXPECT_FALSE(mw_transition_allowed(K::kRequesting, K::kLeader));
}

TEST(MwTransitionTable, IllegalMutationsAbort) {
  const auto params = tiny_params();
  // Waking a node twice violates kAsleep -> kListening (already listening
  // ... -> kListening is legal, but on_wake's own precondition catches it).
  MwNode woken(0, params);
  woken.on_wake(0);
  EXPECT_DEATH(woken.on_wake(1), "kAsleep");

  // restart_election on a decided node would be a kLeader -> kListening
  // edge; the tightened precondition refuses before the table would abort.
  MwNode leader(0, params);
  common::Rng rng(2);
  leader.on_wake(0);
  radio::Slot slot = 0;
  for (int i = 0; i < 13; ++i) (void)step(leader, slot, rng);
  ASSERT_EQ(leader.state(), MwStateKind::kLeader);
  EXPECT_DEATH(leader.restart_election(), "undecided");
}

}  // namespace
}  // namespace sinrcolor::core
