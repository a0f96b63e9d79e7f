// Per-node state machine of the MW coloring algorithm (paper, Figs. 1–3).
//
// States (paper notation → ours):
//   A_i, listening phase (Fig. 1 lines 2–5)  → kListening
//   A_i, competition loop (Fig. 1 lines 7–15)→ kCompeting
//   R   (Fig. 3)                             → kRequesting
//   C_0 (Fig. 2, i = 0: leader)              → kLeader
//   C_i (Fig. 2, i > 0: colored)             → kColored
//
// A node wakes into A_0's listening phase. Leaders (first locally to drive
// their counter to ⌈σΔ ln n⌉ in class 0) beacon forever and hand out cluster
// colors tc = 1, 2, … to requesting cluster members; a member granted tc then
// competes for its final color in classes tc·(φ(2R_T)+1) + k, k = 0..φ(2R_T).
//
// Quiet plans (radio/protocol.h): between deliveries, a listening node only
// counts down, a competing, requesting or colored node only draws its q_s
// coin — the competing node's counter climbing one per slot until the slot
// it reaches the threshold — and a leader only draws its q_ℓ coin, idle or
// inside a serve window, whose countdown runs one per slot. Those five
// states return plans, so the simulator skips their silent slots; the node
// catches up its countdown, counter and serve window from the slot number
// when it is next called. on_receive returns true only for the deliveries
// that move a plan: a same-class leader signal, a same-class M_A that resets
// the counter, the own leader's grant, and a new request to an idle leader.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/mw_params.h"
#include "core/recovery_types.h"
#include "graph/coloring.h"
#include "obs/observation.h"
#include "radio/protocol.h"

namespace sinrcolor::core {

enum class MwStateKind : std::uint8_t {
  kAsleep,
  kListening,    ///< A_i lines 2–5: collect counters, never transmit
  kCompeting,    ///< A_i lines 7–15: increment / reset / transmit M_A
  kRequesting,   ///< R: ask leader for a cluster color
  kLeader,       ///< C_0: beacon + serve the request queue
  kColored,      ///< C_i, i > 0: beacon the final color
};

const char* to_string(MwStateKind kind);

/// Number of MwStateKind values (dimension of the transition table).
inline constexpr std::size_t kMwStateCount = 6;

/// The paper's Fig. 1–3 automaton as data: kMwTransitionTable[from][to] is
/// true iff the protocol may move a node from `from` to `to`. Every mutation
/// of MwNode::state_ flows through MwNode::transition_to(), which CHECKs
/// against this table — so the table IS the auditable automaton, and the
/// sinrlint R2 rule guarantees no mutation bypasses it.
///
/// Edges (row = from):
///   kAsleep     → kListening   on_wake: enter A_0 (Fig. 1 line 1)
///   kListening  → kListening   leader signal in A_i, i>0: enter A_{i+1}
///   kListening  → kCompeting   listening phase over (Fig. 1 line 6)
///   kListening  → kRequesting  class-0 leader signal: L(v) := w (Fig. 1 l. 5)
///   kCompeting  → kListening   A_{i+1} re-entry / election restart
///   kCompeting  → kRequesting  class-0 leader signal (Fig. 1 line 12)
///   kCompeting  → kLeader      c_v hit threshold in class 0 (Fig. 1 line 11)
///   kCompeting  → kColored     c_v hit threshold in class i>0
///   kRequesting → kListening   cluster color granted: enter A_{tc(φ+1)}
///                              (Fig. 3 line 3) or leader failover restart
///   kLeader, kColored           terminal: no outgoing edges
inline constexpr bool kMwTransitionTable[kMwStateCount][kMwStateCount] = {
    //               to: asleep listen compete request leader colored
    /* kAsleep     */ {false, true, false, false, false, false},
    /* kListening  */ {false, true, true, true, false, false},
    /* kCompeting  */ {false, true, false, true, true, true},
    /* kRequesting */ {false, true, false, false, false, false},
    /* kLeader     */ {false, false, false, false, false, false},
    /* kColored    */ {false, false, false, false, false, false},
};

/// True iff the Fig. 1–3 automaton allows `from` → `to`.
constexpr bool mw_transition_allowed(MwStateKind from, MwStateKind to) {
  return kMwTransitionTable[static_cast<std::size_t>(from)]
                           [static_cast<std::size_t>(to)];
}

class MwNode final : public radio::Protocol {
 public:
  /// `params` must outlive the node.
  MwNode(graph::NodeId id, const MwParams& params);

  /// Pre-sizes the per-node containers (P_v, the request queue Q) to their
  /// structural bound — both only ever hold UDG neighbors, so `degree`
  /// capacity means the node never allocates again after setup, no matter
  /// how late it wakes, resets or becomes a leader (the zero-allocation
  /// slot-loop contract; see docs/PERFORMANCE.md).
  void reserve_peers(std::size_t degree);

  // --- radio::Protocol ---
  void on_wake(radio::Slot slot) override;
  std::optional<radio::Message> begin_slot(radio::Slot slot,
                                           common::Rng& rng) override;
  bool on_receive(radio::Slot slot, const radio::Message& message) override;
  radio::QuietPlan quiet_plan(radio::Slot slot) const override;
  bool decided() const override {
    return state_ == MwStateKind::kLeader || state_ == MwStateKind::kColored;
  }
  std::size_t memory_bytes() const override {
    return sizeof(MwNode) + competitors_.capacity() * sizeof(Competitor) +
           request_queue_.capacity() * sizeof(graph::NodeId);
  }

  // --- introspection (verification, probes, experiments) ---
  graph::NodeId id() const { return id_; }
  MwStateKind state() const { return state_; }
  /// Color class i of the current A_i / C_i (undefined while kRequesting).
  std::int32_t color_class() const { return color_class_; }
  /// Final color once decided (leaders: 0); graph::kUncolored before.
  graph::Color final_color() const;
  graph::NodeId leader() const { return leader_; }
  /// c_v as of the node's last call (a quiet competing node's counter
  /// catches up when it is next called).
  std::int64_t counter() const { return counter_; }
  /// This node's sending probability in its current state (Lemma-3 probes).
  double tx_probability() const;
  /// Cluster colors handed out so far (leaders only).
  std::int32_t assigned_cluster_colors() const { return next_cluster_color_; }
  /// Number of counter resets performed (Fig. 1 line 15 / line 6 re-entries).
  std::uint64_t reset_count() const { return resets_; }

  // --- robustness hooks (src/robust; beyond the paper's model) ---
  /// Abandons the current attempt and re-enters leader election from A_0
  /// with no recorded leader. Called by the self-healing layer when this
  /// node's leader is suspected dead. Requires an awake, undecided node
  /// (kLeader / kColored are terminal in kMwTransitionTable).
  void restart_election();
  /// Drops competitors whose last M_A is older than `max_age` slots — a
  /// crashed competitor's mirrored counter would otherwise advance forever
  /// and keep depressing χ(P_v). Returns the number pruned.
  std::size_t prune_competitors_older_than(radio::Slot now, radio::Slot max_age);
  /// Enables bounded request retransmission with exponential backoff (state
  /// R hardening against injected message loss; see RetransmitPolicy). A
  /// disabled policy (the default) leaves the per-slot behaviour — and the
  /// RNG stream — byte-identical to the paper's protocol. `policy` must
  /// outlive the node (it is shared, not copied). Call before run.
  void set_retransmit_policy(const RetransmitPolicy& policy) {
    retransmit_ = &policy;
  }
  /// Forced M_R resends performed so far (0 with a disabled policy).
  std::size_t forced_retransmissions() const { return forced_retransmissions_; }

  // --- observability (src/obs) ---
  /// Attaches trace + metrics sinks: transition_to then emits mw_transition /
  /// leader_elected / color_finalized events and feeds the per-state
  /// time-in-state histograms. Null detaches; unobserved nodes pay one
  /// pointer test per transition and nothing per slot.
  void set_observation(obs::RunObservation* observation);

 private:
  // d_v(w) advances by exactly one per slot (Fig. 1 lines 3/9), so instead of
  // touching every mirror every slot we store the received counter and its
  // slot and reconstruct d_v(w) = base + (now − recorded) on demand.
  struct Competitor {
    graph::NodeId id;
    std::int64_t base;          ///< c_w as carried by the last M_A received
    radio::Slot recorded_slot;  ///< slot of that reception

    std::int64_t mirror(radio::Slot now) const {
      return base + (now - recorded_slot);
    }
  };

  /// Sole mutation point of state_: validates the edge against
  /// kMwTransitionTable (aborts on an illegal transition).
  void transition_to(MwStateKind next);
  /// Enter A_j: Fig. 1 line 1 initialisation + listening phase.
  void enter_class(std::int32_t j);
  /// Applies the quiet slots since the last call, through `slot`: the
  /// listening countdown, the competing counter and a serving leader's
  /// window each move one per slot.
  void catch_up(radio::Slot slot);
  bool retransmit_enabled() const {
    return retransmit_ != nullptr && retransmit_->enabled();
  }
  /// Fig. 1 line 6: largest value ≤ 0 outside every [d_v(w) ± window].
  std::int64_t chi(radio::Slot now) const;
  Competitor* find_competitor(graph::NodeId w);
  std::optional<radio::Message> leader_slot(common::Rng& rng);

  const graph::NodeId id_;
  const MwParams& params_;

  // Observability sinks (null when unobserved) and the slot bookkeeping that
  // lets transition_to stamp events without a slot parameter: every protocol
  // entry point records its slot in last_slot_ before any transition fires.
  // last_slot_ is also the last slot the node's state is current through
  // (catch_up).
  obs::RunObservation* observation_ = nullptr;
  radio::Slot last_slot_ = 0;
  radio::Slot state_entry_slot_ = 0;

  MwStateKind state_{MwStateKind::kAsleep};
  std::int32_t color_class_ = 0;       ///< i of the current A_i / C_i
  radio::Slot listen_remaining_ = 0;   ///< slots left in the listening phase
  std::int64_t counter_ = 0;           ///< c_v
  std::vector<Competitor> competitors_;  ///< P_v with mirrored counters
  graph::NodeId leader_ = graph::kInvalidNode;  ///< L(v)
  std::uint64_t resets_ = 0;

  // Request retransmission (robustness hardening; inert when disabled).
  const RetransmitPolicy* retransmit_ = nullptr;  ///< null = disabled
  radio::Slot retransmit_anchor_ = -1;  ///< R entry / last forced send
  radio::Slot retransmit_wait_ = 0;     ///< current backoff interval
  std::size_t retries_used_ = 0;        ///< forced sends this R episode
  std::size_t forced_retransmissions_ = 0;

  // Leader (C_0) bookkeeping. Q is a vector + head index rather than a
  // deque: a deque allocates and frees blocks as entries churn, while the
  // vector's capacity plateaus at the cluster size and the steady-state slot
  // loop stays allocation-free. Live entries are [request_head_, size).
  std::vector<graph::NodeId> request_queue_;  ///< Q, [head] = currently served
  std::size_t request_head_ = 0;
  std::int32_t next_cluster_color_ = 0;  ///< tc
  bool serving_ = false;
  radio::Slot serve_remaining_ = 0;
};

}  // namespace sinrcolor::core
