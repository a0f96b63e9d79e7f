// Self-healing wrapper around the MW node state machine.
//
// The paper's protocol assumes reliable, static nodes; X14 shows that a
// leader crashing mid-run permanently stalls the requesters it orphaned.
// SelfHealingNode adds three mechanisms, all local and heuristic (safety
// stays the protocol's; liveness is restored without a proof claim):
//
//  1. Failure detection — while in state R the wrapper tracks beacon silence
//     from the recorded leader; after a suspect timeout (exponential backoff
//     across failovers) the leader is declared dead.
//  2. Leader failover — a suspecting requester re-enters leader election
//     from A_0 (MwNode::restart_election) instead of waiting forever; it
//     re-acquires a color range from another leader or self-promotes. Stale
//     competitor mirrors are pruned on the same timeout so a crashed
//     competitor cannot depress χ(P_v) indefinitely.
//  3. Fast dynamic join — a late arrival listens for color beacons, picks a
//     locally free color, and beacons it tentatively (M_J) while watching
//     for collisions. Joiner/joiner ties break by id (lower id keeps the
//     color); an established M_C beacon always wins. If the listen phase
//     overhears competition/request traffic the neighborhood has not
//     converged and the joiner falls back to the full MW protocol.
#pragma once

#include <memory>
#include <optional>
#include <set>

#include "core/mw_node.h"
#include "core/mw_params.h"
#include "core/recovery_types.h"
#include "obs/observation.h"
#include "radio/protocol.h"

namespace sinrcolor::robust {

/// Slots a joiner listens for color beacons before picking a locally free
/// color: 2·window⁺, long enough to hear every q_s-beaconing neighbor w.h.p.
/// If the listen phase overhears competition or request traffic, the
/// neighborhood has not converged and the joiner falls back to the full MW
/// protocol instead.
radio::Slot join_listen_slots(const core::MwParams& params);

class SelfHealingNode final : public radio::Protocol {
 public:
  /// `params` must outlive the node; `options` is copied. `joiner` selects
  /// the fast-join path on wake (normal nodes run the wrapped MW protocol).
  SelfHealingNode(graph::NodeId id, const core::MwParams& params,
                  const core::RecoveryOptions& options, bool joiner);

  // --- radio::Protocol ---
  void on_wake(radio::Slot slot) override;
  std::optional<radio::Message> begin_slot(radio::Slot slot,
                                           common::Rng& rng) override;
  bool on_receive(radio::Slot slot, const radio::Message& message) override;
  bool decided() const override;

  // --- introspection (recovery driver, tests) ---
  graph::NodeId id() const { return id_; }
  /// Final color: the wrapped node's while it runs, the (possibly repaired)
  /// join color on the fast path; graph::kUncolored before any decision.
  graph::Color final_color() const;
  bool is_joiner() const { return joiner_; }
  /// True while the fast-join path is active (false after a fallback).
  bool fast_join_active() const { return join_phase_ != JoinPhase::kInactive; }
  bool fell_back_to_full_protocol() const { return join_fallback_; }
  /// True once the node gave up on the MW protocol and fell back to a
  /// provisional color (degrade_to_provisional after max_failovers).
  bool degraded() const { return degraded_; }
  std::size_t failovers() const { return failovers_; }
  radio::Slot first_failover_slot() const { return first_failover_slot_; }
  std::size_t conflicts_repaired() const { return conflicts_repaired_; }
  /// Post-decision collisions detected while ESTABLISHED (a lower-id
  /// neighbor beaconing our color) and repaired via the fast-join path.
  std::size_t late_conflicts_repaired() const {
    return late_conflicts_repaired_;
  }
  /// The wrapped MW node (null while the fast-join path runs).
  const core::MwNode* inner() const { return inner_.get(); }

  // --- observability (src/obs) ---
  /// Attaches trace + metrics sinks: join-phase transitions, failovers and
  /// fast-join color decisions are emitted here; the wrapped MwNode (current
  /// and any created later by fallback/revival) is wired through. Null
  /// detaches.
  void set_observation(obs::RunObservation* observation);

 private:
  enum class JoinPhase : std::uint8_t {
    kInactive,    ///< not a joiner, or fell back to the full protocol
    kListening,   ///< collecting neighbor colors
    kConfirming,  ///< beaconing the tentative color, watching for conflicts
    kConfirmed,   ///< color held; beaconing + conflict watch continue
  };

  /// Number of JoinPhase values (dimension of the transition table).
  static constexpr std::size_t kJoinPhaseCount = 4;

  /// The fast-join automaton as data: kJoinTransitionTable[from][to] is true
  /// iff the recovery layer may move a joiner from `from` to `to`. Every
  /// mutation of join_phase_ flows through transition_to(), which CHECKs
  /// against this table (audited by the sinrlint R2 rule).
  ///
  /// Edges (row = from):
  ///   any         → kInactive    revival reset on a repeated on_wake, or
  ///                              fallback to the full MW protocol
  ///   kInactive   → kListening   joiner wake: collect neighbor colors
  ///   kInactive   → kConfirming  graceful degradation: a requester that
  ///                              exhausted max_failovers abandons the MW
  ///                              protocol and confirms a provisional color
  ///                              picked from overheard beacons
  ///                              (RecoveryOptions::degrade_to_provisional)
  ///   kListening  → kConfirming  listen over, tentative color picked
  ///   kConfirming → kConfirming  collision detected: re-pick, restart window
  ///   kConfirming → kConfirmed   confirmation window survived
  ///   kConfirmed  → kConfirming  late collision: local repair
  static constexpr bool kJoinTransitionTable[kJoinPhaseCount][kJoinPhaseCount] = {
      //                to: inactive listen confirming confirmed
      /* kInactive   */ {true, true, true, false},
      /* kListening  */ {true, false, true, false},
      /* kConfirming */ {true, false, true, true},
      /* kConfirmed  */ {true, false, true, false},
  };

  /// True iff the fast-join automaton allows `from` → `to`.
  static constexpr bool join_transition_allowed(JoinPhase from, JoinPhase to) {
    return kJoinTransitionTable[static_cast<std::size_t>(from)]
                               [static_cast<std::size_t>(to)];
  }

  /// Sole mutation point of join_phase_: validates the edge against
  /// kJoinTransitionTable (aborts on an illegal transition).
  void transition_to(JoinPhase next);
  void start_inner(radio::Slot slot);
  void fail_over(radio::Slot slot);
  /// Graceful degradation: drop the MW protocol, pick a provisional color
  /// from overheard beacons and route it through the fast-join confirm path
  /// (same conflict repair). Fires once, after max_failovers is exhausted.
  void degrade(radio::Slot slot);
  /// Late-conflict repair: an established (kColored) node heard a lower-id
  /// neighbor beacon its own color — a collision that injected message loss
  /// let through. Re-pick a locally free color and confirm it on the
  /// fast-join path (kInactive → kConfirming); the node stays decided, so
  /// the repair is local and bounded by the confirm window.
  void repair_collision(radio::Slot slot);
  void note_heard_color(graph::Color color);
  graph::Color pick_free_color() const;
  std::optional<radio::Message> join_begin_slot(radio::Slot slot,
                                                common::Rng& rng);
  void join_receive(const radio::Message& message);

  const graph::NodeId id_;
  const core::MwParams& params_;
  const core::RecoveryOptions options_;
  const bool joiner_;

  // Observability sinks (null when unobserved); last_slot_ lets
  // transition_to stamp events although join_receive carries no slot.
  obs::RunObservation* observation_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  radio::Slot last_slot_ = 0;

  std::unique_ptr<core::MwNode> inner_;

  // Failure detector (normal path).
  radio::Slot suspect_timeout_ = 0;   ///< current, doubles per failover
  radio::Slot requesting_since_ = -1; ///< slot the inner node entered R
  radio::Slot last_leader_heard_ = -1;
  std::size_t failovers_ = 0;
  radio::Slot first_failover_slot_ = -1;

  // Fast-join state.
  JoinPhase join_phase_{JoinPhase::kInactive};
  radio::Slot join_listen_remaining_ = 0;
  radio::Slot confirm_remaining_ = 0;
  std::set<graph::Color> heard_colors_;
  bool heard_beacon_ = false;      ///< any M_C / M_J during the listen phase
  bool heard_contention_ = false;  ///< any M_A / M_R: neighborhood not converged
  bool join_fallback_ = false;
  bool degraded_ = false;
  bool confirmed_once_ = false;
  graph::Color join_color_ = graph::kUncolored;
  std::size_t conflicts_repaired_ = 0;
  std::size_t late_conflicts_repaired_ = 0;
};

}  // namespace sinrcolor::robust
