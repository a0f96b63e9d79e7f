// Knobs and metrics of the self-healing layer (implemented in src/robust).
//
// These are plain data carried by core::MwRunConfig / core::MwRunResult so
// that experiments and the CLI configure recovery the same way they configure
// failures or fading; the state machines consuming them live one layer up in
// robust::SelfHealingNode / robust::RecoveryInstance. All of this is beyond
// the paper's clean model (reliable, static nodes) — see docs/MODEL.md,
// "Failure and churn model".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "radio/message.h"

namespace sinrcolor::core {

/// Bounded retransmission with exponential backoff for the request path
/// (state R): without it a requester relies on the q_s coin alone, and under
/// heavy injected message loss the request/grant exchange can starve. When
/// enabled, a requester that has waited `initial_wait` slots since entering
/// R (or since its last forced send) transmits M_R deterministically, then
/// doubles its wait, up to `max_retries` forced sends; the plain
/// q_s-randomized sending continues in between. Disabled (the paper's
/// protocol, byte-identical RNG stream) when initial_wait == 0.
struct RetransmitPolicy {
  radio::Slot initial_wait = 0;  ///< slots before the first forced resend; 0 off
  std::size_t max_retries = 6;   ///< forced resends per R episode

  bool enabled() const { return initial_wait > 0; }
};

struct RecoveryOptions {
  /// Master switch for the failure detector + leader failover. Joins are
  /// scheduled independently via join_fraction. A requester suspects its
  /// leader dead after (Δ+1)·assign_slots + 2·window⁺ slots of silence —
  /// above the worst legitimate wait (a leader serving every other cluster
  /// member first) w.h.p. — and re-enters leader election; the timeout
  /// doubles after every failover, so repeated suspicion under heavy
  /// contention self-throttles (robust::SelfHealingNode).
  bool enabled = false;

  /// A node stops failing over after this many attempts (it then stalls and
  /// is reported like an unrecovered orphan).
  std::size_t max_failovers = 10;

  /// Fraction of nodes held back as late arrivals; ⌈fraction·n⌉ random nodes
  /// join at a uniform slot in [join_at, join_at + join_window]. 0 disables.
  double join_fraction = 0.0;
  radio::Slot join_at = 0;
  radio::Slot join_window = 0;
  /// Slots a joiner beacons its tentative color while watching for
  /// collisions before confirming it. 0 ⇒ window⁺.
  radio::Slot join_confirm_slots = 0;

  /// Request-path retransmission hardening (honoured by both the plain
  /// MwInstance and the self-healing driver). Disabled by default.
  RetransmitPolicy retransmit;

  /// Graceful degradation: a node that exhausted max_failovers (its leader
  /// keeps vanishing or is jammed beyond reach) picks a provisional color
  /// from the beacons it overheard — via the fast-join confirm path, with
  /// the same conflict repair — instead of stalling undecided to the end of
  /// the run. Liveness heuristic beyond the paper's model; off by default.
  bool degrade_to_provisional = false;

  /// Settle window: keep the simulator running this many extra slots after
  /// every node has decided, so the post-decision conflict watch (an
  /// established node yielding to a lower-id neighbor beaconing the same
  /// color) has air time to detect and repair late collisions that message
  /// loss let through. 0 (default) stops at the first all-decided slot —
  /// the original, byte-identical behavior.
  radio::Slot settle_slots = 0;

  std::string to_string() const;
};

struct RecoveryStats {
  /// Leader-suspect events fired (a node may fail over more than once).
  std::size_t failovers = 0;
  /// Nodes that decided after at least one failover — X14's would-be stalls.
  std::size_t recovered_nodes = 0;
  /// Dynamic-join events fired (RunMetrics::joined_nodes, copied here).
  std::size_t joined_nodes = 0;
  /// Tentative-color collisions a joiner detected and repaired locally.
  std::size_t join_conflicts_repaired = 0;
  /// Post-decision collisions an ESTABLISHED node detected (a lower-id
  /// neighbor beaconing its color) and repaired by re-picking locally.
  std::size_t late_conflicts_repaired = 0;
  /// Joiners that overheard an unconverged neighborhood and ran the full MW
  /// protocol instead of the fast listen-and-pick path.
  std::size_t join_fallbacks = 0;
  /// Nodes that exhausted their failovers and fell back to a provisional
  /// color (degrade_to_provisional) instead of stalling.
  std::size_t degraded_nodes = 0;
  /// Slots between a node's FIRST failover and its eventual decision.
  double mean_failover_latency = 0.0;
  radio::Slot max_failover_latency = 0;

  std::string summary() const;
};

}  // namespace sinrcolor::core
