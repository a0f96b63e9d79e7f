// Single Round Simulation over the SINR TDMA MAC (paper, Corollary 1).
//
// Each message-passing round is mapped onto one TDMA frame: a node whose
// schedule slot is t transmits its round message in frame slot t; by
// Theorem 3 (schedule built from a (d+1, V)-coloring) every neighbor decodes
// it, so the round's semantics are preserved and each round costs V slots.
// Total: O(Δ)·τ slots for the rounds (plus the coloring's O(Δ log n) setup,
// accounted separately by the experiments).
#pragma once

#include "mac/message_passing.h"
#include "mac/tdma.h"
#include "obs/observation.h"
#include "sinr/params.h"

namespace sinrcolor::mac {

/// Executes `nodes` under SINR with the given TDMA schedule. Every frame
/// slot resolves through the SINR medium (mac/slot_step.h), so an insufficient
/// coloring (e.g. distance-2) degrades outputs measurably instead of
/// aborting: failed (sender, neighbor) deliveries are counted in
/// `missed_deliveries` and the affected inbox entries are simply absent.
/// Runs until all instances terminate or `max_rounds`.
///
/// `observation` (optional) receives tx/delivery/drop events stamped with
/// the global TDMA slot index plus the mac.* counters and the per-slot
/// concurrent-transmitter histogram.
ExecutionResult run_over_sinr_tdma(
    const graph::UnitDiskGraph& g, const sinr::SinrParams& phys,
    const TdmaSchedule& schedule,
    std::vector<std::unique_ptr<UniformAlgorithm>>& nodes,
    std::uint32_t max_rounds, obs::RunObservation* observation = nullptr);

/// How a general-model round is mapped onto TDMA frames (Corollary 1).
enum class GeneralStrategy : std::uint8_t {
  /// One frame per round; each node broadcasts all its per-neighbor messages
  /// as one bundle (receivers keep only entries addressed to them).
  /// Slots: τ·V; message size blows up by the bundle factor (reported in
  /// ExecutionResult::max_bundle_entries).
  kBundled,
  /// One frame per outgoing message: round r costs max_v(#messages_v(r))
  /// frames; in sub-frame k every node transmits its k-th outgoing message.
  /// Slots: O(Δ·V) per round (the corollary's O(Δ²τ) regime); message size
  /// stays O(s log n).
  kSequential,
};

/// Executes a general-model algorithm under SINR via the chosen strategy.
/// `observation` as in run_over_sinr_tdma.
ExecutionResult run_general_over_sinr_tdma(
    const graph::UnitDiskGraph& g, const sinr::SinrParams& phys,
    const TdmaSchedule& schedule,
    std::vector<std::unique_ptr<GeneralAlgorithm>>& nodes,
    std::uint32_t max_rounds, GeneralStrategy strategy,
    obs::RunObservation* observation = nullptr);

}  // namespace sinrcolor::mac
