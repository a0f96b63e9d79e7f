// Run metrics collected by the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "radio/message.h"

namespace sinrcolor::radio {

struct RunMetrics {
  Slot slots_executed = 0;
  /// True when every node that was still alive at the end had decided.
  bool all_decided = false;
  std::uint64_t total_transmissions = 0;
  std::uint64_t total_deliveries = 0;
  /// Slot with the most simultaneous transmissions.
  std::size_t max_concurrent_tx = 0;
  /// Nodes dead at the end of the run (a revived node leaves this count).
  std::size_t failed_nodes = 0;
  /// Living nodes that never decided (0 unless failures disturbed the run).
  std::size_t stalled_nodes = 0;
  /// Dynamic-join events fired (late arrivals plus revivals).
  std::size_t joined_nodes = 0;
  /// Deliveries suppressed by an installed fault injector (per-link drops);
  /// 0 without one.
  std::uint64_t fault_dropped_deliveries = 0;
  /// (node, slot) pairs in which a fault injector disabled a receiver that
  /// would otherwise have listened; 0 without one.
  std::uint64_t fault_deaf_slots = 0;
  /// Per-node slot of decision (relative to slot 0), -1 if undecided.
  std::vector<Slot> decision_slot;
  /// Per-node slot of death, -1 if alive at the end (revivals reset it).
  std::vector<Slot> death_slot;
  /// Per-node wake-up slot (copied from the schedule for convenience).
  std::vector<Slot> wake_slot;
  /// Per-node transmission count (energy accounting).
  std::vector<std::uint64_t> tx_count;
  /// Per-node awake-slot count: listening costs energy too.
  std::vector<std::uint64_t> awake_slots;
  /// Heap allocations observed inside the slot loop on the simulating thread
  /// (always 0 when the counting build is off —
  /// common::alloc_counting_enabled()). Deterministic for a given workload:
  /// allocation counts are a pure function of the execution path, so they
  /// are identical at any sweep thread count.
  std::uint64_t slot_heap_allocs = 0;
  /// Last slot whose execution performed any heap allocation; -1 if none.
  /// Every slot after it ran allocation-free — the steady state.
  Slot last_alloc_slot = -1;
  /// Resident footprint of the run's long-lived state in bytes (simulator
  /// scratch, RNG streams, protocol state, interference-model engine scratch,
  /// graph, plus these per-node metric arrays), measured from container
  /// capacities by Simulator::memory_bytes(). NOT serialized into run JSON:
  /// engine scratch varies with the resolve kind and thread count while
  /// results do not, and run JSON must stay byte-identical across them.
  std::size_t state_bytes = 0;
  /// Protocol::begin_slot calls the simulator made; the rest of the awake
  /// node-slots were quiet (radio/protocol.h). Like state_bytes, never
  /// serialized into run JSON: it measures the simulator, not the run.
  std::uint64_t protocol_steps = 0;

  /// state_bytes normalized per node; 0.0 for an empty run.
  double bytes_per_node() const {
    return wake_slot.empty()
               ? 0.0
               : static_cast<double>(state_bytes) /
                     static_cast<double>(wake_slot.size());
  }

  /// Maximum over nodes of (decision slot − wake slot); the paper's time
  /// complexity measure ("time slots a node spends before deciding").
  Slot max_decision_latency() const;
  double mean_decision_latency() const;

  /// The zero-allocation slot-loop contract: the run's entire second half
  /// performed no heap allocation (0 allocations per steady-state slot).
  /// Vacuously true when the counting build is off.
  bool steady_state_alloc_free() const {
    return last_alloc_slot < slots_executed / 2;
  }

  std::string summary() const;
};

/// Radio energy model (units are arbitrary; defaults reflect the usual
/// sensor-radio regime where transmitting costs ~1.5-2x idle listening).
struct EnergyModel {
  double tx_cost = 1.8;      ///< per transmission slot
  double listen_cost = 1.0;  ///< per awake (non-transmitting) slot

  /// Energy spent by node v under `metrics`.
  double node_energy(const RunMetrics& metrics, std::size_t v) const;
  double total_energy(const RunMetrics& metrics) const;
  double max_node_energy(const RunMetrics& metrics) const;
};

}  // namespace sinrcolor::radio
