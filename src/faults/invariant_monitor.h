// Runtime invariant monitor: checks the protocol's safety properties every
// slot while a (possibly fault-injected) run executes.
//
// Three invariants are watched (ids match EventKind::kInvariantViolation's
// `a` payload):
//   0 coloring legality    — no two live adjacent nodes hold the same final
//                            color at the end of any slot. Violations are
//                            tracked as conflict EPISODES: the onset slot is
//                            recorded, and when the conflict disappears (a
//                            repair, or one side dies) its duration lands in
//                            conflict_durations() and a kConflictRepaired
//                            event fires — the chaos harness gates on every
//                            injected conflict being repaired in bounded
//                            time.
//   1 tx independence      — two adjacent nodes never simultaneously beacon
//                            the SAME claimed color (kColorBeacon /
//                            kJoinBeacon). This is Theorem 1's invariant
//                            observed on the air rather than on final state.
//   2 schedule feasibility — every finalized color fits the palette bound
//                            (at most max_color), so the coloring stays
//                            usable as a TDMA schedule of that many frames.
//
// The monitor is an opt-in observer: it attaches to the simulator's slot
// hooks, never touches the RNG streams, and a monitored run is
// byte-identical to an unmonitored one. Its own bookkeeping allocates, so
// it is not part of the zero-allocation slot-loop contract (the alloc gate
// measures unmonitored runs; docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "graph/coloring.h"
#include "graph/unit_disk_graph.h"
#include "radio/simulator.h"

namespace sinrcolor::faults {

class InvariantMonitor {
 public:
  /// Current final color of node v (graph::kUncolored while undecided).
  using ColorFn = std::function<graph::Color(graph::NodeId)>;

  /// Legality and tx independence are always checked.
  struct Options {
    /// Feasibility bound: colors must lie in [0, max_color]. -1 skips the
    /// check (the bound depends on protocol parameters the monitor does not
    /// derive itself).
    graph::Color max_color = -1;
  };

  InvariantMonitor(const graph::UnitDiskGraph& graph, ColorFn color,
                   Options options);
  /// Default options (feasibility skipped).
  InvariantMonitor(const graph::UnitDiskGraph& graph, ColorFn color);

  /// Hooks the monitor into the simulator (end-of-slot legality scan +
  /// transmission observer). The simulator must outlive the monitor's use;
  /// violations are additionally traced through the simulator's attached
  /// observation, when any. Call before Simulator::run().
  void attach(radio::Simulator& sim);

  /// Check ids (EventKind::kInvariantViolation `a` payload, Report::check
  /// index): 0 legality, 1 tx independence, 2 feasibility.
  static constexpr std::size_t kCheckCount = 3;
  /// Stable check name ("legality", "tx_independence", "feasibility").
  static const char* check_name(std::size_t check);

  struct Report {
    /// Per-check firing count plus the slot range the firings span, so a
    /// dirty verdict can say WHICH invariant broke and WHEN without
    /// replaying the trace. Slots are -1 while the count is 0.
    struct CheckRange {
      std::size_t count = 0;
      radio::Slot first_slot = -1;
      radio::Slot last_slot = -1;
    };

    /// Conflict episodes opened (distinct (edge, onset) pairs).
    std::size_t legality_violations = 0;
    /// Adjacent same-color beacon pairs on the air.
    std::size_t tx_independence_violations = 0;
    /// Nodes whose finalized color exceeded the feasibility bound.
    std::size_t feasibility_violations = 0;
    /// Conflict episodes that closed (repair or death of one side).
    std::size_t conflicts_repaired = 0;
    /// Conflict episodes still open when the run ended.
    std::size_t open_conflicts = 0;
    radio::Slot max_conflict_duration = 0;
    /// Indexed by check id (see check_name); counts match the totals above.
    CheckRange check[kCheckCount];
    /// Onset-slot range of the conflicts still open at end of run.
    CheckRange open_range;

    /// No invariant ever fired — the expected outcome of a fault-free run.
    bool clean() const {
      return legality_violations == 0 && tx_independence_violations == 0 &&
             feasibility_violations == 0 && open_conflicts == 0;
    }
  };

  /// Aggregated results so far (valid during and after the run).
  Report report() const;

  /// Durations (slots from onset to close) of all repaired conflicts.
  const std::vector<radio::Slot>& conflict_durations() const {
    return durations_;
  }

 private:
  void scan_end_of_slot(radio::Slot slot);
  void scan_transmissions(radio::Slot slot,
                          std::span<const radio::TxRecord> txs);
  /// Stamps the check's firing-slot range (every violation site calls this
  /// exactly once per counted violation).
  void note_violation(std::size_t check, radio::Slot slot);

  const graph::UnitDiskGraph& graph_;
  const ColorFn color_;
  const Options options_;
  radio::Simulator* sim_ = nullptr;

  /// Open conflicts: packed edge key (min<<32|max) → onset slot.
  std::map<std::uint64_t, radio::Slot> open_;
  std::vector<std::uint8_t> feasibility_flagged_;  ///< once per node
  std::vector<radio::Slot> durations_;
  std::size_t legality_violations_ = 0;
  std::size_t tx_independence_violations_ = 0;
  std::size_t feasibility_violations_ = 0;
  /// First/last slot each check fired (index = check id); -1 until it does.
  radio::Slot check_first_[kCheckCount] = {-1, -1, -1};
  radio::Slot check_last_[kCheckCount] = {-1, -1, -1};
  radio::Slot last_slot_ = 0;
};

}  // namespace sinrcolor::faults
