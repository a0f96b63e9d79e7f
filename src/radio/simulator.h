// The slotted radio-network simulator.
//
// Time is divided into synchronized discrete slots (paper, Section II).
// Each slot the simulator: wakes due nodes, collects transmission decisions,
// resolves receptions through the interference model, delivers messages, and
// records decisions. Execution is fully deterministic given the seed: node v
// draws from its own splitmix-derived stream.
//
// The tx phase walks v = 0..n-1 in one sequential loop, so the transmissions
// reach the medium sender-ascending — the order its Kahan sums are defined
// over. Each node carries the next slot it is due in: the end of its
// protocol's quiet plan (radio/protocol.h), the first hit among the plan's
// coins, which the simulator draws ahead on the node's own stream whenever
// it re-plans, or its next wake, failure or join while it sleeps or is
// dead. Every other node costs that loop one comparison: no draw and no
// virtual call. After the tx phase a slot costs O(transmitters + receptions
// + active nodes), not O(n): the medium's sparse reception list is delivered
// in listener order (SlotScratch below), and only a receiver whose
// on_receive reports a possible change is re-planned and asked whether it
// decided.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/unit_disk_graph.h"
#include "obs/observation.h"
#include "radio/fault_injection.h"
#include "radio/interference_model.h"
#include "radio/protocol.h"
#include "radio/trace.h"
#include "radio/wakeup.h"

namespace sinrcolor::radio {

class Simulator {
 public:
  /// Observer invoked after each slot's transmissions are fixed but before
  /// delivery, with the slot and its transmissions in sender order; used by
  /// interference probes and tests.
  using SlotObserver =
      std::function<void(Slot, std::span<const TxRecord>)>;

  /// Observer invoked at the very end of each slot, after decision
  /// tracking — the point where this slot's state (colors, decisions) is
  /// final. Used by the runtime invariant monitor.
  using EndSlotObserver = std::function<void(Slot)>;

  Simulator(const graph::UnitDiskGraph& graph,
            std::unique_ptr<InterferenceModel> model, WakeupSchedule wakeups,
            std::uint64_t seed);

  /// Installs node v's protocol; all nodes need one before run().
  void set_protocol(graph::NodeId v, std::unique_ptr<Protocol> protocol);

  /// Non-owning variant: installs node v's protocol without transferring
  /// ownership. The caller keeps the storage alive through run() — used by
  /// contiguous node arenas (core::MwInstance) so the per-node phases walk
  /// nodes laid out back-to-back in memory instead of chasing n separate
  /// heap blocks.
  void set_protocol(graph::NodeId v, Protocol* protocol);

  /// Injects a crash-stop failure: from `slot` on, node v neither transmits
  /// nor receives nor advances. A dead undecided node does not block run()'s
  /// "all decided" termination (it is counted in RunMetrics::stalled_nodes
  /// only if it was alive and undecided at the end — dead ones are counted
  /// in failed_nodes). Call before run().
  void set_failure_slot(graph::NodeId v, Slot slot);

  /// Schedules a dynamic join: node v's radio turns on at `slot` and it
  /// receives on_wake(slot) there (a late arrival into a possibly converged
  /// network). run() does not terminate while joins are still pending, even
  /// if every already-awake node has decided.
  ///
  /// Precedence vs. set_failure_slot and the wake-up schedule:
  ///  * join only — the node's wake-up-schedule entry is IGNORED; it sleeps
  ///    until the join slot (set_join_slot overrides the schedule).
  ///  * join ≤ failure — the node wakes at the join slot and dies at the
  ///    failure slot as usual.
  ///  * failure < join — revival: the node wakes from its ORIGINAL schedule
  ///    entry, dies at the failure slot, and rejoins at the join slot with a
  ///    second on_wake (the protocol must tolerate re-waking; plain MwNode
  ///    does not — use robust::SelfHealingNode). On revival the node leaves
  ///    failed_nodes, any earlier decision is discarded, and it counts as
  ///    undecided again, so it is never double-counted in failed_nodes or
  ///    stalled_nodes. Within one slot the failure fires first, so
  ///    join == failure means die-then-rejoin in that slot.
  /// Call before run().
  void set_join_slot(graph::NodeId v, Slot slot);

  void add_observer(SlotObserver observer) {
    observers_.push_back(std::move(observer));
  }

  void add_end_observer(EndSlotObserver observer) {
    end_observers_.push_back(std::move(observer));
  }

  /// Installs a fault injector (src/faults' FaultEngine; non-owning, must
  /// outlive run()). Per slot the simulator queries the channel disturbance
  /// once and forwards it to the interference model, silences deafened
  /// receivers, and suppresses per-link drops after reception resolution
  /// (traced as kFaultDrop, counted in RunMetrics::fault_dropped_deliveries).
  /// Null detaches. Call before run().
  void set_fault_injector(FaultInjector* injector);

  /// True iff node v is currently dead (crashed and not revived). Valid
  /// during and after run(); used by end-of-slot observers that must ignore
  /// dead nodes' stale state.
  bool node_dead(graph::NodeId v) const { return scratch_.dead[v] != 0; }

  /// True iff node v's radio is on (woken and not dead).
  bool node_awake(graph::NodeId v) const {
    return scratch_.awake[v] != 0 && scratch_.dead[v] == 0;
  }

  /// Attaches trace + metrics sinks (obs/observation.h). The simulator then
  /// emits wake/join/revival/failure, tx/delivery/drop events and registers
  /// the radio.* counters and per-slot histograms; the interference model
  /// records its SINR margin per decode. Null detaches. Observation never
  /// touches the per-node RNG streams, so a traced run is byte-identical to
  /// an untraced one (tests/determinism_test.cpp). Call before run().
  void set_observation(obs::RunObservation* observation);

  obs::RunObservation* observation() const { return observation_; }

  /// The nodes whose begin_slot ran in the current slot, ascending; valid in
  /// slot and end-of-slot observers. Every other awake node was quiet, so a
  /// protocol that decides only in begin_slot decided among these.
  std::span<const graph::NodeId> active_nodes() const {
    return scratch_.active;
  }

  /// After every protocol has decided (and no joins are pending), keep the
  /// slot loop running this many extra slots before run() returns — air
  /// time for post-decision watches (late-conflict repair under injected
  /// message loss). A join or revival during the window resets it. 0 (the
  /// default) stops at the first all-decided slot, the original behavior.
  /// Call before run().
  void set_settle_slots(Slot settle) { settle_slots_ = settle; }

  /// Runs until every protocol reports decided() (plus the settle window,
  /// when one is set) or `max_slots` elapse. May be called once per
  /// simulator instance.
  RunMetrics run(Slot max_slots);

  /// Resident footprint of the run's long-lived state, in bytes: simulator
  /// scratch + RNG streams, protocol state (Protocol::memory_bytes), the
  /// interference model's engine scratch and the graph (CSR + grid index).
  /// Measured from container capacities — an accounting of what the run
  /// actually reserved, not an RSS estimate.
  /// Stamped into RunMetrics::state_bytes at the end of run(); observer
  /// closures and trace sinks are excluded (reporting, not run state).
  std::size_t memory_bytes() const;

  const graph::UnitDiskGraph& graph() const { return graph_; }
  const InterferenceModel& model() const { return *model_; }
  Protocol& protocol(graph::NodeId v) { return *protocols_[v]; }
  const WakeupSchedule& wakeups() const { return wakeups_; }

 private:
  /// Per-slot working set, allocated once in the constructor and reused by
  /// every slot — the slot loop itself performs no heap allocation in steady
  /// state (RunMetrics::steady_state_alloc_free; the SINRCOLOR_COUNT_ALLOCS
  /// build asserts it). Hot per-node flags are byte arrays rather than
  /// vector<bool>: byte loads beat bit extraction in the tx loop. The medium
  /// reads the `listening` bytes as they are; they persist across slots (a
  /// quiet awake node keeps its 1, a transmitter's byte is restored after its
  /// slot) and are rewritten only for active nodes and, under a fault
  /// injector, for every awake non-transmitting node's deafness.
  ///
  /// `plans[v]` is the quiet plan node v returned at its last re-plan, with
  /// `until` capped at the node's next wake, failure or join slot and at the
  /// run's max_slots. `due[v]` is the first slot the node needs the tx
  /// loop's full path again: the plan's first hit, with v's stream standing
  /// just before that draw, or the plan's `until`, with every quiet coin
  /// before it drawn; for a sleeping or dead node, its next event. `active`
  /// lists the slot's begin_slot calls.
  ///
  /// Reception side, O(receptions) per slot: the medium fills `receptions`
  /// in its own order; each entry sets its listener's bit in `received`
  /// (one bit per node) and its tx index in `received_tx`, and one walk over
  /// the bitmap rewrites the list in listener order. The bits double as the
  /// per-listener "decoded this slot" mark collision attribution reads, and
  /// are cleared through the list at the end of the slot. `received_tx` is
  /// read only where a bit is set, so it is never cleared.
  struct SlotScratch {
    std::vector<std::uint8_t> awake;
    std::vector<std::uint8_t> dead;
    std::vector<std::uint8_t> schedule_suppressed;
    std::vector<std::uint8_t> listening;
    std::vector<QuietPlan> plans;
    std::vector<Slot> due;
    std::vector<graph::NodeId> active;
    std::vector<TxRecord> transmissions;
    std::vector<Reception> receptions;
    std::vector<std::uint64_t> received;
    std::vector<std::uint32_t> received_tx;
    // Collision attribution (kDrop), maintained only under a tracer.
    std::vector<std::uint32_t> cover_count;
    std::vector<graph::NodeId> cover_sample;
    std::vector<graph::NodeId> covered;
  };

  /// Failures, joins, wake-ups and transmission decisions for v = 0..n-1,
  /// pushed straight into scratch_.transmissions (sender-ascending).
  void tx_decide(Slot slot, RunMetrics& metrics, obs::Tracer* tracer,
                 std::size_t& undecided, std::size_t& joins_pending);
  /// Sets v's listening byte for a slot it does not transmit in: 1, or 0 if
  /// the fault injector deafens it.
  void listen(graph::NodeId v, Slot slot, RunMetrics& metrics);
  /// The first of v's failure, join and (while it sleeps) wake slots after
  /// `slot`; kNeverSlot if none is left.
  Slot next_event(graph::NodeId v, Slot slot) const;
  /// v's quiet plan as of `slot`, capped at its next event and the horizon.
  QuietPlan plan_of(graph::NodeId v, Slot slot) const;
  /// Stores v's quiet plan after its begin_slot in `slot` and draws the
  /// plan's coins ahead to set due[v].
  void replan(graph::NodeId v, Slot slot);
  /// Stores v's plan after a delivery in `slot` that returned true. Coins
  /// drawn ahead under the old plan are kept while they still hold; the
  /// stream is stepped back over the rest, which are drawn again.
  void replan_after_delivery(graph::NodeId v, Slot slot);
  /// Marks every reception in scratch_.received and rewrites
  /// scratch_.receptions in listener-ascending order (bitmap walk, no
  /// comparison sort).
  void order_receptions();

  const graph::UnitDiskGraph& graph_;
  std::unique_ptr<InterferenceModel> model_;
  WakeupSchedule wakeups_;
  std::vector<Slot> failure_slot_;  ///< -1 = never fails
  std::vector<Slot> join_slot_;     ///< -1 = no dynamic join
  std::vector<Protocol*> protocols_;
  std::vector<std::unique_ptr<Protocol>> owned_;  ///< unique_ptr overload only
  std::vector<common::Rng> rngs_;
  std::vector<SlotObserver> observers_;
  std::vector<EndSlotObserver> end_observers_;
  SlotScratch scratch_;
  obs::RunObservation* observation_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  Slot settle_slots_ = 0;
  Slot horizon_ = kNeverSlot;  ///< run()'s max_slots: no coin is drawn past it
  bool ran_ = false;
};

}  // namespace sinrcolor::radio
