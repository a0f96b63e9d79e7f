// The slotted radio-network simulator.
//
// Time is divided into synchronized discrete slots (paper, Section II).
// Each slot the simulator: wakes due nodes, collects transmission decisions,
// resolves receptions through the interference model, delivers messages, and
// runs end-of-slot transitions. Execution is fully deterministic given the
// seed: node v draws from its own splitmix-derived stream.
//
// After the transmission decisions a slot costs O(transmitters +
// receptions), not O(n): the medium's sparse reception list is delivered in
// listener order on the slot-loop thread (SlotScratch below).
//
// Tiled slot engine (docs/ARCHITECTURE.md): the per-node phases (tx decide,
// end-of-slot) run tile-by-tile over a graph::TilePartition. The default is
// the sequential identity engine — one tile, ids ascending, bit-for-bit the
// historical slot loop. set_slot_threads(N>1) switches to a spatial
// partition processed one tile per common::TaskPool shard, with per-tile
// transmission buffers and counters merged in tile order (and the merged
// transmissions re-sorted by sender), so an N-thread run produces
// byte-identical results to the 1-thread run: every phase touches only
// node-local state, and every cross-tile aggregate is merged in a fixed
// order. Attaching observation (trace event order) or a fault injector
// (FaultEngine is thread-compatible, not thread-safe) downgrades the run to
// the sequential engine — results are identical either way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/task_pool.h"
#include "graph/tile_partition.h"
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
  /// delivery; used by interference probes and tests. `tx_probs[v]` is the
  /// probability with which node v would have transmitted this slot (0 for
  /// asleep/non-transmitting states), supplied by protocols that expose it.
  using SlotObserver =
      std::function<void(Slot, std::span<const TxRecord>)>;

  /// Observer invoked at the very end of each slot, after every protocol's
  /// end_slot and decision tracking — the point where this slot's state
  /// (colors, decisions) is final. Used by the runtime invariant monitor.
  using EndSlotObserver = std::function<void(Slot)>;

  Simulator(const graph::UnitDiskGraph& graph,
            std::unique_ptr<InterferenceModel> model, WakeupSchedule wakeups,
            std::uint64_t seed);

  /// Installs node v's protocol; all nodes need one before run().
  void set_protocol(graph::NodeId v, std::unique_ptr<Protocol> protocol);

  /// Non-owning variant: installs node v's protocol without transferring
  /// ownership. The caller keeps the storage alive through run() — used by
  /// contiguous node arenas (core::MwInstance) so a tile pass walks nodes
  /// laid out back-to-back in memory instead of chasing n separate heap
  /// blocks.
  void set_protocol(graph::NodeId v, Protocol* protocol);

  /// Worker threads for the tiled slot engine (clamped to >= 1; default 1 =
  /// the sequential identity engine). N > 1 builds a spatial TilePartition
  /// (tile count a pure function of n) and an owning TaskPool; per-slot
  /// phases then run one tile per shard. Results are byte-identical for any
  /// value — see the file comment for the determinism argument and the
  /// observation/fault-injector downgrade. Call before run().
  void set_slot_threads(std::size_t threads);

  std::size_t slot_threads() const { return slot_threads_; }

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
  /// Null detaches. Call before run(). An installed injector pins the run to
  /// the sequential engine (FaultEngine's thread contract).
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
  /// an untraced one (tests/determinism_test.cpp). Call before run(). An
  /// attached observation pins the run to the sequential engine (stable
  /// trace event order).
  void set_observation(obs::RunObservation* observation);

  obs::RunObservation* observation() const { return observation_; }

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
  /// interference model's engine scratch, the graph (CSR + grid index) and
  /// the tile engine's per-tile buffers. Measured from container capacities
  /// — an accounting of what the run actually reserved, not an RSS estimate.
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
  /// vector<bool>: the wake/decide loops touch all n every slot, byte loads
  /// beat bit extraction there, and — decisive for the tiled engine —
  /// concurrent tiles can write disjoint byte elements without a data race,
  /// which vector<bool>'s packed bits cannot offer. The medium reads the
  /// tile-written `listening` bytes as they are.
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
    std::vector<TxRecord> transmissions;
    std::vector<Reception> receptions;
    std::vector<std::uint64_t> received;
    std::vector<std::uint32_t> received_tx;
    // Collision attribution (kDrop), maintained only under a tracer.
    std::vector<std::uint32_t> cover_count;
    std::vector<graph::NodeId> cover_sample;
    std::vector<graph::NodeId> covered;
  };

  /// Cross-tile aggregates of one tile's phase pass, merged into the run's
  /// scalars in tile order after the phase. Signed deltas where revivals can
  /// decrement (failed) or re-increment (undecided).
  struct TileCounters {
    std::int64_t undecided = 0;
    std::int64_t joins_pending = 0;
    std::int64_t failed = 0;
    std::uint64_t joined = 0;
    std::uint64_t deaf = 0;
    std::uint64_t decided = 0;

    void reset() { *this = TileCounters{}; }
  };

  /// One tile's working set. 64-byte aligned so concurrent tiles never share
  /// a cache line through their counters or vector headers.
  struct alignas(64) TileScratch {
    std::vector<TxRecord> tx;
    TileCounters counters;
  };

  enum class TilePhase : std::uint8_t { kTxDecide, kEndSlot };

  /// Rebuilds tiles_ / slot_pool_ / tile_scratch_ for the current
  /// slot_threads_ (sequential = identity partition, no pool).
  void configure_tiles(bool parallel);
  /// Phase bodies, one tile each. Every write is node-local (per-node arrays,
  /// own protocol, own RNG stream) or lands in tile_scratch_[t].
  void tile_tx_decide(std::size_t t);
  void tile_end_slot(std::size_t t);
  /// Runs the given phase over every tile — through the pool when the
  /// parallel engine is active, inline otherwise.
  void for_tiles(TilePhase phase, bool parallel);
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
  bool ran_ = false;

  // Tiled slot engine. tile_job_ is a persistent closure capturing only
  // `this` and dispatching on tile_phase_: run_shards takes it by const
  // reference, so the steady-state slot loop never constructs a
  // std::function (a fat per-slot lambda would heap-allocate past the SBO
  // and break the zero-allocation contract).
  std::size_t slot_threads_ = 1;
  graph::TilePartition tiles_;
  std::unique_ptr<common::TaskPool> slot_pool_;
  std::vector<TileScratch> tile_scratch_;
  std::function<void(std::size_t)> tile_job_;
  TilePhase tile_phase_ = TilePhase::kTxDecide;
  // Per-run context the tile bodies read (set by run(); tracer is non-null
  // only on the sequential engine).
  Slot run_slot_ = 0;
  RunMetrics* run_metrics_ = nullptr;
  obs::Tracer* run_tracer_ = nullptr;
};

}  // namespace sinrcolor::radio
