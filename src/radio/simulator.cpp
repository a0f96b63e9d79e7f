#include "radio/simulator.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>

#include "common/alloc_counter.h"
#include "common/check.h"

namespace sinrcolor::radio {

// obs mirrors these types without including radio/graph headers; a drift
// here would silently truncate slots or node ids in traces.
static_assert(std::is_same_v<obs::Slot, Slot>);
static_assert(std::is_same_v<obs::NodeId, graph::NodeId>);

namespace {

/// Reception::tx of a decode a fault injector suppressed: it stays in the
/// list (its listener keeps the "decoded" mark) but is not delivered.
constexpr std::uint32_t kFaultDropped =
    std::numeric_limits<std::uint32_t>::max();

/// The stream values one quiet slot consumes: Rng::bernoulli draws only for
/// p strictly between 0 and 1.
Slot draws_per_slot(double p) { return p > 0.0 && p < 1.0 ? 1 : 0; }

/// Draws the quiet coins of slots from..until − 1 (from <= until) on `rng`
/// with Rng::bernoulli(p), one per slot. Returns the first slot whose coin
/// hits, with the stream stepped back before that draw, or `until`, with
/// the stream after every draw.
Slot draw_ahead(common::Rng& rng, double p, Slot from, Slot until) {
  if (p <= 0.0) return until;
  if (p >= 1.0) return from;  // a hit that draws nothing
  for (Slot s = from; s < until; ++s) {
    if (rng.bernoulli(p)) {
      rng.step_back();
      return s;
    }
  }
  return until;
}

void step_back(common::Rng& rng, Slot count) {
  for (; count > 0; --count) rng.step_back();
}

}  // namespace

Simulator::Simulator(const graph::UnitDiskGraph& graph,
                     std::unique_ptr<InterferenceModel> model,
                     WakeupSchedule wakeups, std::uint64_t seed)
    : graph_(graph), model_(std::move(model)), wakeups_(std::move(wakeups)) {
  SINRCOLOR_CHECK(model_ != nullptr);
  SINRCOLOR_CHECK(wakeups_.size() == graph_.size());
  failure_slot_.assign(graph_.size(), -1);
  join_slot_.assign(graph_.size(), -1);
  protocols_.assign(graph_.size(), nullptr);
  owned_.resize(graph_.size());
  rngs_.reserve(graph_.size());
  for (std::size_t v = 0; v < graph_.size(); ++v) {
    rngs_.emplace_back(common::derive_seed(seed, v));
  }
  // The whole slot-loop working set is carved out here, before any slot
  // runs; `transmissions` gets full-n capacity because any subset of nodes
  // may transmit in one slot and a late record spike must not allocate.
  const std::size_t n = graph_.size();
  scratch_.awake.assign(n, 0);
  scratch_.dead.assign(n, 0);
  scratch_.schedule_suppressed.assign(n, 0);
  scratch_.listening.assign(n, 0);
  scratch_.plans.assign(n, QuietPlan{0});
  // Due in slot 0: every node takes the tx loop's full path there.
  scratch_.due.assign(n, 0);
  scratch_.active.reserve(n);
  scratch_.transmissions.reserve(n);
  // A listener receives at most once per slot, so n bounds the list.
  scratch_.receptions.reserve(n);
  scratch_.received.assign((n + 63) / 64, 0);
  scratch_.received_tx.assign(n, 0);
  scratch_.covered.reserve(n);
}

void Simulator::set_protocol(graph::NodeId v, std::unique_ptr<Protocol> protocol) {
  SINRCOLOR_CHECK(v < protocols_.size());
  SINRCOLOR_CHECK(protocol != nullptr);
  owned_[v] = std::move(protocol);
  protocols_[v] = owned_[v].get();
}

void Simulator::set_protocol(graph::NodeId v, Protocol* protocol) {
  SINRCOLOR_CHECK(v < protocols_.size());
  SINRCOLOR_CHECK(protocol != nullptr);
  owned_[v].reset();
  protocols_[v] = protocol;
}

void Simulator::set_failure_slot(graph::NodeId v, Slot slot) {
  SINRCOLOR_CHECK(v < failure_slot_.size());
  SINRCOLOR_CHECK_MSG(!ran_, "failures must be scheduled before run()");
  SINRCOLOR_CHECK(slot >= 0);
  failure_slot_[v] = slot;
}

void Simulator::set_join_slot(graph::NodeId v, Slot slot) {
  SINRCOLOR_CHECK(v < join_slot_.size());
  SINRCOLOR_CHECK_MSG(!ran_, "joins must be scheduled before run()");
  SINRCOLOR_CHECK(slot >= 0);
  join_slot_[v] = slot;
}

void Simulator::set_fault_injector(FaultInjector* injector) {
  SINRCOLOR_CHECK_MSG(!ran_, "install the fault injector before run()");
  fault_injector_ = injector;
}

void Simulator::set_observation(obs::RunObservation* observation) {
  SINRCOLOR_CHECK_MSG(!ran_, "attach observation before run()");
  observation_ = observation;
  model_->set_margin_histogram(
      observation == nullptr
          ? nullptr
          : &observation->metrics.histogram(
                "radio.sinr_margin",
                {1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0}));
}

void Simulator::listen(graph::NodeId v, Slot slot, RunMetrics& metrics) {
  // Transient deafness: the receiver is off, but the node still ran its
  // slot (protocol state and the interference field are unaffected —
  // deafness is a pure receiver fault).
  const bool deaf = fault_injector_ != nullptr &&
                    fault_injector_->receiver_disabled(slot, v);
  scratch_.listening[v] = deaf ? 0 : 1;
  if (deaf) ++metrics.fault_deaf_slots;
}

Slot Simulator::next_event(graph::NodeId v, Slot slot) const {
  Slot next = kNeverSlot;
  const auto consider = [&next, slot](Slot s) {
    if (s > slot && s < next) next = s;
  };
  consider(failure_slot_[v]);
  consider(join_slot_[v]);
  if (!scratch_.awake[v] && !scratch_.schedule_suppressed[v]) {
    consider(wakeups_[v]);
  }
  return next;
}

QuietPlan Simulator::plan_of(graph::NodeId v, Slot slot) const {
  QuietPlan plan = protocols_[v]->quiet_plan(slot);
  SINRCOLOR_DCHECK(plan.until > slot);
  plan.until = std::min({plan.until, next_event(v, slot), horizon_});
  return plan;
}

void Simulator::replan(graph::NodeId v, Slot slot) {
  const QuietPlan plan = plan_of(v, slot);
  scratch_.plans[v] = plan;
  scratch_.due[v] =
      draw_ahead(rngs_[v], plan.tx_probability, slot + 1, plan.until);
}

// The coins of slots up to `slot` are spent: the node was quiet in them, or
// ran begin_slot. Those of slots slot + 1 .. due − 1 were drawn ahead under
// the old plan and failed; a hit in `due` was stepped back.
void Simulator::replan_after_delivery(graph::NodeId v, Slot slot) {
  const QuietPlan old = scratch_.plans[v];
  const QuietPlan plan = plan_of(v, slot);
  common::Rng& rng = rngs_[v];
  Slot& due = scratch_.due[v];
  SINRCOLOR_DCHECK(due > slot);
  if (plan.tx_probability != old.tx_probability) {
    // The drawn-ahead failures may hit at the new p: draw them again.
    step_back(rng, (due - 1 - slot) * draws_per_slot(old.tx_probability));
    due = draw_ahead(rng, plan.tx_probability, slot + 1, plan.until);
  } else if (plan.until < due) {
    // The plan now ends first: give back the draws from its end on.
    step_back(rng, (due - plan.until) * draws_per_slot(plan.tx_probability));
    due = plan.until;
  } else if (due == old.until) {
    // No hit before the old end: the longer plan draws on from there.
    due = draw_ahead(rng, plan.tx_probability, due, plan.until);
  }
  scratch_.plans[v] = plan;
}

// Node ids ascend, so the transmissions leave sender-ascending: the order
// the medium's Kahan field sums are defined over.
//
// awake_slots[v] is counted per awake interval: the wake subtracts its slot
// and the death (or the end of the run) adds the interval's end, so the
// count is exact once the run is over (unsigned wrap-around in between).
void Simulator::tx_decide(Slot slot, RunMetrics& metrics, obs::Tracer* tracer,
                          std::size_t& undecided, std::size_t& joins_pending) {
  auto& awake = scratch_.awake;
  auto& dead = scratch_.dead;
  auto& listening = scratch_.listening;
  auto& schedule_suppressed = scratch_.schedule_suppressed;
  auto& due = scratch_.due;
  auto& transmissions = scratch_.transmissions;
  transmissions.clear();
  scratch_.active.clear();
  const std::size_t n = graph_.size();
  const bool faults = fault_injector_ != nullptr;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (slot < due[v]) {
      // Asleep, dead, or awake and silent inside its quiet plan. Deafness
      // is still queried for every awake listener.
      if (faults && awake[v] && !dead[v]) {
        listen(v, slot, metrics);
      }
      continue;
    }
    if (!dead[v] && failure_slot_[v] == slot) {
      dead[v] = 1;
      metrics.death_slot[v] = slot;
      ++metrics.failed_nodes;
      if (awake[v]) metrics.awake_slots[v] += static_cast<std::uint64_t>(slot);
      // A dead node can no longer decide; stop waiting for it.
      if (metrics.decision_slot[v] < 0) --undecided;
      SINRCOLOR_TRACE(tracer, slot, obs::EventKind::kFailure, v);
    }
    if (join_slot_[v] == slot) {
      --joins_pending;
      ++metrics.joined_nodes;
      SINRCOLOR_TRACE(tracer, slot,
                      dead[v] ? obs::EventKind::kRevival : obs::EventKind::kJoin,
                      v);
      if (dead[v]) {
        // Revival: the node rejoins fresh. It leaves the failed count and
        // any earlier decision is void, so it is counted exactly once in
        // whichever of failed/stalled/decided it ends the run as. Its
        // death decremented `undecided` (directly if it died undecided,
        // via its decision otherwise), so the rejoin re-increments.
        dead[v] = 0;
        metrics.death_slot[v] = -1;
        --metrics.failed_nodes;
        metrics.decision_slot[v] = -1;
        ++undecided;
      } else {
        // A late arrival was never awake and still counts as undecided
        // from initialization; nothing to rebalance.
        SINRCOLOR_CHECK_MSG(!awake[v], "join slot hit an awake node");
      }
      awake[v] = 1;
      metrics.awake_slots[v] -= static_cast<std::uint64_t>(slot);
      protocols_[v]->on_wake(slot);
    }
    if (!dead[v] && !awake[v] && wakeups_[v] == slot &&
        !schedule_suppressed[v]) {
      awake[v] = 1;
      metrics.awake_slots[v] -= static_cast<std::uint64_t>(slot);
      SINRCOLOR_TRACE(tracer, slot, obs::EventKind::kWake, v);
      protocols_[v]->on_wake(slot);
    }
    if (dead[v] || !awake[v]) {
      listening[v] = 0;
      due[v] = std::min(next_event(v, slot), horizon_);
      continue;
    }
    scratch_.active.push_back(v);
    ++metrics.protocol_steps;
    auto tx = protocols_[v]->begin_slot(slot, rngs_[v]);
    if (tx.has_value()) {
      tx->sender = v;
      transmissions.push_back({v, *tx});
      listening[v] = 0;
      ++metrics.tx_count[v];
      SINRCOLOR_TRACE(tracer, slot, obs::EventKind::kTx, v, tx->target,
                      static_cast<std::int32_t>(tx->kind), tx->color_class);
    } else {
      listen(v, slot, metrics);
    }
    replan(v, slot);
  }
}

void Simulator::order_receptions() {
  auto& receptions = scratch_.receptions;
  auto& received = scratch_.received;
  for (const Reception& r : receptions) {
    const std::uint64_t bit = std::uint64_t{1} << (r.listener % 64);
    SINRCOLOR_CHECK_MSG((received[r.listener / 64] & bit) == 0,
                        "beta >= 1 forbids two decodable senders");
    received[r.listener / 64] |= bit;
    scratch_.received_tx[r.listener] = r.tx;
  }
  // Every marked listener is rewritten exactly once, so the list can be
  // overwritten in place.
  std::size_t k = 0;
  for (std::size_t w = 0; k < receptions.size(); ++w) {
    for (std::uint64_t bits = received[w]; bits != 0; bits &= bits - 1) {
      const auto v = static_cast<graph::NodeId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      receptions[k++] = {v, scratch_.received_tx[v]};
    }
  }
}

RunMetrics Simulator::run(Slot max_slots) {
  SINRCOLOR_CHECK_MSG(!ran_, "Simulator::run may only be called once");
  ran_ = true;
  const std::size_t n = graph_.size();
  for (std::size_t v = 0; v < n; ++v) {
    SINRCOLOR_CHECK_MSG(protocols_[v] != nullptr, "node missing a protocol");
  }

  horizon_ = max_slots;
  RunMetrics metrics;
  metrics.wake_slot = wakeups_;
  metrics.decision_slot.assign(n, -1);
  metrics.death_slot.assign(n, -1);
  metrics.tx_count.assign(n, 0);
  metrics.awake_slots.assign(n, 0);

  auto& listening = scratch_.listening;
  auto& transmissions = scratch_.transmissions;
  auto& receptions = scratch_.receptions;
  auto& received = scratch_.received;

  obs::Tracer* const tracer =
      observation_ != nullptr ? &observation_->trace : nullptr;
  // Latch the profiler here (not in set_observation) so enabling it at any
  // point before run() works; the model forwards it to the field engine.
  obs::Profiler* const profiler =
      observation_ != nullptr ? observation_->profiler.get() : nullptr;
  model_->set_profiler(profiler);
  obs::Histogram* concurrent_tx_hist = nullptr;
  obs::Counter* drop_counter = nullptr;
  if (observation_ != nullptr) {
    concurrent_tx_hist = &observation_->metrics.histogram(
        "radio.concurrent_tx_per_slot",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
    drop_counter = &observation_->metrics.counter("radio.drops");
  }
  // Scratch for collision attribution (kDrop): per listener, how many
  // transmitters cover it this slot and one sample interferer. Only
  // maintained when a tracer is attached (unobserved runs never touch it).
  auto& cover_count = scratch_.cover_count;
  auto& cover_sample = scratch_.cover_sample;
  auto& covered = scratch_.covered;
  if (tracer != nullptr) {
    cover_count.assign(n, 0);
    cover_sample.assign(n, graph::kInvalidNode);
  }
  std::size_t undecided = n;
  std::size_t joins_pending = 0;
  // A join slot replaces the schedule entry unless the node must first live
  // through an earlier failure (revival; see set_join_slot precedence).
  auto& schedule_suppressed = scratch_.schedule_suppressed;
  for (std::size_t v = 0; v < n; ++v) {
    if (join_slot_[v] < 0) continue;
    ++joins_pending;
    schedule_suppressed[v] =
        (failure_slot_[v] < 0 || failure_slot_[v] >= join_slot_[v]) ? 1 : 0;
  }

  const auto track = [&](graph::NodeId v, Slot slot) {
    if (metrics.decision_slot[v] < 0 && protocols_[v]->decided()) {
      metrics.decision_slot[v] = slot;
      --undecided;
    }
  };

  Slot settle_left = settle_slots_;
  for (Slot slot = 0; slot < max_slots &&
                      (undecided > 0 || joins_pending > 0 || settle_left > 0);
       ++slot) {
    SINRCOLOR_PROFILE(profiler, obs::Phase::kSlot);
    metrics.slots_executed = slot + 1;
    const std::uint64_t allocs_at_slot_start = common::thread_heap_allocs();

    // 0. Channel-level faults: one disturbance query per slot, forwarded to
    // the medium (null = clean channel, the zero-cost common case).
    if (fault_injector_ != nullptr) {
      SINRCOLOR_PROFILE(profiler, obs::Phase::kFaultInject);
      model_->set_disturbance(fault_injector_->channel_disturbance(slot));
    }

    // 1. Failures, joins, wake-ups and transmission decisions.
    {
      SINRCOLOR_PROFILE(profiler, obs::Phase::kTxDecide);
      tx_decide(slot, metrics, tracer, undecided, joins_pending);
    }
    metrics.total_transmissions += transmissions.size();
    metrics.max_concurrent_tx =
        std::max(metrics.max_concurrent_tx, transmissions.size());
    if (concurrent_tx_hist != nullptr) {
      concurrent_tx_hist->record(static_cast<double>(transmissions.size()));
    }

    for (const auto& observer : observers_) {
      observer(slot, std::span<const TxRecord>(transmissions));
    }

    // 2. Reception resolution and delivery: O(transmitters + receptions).
    if (!transmissions.empty()) {
      {
        SINRCOLOR_PROFILE(profiler, obs::Phase::kResolve);
        model_->resolve(slot, transmissions, listening, receptions);
      }
      order_receptions();
      // Per-link fault drops: an otherwise successful decode is suppressed
      // before the protocol sees it. Attributed to the fault (kFaultDrop),
      // not to interference (its listener keeps the "decoded" mark, so the
      // kDrop pass below skips it).
      if (fault_injector_ != nullptr) {
        SINRCOLOR_PROFILE(profiler, obs::Phase::kFaultInject);
        for (Reception& r : receptions) {
          const Message& m = transmissions[r.tx].message;
          if (fault_injector_->drop_delivery(slot, m.sender, r.listener)) {
            SINRCOLOR_TRACE(tracer, slot, obs::EventKind::kFaultDrop,
                            r.listener, m.sender,
                            static_cast<std::int32_t>(m.kind));
            r.tx = kFaultDropped;
            ++metrics.fault_dropped_deliveries;
          }
        }
      }
      {
        SINRCOLOR_PROFILE(profiler, obs::Phase::kDeliver);
        for (const Reception& r : receptions) {
          if (r.tx == kFaultDropped) continue;
          SINRCOLOR_DCHECK(listening[r.listener] != 0);
          const Message& m = transmissions[r.tx].message;
          SINRCOLOR_TRACE(tracer, slot, obs::EventKind::kDelivery, r.listener,
                          m.sender, static_cast<std::int32_t>(m.kind),
                          m.color_class);
          ++metrics.total_deliveries;
          // Only a delivery that may have changed the plan or the decision
          // costs a re-plan and a decision check.
          if (protocols_[r.listener]->on_receive(slot, m)) {
            replan_after_delivery(r.listener, slot);
            track(r.listener, slot);
          }
        }
      }
      // Collision attribution: a listener covered by >= 1 transmitter that
      // decoded nothing lost every covering message to interference/SINR.
      if (tracer != nullptr) {
        covered.clear();
        for (const TxRecord& t : transmissions) {
          for (graph::NodeId u : graph_.neighbors(t.sender)) {
            // Skip transmitters, sleepers, and listeners that decoded
            // (whether delivered or dropped by a fault).
            const bool decoded = ((received[u / 64] >> (u % 64)) & 1) != 0;
            if (listening[u] == 0 || decoded) continue;
            if (cover_count[u] == 0) {
              covered.push_back(u);
              cover_sample[u] = t.sender;
            }
            ++cover_count[u];
          }
        }
        for (graph::NodeId u : covered) {
          tracer->record(slot, obs::EventKind::kDrop, u, cover_sample[u],
                         static_cast<std::int32_t>(cover_count[u]));
          cover_count[u] = 0;
          cover_sample[u] = graph::kInvalidNode;
        }
        if (drop_counter != nullptr) drop_counter->add(covered.size());
      }
      for (const Reception& r : receptions) received[r.listener / 64] = 0;
    }

    // A transmitter listens again in its next slot unless that slot says
    // otherwise; a quiet node keeps this byte.
    for (const TxRecord& t : transmissions) listening[t.sender] = 1;

    // 3. End of slot: decision tracking, then the end-of-slot observers.
    // Only a node that ran begin_slot or took a delivery that returned true
    // can have changed; the receivers were asked on delivery.
    {
      SINRCOLOR_PROFILE(profiler, obs::Phase::kEndSlot);
      for (const graph::NodeId v : scratch_.active) track(v, slot);
      // This slot's state (colors, decisions) is now final: run the
      // end-of-slot observers (runtime invariant monitor).
      for (const auto& observer : end_observers_) observer(slot);
    }

    // Settle window: count down only while the run is quiescent; any
    // pending work (a revival re-incrementing `undecided`) rearms it.
    if (undecided == 0 && joins_pending == 0) {
      if (settle_left > 0) --settle_left;
    } else {
      settle_left = settle_slots_;
    }

    // Allocation attribution: a slot that allocated cannot be steady-state.
    // Two thread_local reads per slot; zero when the counting build is off.
    const std::uint64_t slot_allocs =
        common::thread_heap_allocs() - allocs_at_slot_start;
    if (slot_allocs > 0) {
      metrics.slot_heap_allocs += slot_allocs;
      metrics.last_alloc_slot = slot;
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (scratch_.dead[v]) continue;
    // Close the awake intervals still open (see tx_decide).
    if (scratch_.awake[v]) {
      metrics.awake_slots[v] +=
          static_cast<std::uint64_t>(metrics.slots_executed);
    }
    if (metrics.decision_slot[v] < 0) ++metrics.stalled_nodes;
  }
  metrics.all_decided = metrics.stalled_nodes == 0;
  // Bytes/node accounting: long-lived run state plus the metrics' own
  // per-node arrays. Measured capacities, not an RSS guess; reported via
  // RunMetrics::state_bytes (never serialized into run JSON).
  metrics.state_bytes =
      memory_bytes() +
      metrics.decision_slot.capacity() * sizeof(Slot) +
      metrics.death_slot.capacity() * sizeof(Slot) +
      metrics.wake_slot.capacity() * sizeof(Slot) +
      metrics.tx_count.capacity() * sizeof(std::uint64_t) +
      metrics.awake_slots.capacity() * sizeof(std::uint64_t);
  if (observation_ != nullptr) {
    auto& m = observation_->metrics;
    m.counter("radio.slots").add(
        static_cast<std::uint64_t>(metrics.slots_executed));
    m.counter("radio.transmissions")
        .add(static_cast<std::uint64_t>(metrics.total_transmissions));
    m.counter("radio.deliveries")
        .add(static_cast<std::uint64_t>(metrics.total_deliveries));
    m.counter("radio.failures")
        .add(static_cast<std::uint64_t>(metrics.failed_nodes));
    m.counter("radio.joins")
        .add(static_cast<std::uint64_t>(metrics.joined_nodes));
    if (fault_injector_ != nullptr) {
      m.counter("radio.fault_drops").add(metrics.fault_dropped_deliveries);
      m.counter("radio.fault_deaf_slots").add(metrics.fault_deaf_slots);
    }
  }
  return metrics;
}

std::size_t Simulator::memory_bytes() const {
  const auto vec = [](const auto& v) {
    return v.capacity() *
           sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::size_t protocol_bytes = 0;
  for (const Protocol* p : protocols_) {
    if (p != nullptr) protocol_bytes += p->memory_bytes();
  }
  return sizeof(*this) + graph_.memory_bytes() + model_->memory_bytes() +
         protocol_bytes + vec(wakeups_) + vec(failure_slot_) +
         vec(join_slot_) + vec(protocols_) + vec(owned_) + vec(rngs_) +
         vec(observers_) + vec(end_observers_) + vec(scratch_.awake) +
         vec(scratch_.dead) + vec(scratch_.schedule_suppressed) +
         vec(scratch_.listening) + vec(scratch_.plans) + vec(scratch_.due) +
         vec(scratch_.active) + vec(scratch_.transmissions) +
         vec(scratch_.receptions) + vec(scratch_.received) +
         vec(scratch_.received_tx) + vec(scratch_.cover_count) +
         vec(scratch_.cover_sample) + vec(scratch_.covered);
}

}  // namespace sinrcolor::radio
