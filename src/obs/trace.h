// Structured, slot-stamped event tracing for protocol runs.
//
// A TraceEvent is a small POD describing one thing that happened at one slot
// to one node: a transmission, a decoded delivery, a collision/SINR drop, a
// state-machine edge, a failure/join, a color decision. Events are recorded
// into a fixed-capacity ring buffer (Tracer) owned by the harness; emitters
// hold a nullable Tracer* and pay only a pointer test when no sink is
// attached, so tracing never perturbs an unobserved run (and never touches
// the RNG stream — see tests/determinism_test.cpp).
//
// This layer deliberately depends on nothing above src/common: radio, core,
// robust and mac all emit into it, so it sits below them in the dependency
// order (common -> obs -> ... -> radio -> core).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_safety.h"

namespace sinrcolor::obs {

/// Mirrors radio::Slot / graph::NodeId without including those headers
/// (checked by static_asserts at the emission sites).
using Slot = std::int64_t;
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

enum class EventKind : std::uint8_t {
  kWake,            ///< radio on per the wake-up schedule
  kJoin,            ///< dynamic join: late arrival into the network
  kRevival,         ///< rejoin after a crash (die-then-rejoin churn)
  kFailure,         ///< crash-stop death
  kTx,              ///< transmission: peer=target, a=MessageKind, b=payload
  kDelivery,        ///< decoded reception: peer=sender, a=MessageKind, b=payload
  kDrop,            ///< in range of >=1 transmitter but decoded nothing:
                    ///< peer=one interferer, a=transmitting-neighbor count
  kMwTransition,    ///< MW automaton edge: a=from, b=to (MwStateKind values)
  kJoinTransition,  ///< fast-join automaton edge: a=from, b=to (JoinPhase)
  kLeaderElected,   ///< node entered C_0
  kColorFinalized,  ///< node decided: b=final color
  kFailover,        ///< self-healing leader failover: a=failover ordinal
  kIndependenceViolation,  ///< peer=conflicting neighbor, b=shared color
  kFaultDrop,       ///< delivery suppressed by injected fault: peer=sender
  kInvariantViolation,     ///< runtime monitor: peer=counterpart,
                           ///< a=invariant id (0 legality, 1 tx-independence,
                           ///< 2 feasibility), b=offending color
  kConflictRepaired,       ///< a monitored coloring conflict closed:
                           ///< peer=counterpart, b=duration in slots
};

inline constexpr std::size_t kEventKindCount = 16;

/// Stable wire name of the kind ("tx", "mw_transition", ...), used by the
/// JSONL exporter and the schema checker in tools/lint/.
const char* to_string(EventKind kind);

/// Inverse of to_string; returns false on an unknown name.
bool event_kind_from_string(const std::string& name, EventKind& out);

/// State names for the two traced automata. These must stay in lockstep with
/// core::to_string(MwStateKind) and robust::SelfHealingNode's JoinPhase
/// (asserted by tests/obs_test.cpp); obs cannot include those headers
/// without inverting the layering.
const char* mw_state_name(std::int64_t state);
const char* join_phase_name(std::int64_t phase);
/// How many values each automaton has (names above, payload range of its
/// transition events: 0 .. count − 1).
inline constexpr std::int64_t kMwStateCount = 6;
inline constexpr std::int64_t kJoinPhaseCount = 4;

struct TraceEvent {
  Slot slot = 0;
  NodeId node = kNoNode;  ///< subject of the event
  NodeId peer = kNoNode;  ///< counterpart (sender, target, neighbor) or none
  std::int32_t a = 0;     ///< kind-specific small payload (see EventKind)
  std::int64_t b = 0;     ///< kind-specific wide payload (see EventKind)
  EventKind kind = EventKind::kWake;

  bool operator==(const TraceEvent&) const = default;
};

/// Fixed-capacity ring buffer of trace events. Overflow policy: drop-OLDEST
/// (the freshest events are the ones that explain a stall at the end of a
/// run); the number of overwritten events is reported via dropped().
///
/// Thread safety: the ring is internally synchronized, so concurrent
/// record() calls are safe and never lose an event. Today only
/// tests/concurrency_stress_test.cpp's SharedSinkStressTest emits into one
/// tracer from several threads: a harness that attaches a sidecar
/// observation runs its trials serially. The per-event
/// lock is paid only when a sink is attached; the SINRCOLOR_TRACE fast path
/// for unobserved runs stays a single pointer test. NOTE: concurrent
/// emitters make the ring ORDER nondeterministic — byte-compared artifacts
/// must come from single-threaded emission (today's simulator slot loop), as
/// tests/determinism_test.cpp pins.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = std::size_t{1} << 20);

  void record(const TraceEvent& event) SINRCOLOR_EXCLUDES(mutex_);
  void record(Slot slot, EventKind kind, NodeId node, NodeId peer = kNoNode,
              std::int32_t a = 0, std::int64_t b = 0) {
    record(TraceEvent{slot, node, peer, a, b, kind});
  }

  /// Events currently held, in emission order (oldest surviving first).
  std::vector<TraceEvent> events() const SINRCOLOR_EXCLUDES(mutex_);

  std::size_t size() const SINRCOLOR_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  /// Total events ever recorded (survivors + dropped).
  std::uint64_t recorded() const SINRCOLOR_EXCLUDES(mutex_);
  /// Events overwritten by the drop-oldest overflow policy.
  std::uint64_t dropped() const SINRCOLOR_EXCLUDES(mutex_);

  void clear() SINRCOLOR_EXCLUDES(mutex_);

 private:
  const std::size_t capacity_;  ///< immutable after construction
  mutable common::Mutex mutex_;
  std::vector<TraceEvent> ring_ SINRCOLOR_GUARDED_BY(mutex_);
  /// Next write position once the ring is full.
  std::size_t head_ SINRCOLOR_GUARDED_BY(mutex_) = 0;
  std::uint64_t recorded_ SINRCOLOR_GUARDED_BY(mutex_) = 0;
};

/// Emission macro: a single pointer test when no sink is attached. The
/// arguments after the tracer are forwarded to Tracer::record and are NOT
/// evaluated when the tracer is null, so emission sites may compute payloads
/// inline without cost in the unobserved case.
#define SINRCOLOR_TRACE(tracer_ptr, ...)   \
  do {                                     \
    if ((tracer_ptr) != nullptr) {         \
      (tracer_ptr)->record(__VA_ARGS__);   \
    }                                      \
  } while (0)

}  // namespace sinrcolor::obs
