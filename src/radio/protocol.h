// Per-node protocol interface driven by the slotted simulator.
//
// Slot lifecycle, for every awake node:
//   1. begin_slot(slot, rng)  — advance per-slot bookkeeping (counter
//      increments in the MW algorithm) and decide whether to transmit.
//      Returning a message means the node transmits and cannot receive this
//      slot (half-duplex).
//   2. The medium resolves receptions for the listening nodes.
//   3. on_receive(slot, msg)  — at most one decoded message is delivered.
//      It returns whether the delivery may have changed the node's quiet
//      plan or decided(); only then does the simulator ask for either again.
//   4. The simulator records decisions (decided()) and runs its end-of-slot
//      observers.
//
// Quiet plans. After begin_slot, and after an on_receive that returned true,
// the simulator asks the node for quiet_plan(slot). A plan {until,
// tx_probability} promises that in every slot s with slot < s < until,
// unless something is delivered to the node first, begin_slot(s, rng) would
// only draw rng.bernoulli(tx_probability) and, when that draw fails, would
// return nullopt and change nothing the node cannot rebuild from s. The
// simulator then makes no call in such a slot. It draws the plan's coins
// ahead on the node's own stream, one per slot, mirroring Rng::bernoulli, up
// to the first hit or the plan's end, and steps the stream back over the hit
// (Rng::step_back), so begin_slot in the hit slot redraws the same value. A
// delivery that changes the coin's probability, or ends the plan before the
// drawn-ahead slot, makes the simulator step the stream back over the draws
// of the slots after the delivery before it draws again. A node called again
// after quiet slots catches up on them first: through s − 1 in begin_slot(s),
// through s in on_receive(s). The default plan (until = slot + 1) keeps the
// node on one begin_slot per awake slot, and an on_receive that always
// returns true on one re-plan per delivery. Whatever the plan, the node's
// stream sees the same draws in the same order, so runs are byte-identical
// with or without quiet spans.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>

#include "common/rng.h"
#include "radio/message.h"

namespace sinrcolor::radio {

/// The `until` of a plan that never ends on its own; the simulator still ends
/// it at the node's next failure or join slot.
inline constexpr Slot kNeverSlot = std::numeric_limits<Slot>::max();

/// The promise a node makes about the slots after the current one (see the
/// file comment).
struct QuietPlan {
  Slot until;                   ///< first slot begin_slot must run again
  double tx_probability = 0.0;  ///< p of the one draw per quiet slot; 0 = none
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once, in the node's wake-up slot, before its first begin_slot.
  virtual void on_wake(Slot slot) = 0;

  /// Per-slot bookkeeping + transmission decision (nullopt = listen).
  virtual std::optional<Message> begin_slot(Slot slot, common::Rng& rng) = 0;

  /// Delivery of the (unique) message decoded this slot, if the node listened.
  /// Returns false only if quiet_plan(slot) would still describe the plan
  /// the node last returned and decided() is unchanged; true is always safe.
  virtual bool on_receive(Slot slot, const Message& message) = 0;

  /// The slots the simulator may skip after this one; asked right after
  /// begin_slot(slot) and after an on_receive(slot) that returned true.
  /// Requires until > slot.
  virtual QuietPlan quiet_plan(Slot slot) const { return {slot + 1}; }

  /// True once the node has produced its final output (e.g. decided a color).
  /// A decided node may keep transmitting (MW color beacons) until the whole
  /// protocol stops.
  virtual bool decided() const = 0;

  /// Bytes of state this node holds (sizeof(most-derived) plus owned heap
  /// capacities). Feeds the simulator's bytes/node accounting
  /// (RunMetrics::state_bytes); 0 = unreported, the default for protocols
  /// that opt out.
  virtual std::size_t memory_bytes() const { return 0; }
};

}  // namespace sinrcolor::radio
