// Per-node protocol interface driven by the slotted simulator.
//
// Slot lifecycle, for every awake node:
//   1. begin_slot(slot, rng)  — advance per-slot bookkeeping (counter
//      increments in the MW algorithm) and decide whether to transmit.
//      Returning a message means the node transmits and cannot receive this
//      slot (half-duplex).
//   2. The medium resolves receptions for the listening nodes.
//   3. on_receive(slot, msg)  — at most one decoded message is delivered.
//   4. The simulator records decisions (decided()) and runs its end-of-slot
//      observers.
//
// Quiet plans. After begin_slot and after on_receive the simulator asks the
// node for quiet_plan(slot). A plan {until, tx_probability} promises that in
// every slot s with slot < s < until, unless something is delivered to the
// node first, begin_slot(s, rng) would only draw
// rng.bernoulli(tx_probability) and, when that draw fails, would return
// nullopt and change nothing the node cannot rebuild from s. The simulator
// then makes no call in such a slot: it draws the value itself on a copy of
// the node's stream, keeps the copy when the draw fails, and calls
// begin_slot(s, rng) on the untouched stream when it succeeds, so the node
// redraws the same value. A node called again after quiet slots catches up
// on them first: through s − 1 in begin_slot(s), through s in
// on_receive(s). The default plan (until = slot + 1) keeps the node on one
// begin_slot per awake slot. Whatever the plan, the node's stream sees the
// same draws in the same order, so runs are byte-identical with or without
// quiet spans.
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
  virtual void on_receive(Slot slot, const Message& message) = 0;

  /// The slots the simulator may skip after this one; asked right after
  /// begin_slot(slot) and after on_receive(slot). Requires until > slot.
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
