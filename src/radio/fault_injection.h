// Fault-injection hook points of the radio layer.
//
// The simulator and the interference media know nothing about fault PLANS —
// they only consume this narrow interface, queried once per slot. The
// declarative plan format, its SplitMix64-derived randomness and all
// bookkeeping live one layer up in src/faults (FaultEngine implements
// FaultInjector). Keeping the interface here lets radio stay below faults in
// the dependency order while both SINR resolve paths honour the same
// channel-level disturbance.
//
// Determinism contract: every query is a pure function of (slot, ids) and
// the injector's own construction-time state. Injectors must not consume
// the per-node RNG streams, and the simulator queries them from its own
// thread only — the same plan + seed is byte-identical under every resolve
// kind (tests/faults_test.cpp, tests/field_equivalence_test.cpp).
#pragma once

#include <span>

#include "geometry/point.h"
#include "graph/unit_disk_graph.h"
#include "radio/message.h"

namespace sinrcolor::radio {

/// An external transmitter injected into the interference field for one
/// slot. Under the SINR media it contributes power/δ^α to every listener's
/// interference sum (and is never decodable as a message); under the graph
/// medium it blanks every listener within `radius`.
struct Jammer {
  geometry::Point position;
  double power = 1.0;   ///< transmit power (SINR media)
  double radius = 0.0;  ///< blocking radius (graph medium)
};

/// Channel-level disturbance of one slot, shared by every listener.
/// A null disturbance pointer means a clean channel (the common case pays
/// one pointer test per slot).
struct ChannelDisturbance {
  /// Multiplies the medium's noise floor N (drift ≥ 1 raises it; bursts are
  /// windows with a large factor). Must be > 0.
  double noise_factor = 1.0;
  /// Jammers active this slot. Positions must not coincide with any node
  /// position (the SINR field arithmetic treats a zero distance as a
  /// contract violation, exactly as for real transmitters).
  std::span<const Jammer> jammers;
};

/// Per-slot fault queries the simulator and the media consult. All methods
/// must be cheap: they run inside the slot loop.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// The channel disturbance of `slot`, or nullptr for a clean channel.
  /// Called once per slot before transmission decisions; the returned
  /// pointer (and the jammer span inside) must stay valid for the slot.
  virtual const ChannelDisturbance* channel_disturbance(Slot slot) = 0;

  /// Transient deafness: true iff node v's receiver is off in `slot`. A deaf
  /// node transmits and advances normally but decodes nothing (its presence
  /// in the interference field is unchanged — deafness is a receiver fault).
  virtual bool receiver_disabled(Slot slot, graph::NodeId v) const = 0;

  /// Probabilistic per-link message loss, applied to an otherwise successful
  /// decode: true suppresses the delivery from `sender` to `listener`.
  virtual bool drop_delivery(Slot slot, graph::NodeId sender,
                             graph::NodeId listener) const = 0;
};

}  // namespace sinrcolor::radio
