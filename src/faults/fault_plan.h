// Declarative, slot-indexed fault plans (schema "sinrcolor.faults.v1").
//
// A FaultPlan is plain data describing WHAT goes wrong and WHEN — node
// crashes (with optional restart), transient receiver deafness, external
// jammer transmitters injected into the interference field, noise-floor
// drift/bursts, and probabilistic per-link message drops. Executing a plan
// is faults::FaultEngine's job; keeping the description declarative means a
// plan can be parsed, validated, serialized and diffed independently of any
// run, and the same plan byte-reproduces the same faults at any thread
// count (docs/ROBUSTNESS.md, "Fault model").
//
// All slot windows are INCLUSIVE on both ends ([from, to]); `to = -1` means
// "until the end of the run".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "geometry/point.h"
#include "graph/unit_disk_graph.h"
#include "radio/message.h"

namespace sinrcolor::faults {

/// Crash-stop failure of one node, with an optional revival. Maps onto
/// radio::Simulator::set_failure_slot / set_join_slot (a restarted node
/// re-enters via on_wake; plain core::MwNode does not tolerate that — run
/// restarts under robust::SelfHealingNode).
struct CrashEvent {
  graph::NodeId node = graph::kInvalidNode;
  radio::Slot slot = 0;      ///< death slot
  radio::Slot restart = -1;  ///< revival slot; -1 = stays dead
};

/// Transient deafness: the node's receiver is off during [from, to] (it
/// still transmits and advances — only reception is lost).
struct DeafnessWindow {
  graph::NodeId node = graph::kInvalidNode;
  radio::Slot from = 0;
  radio::Slot to = -1;
};

/// An external jammer: a transmitter at a fixed position that is not a
/// protocol node. Under the SINR media it contributes `power` (same units
/// as sinr::SinrParams::power, default 1.0 = node transmit power) to every
/// listener's interference sum; under the graph medium it blanks listeners
/// within `radius` (0 = the graph's UDG radius). `period`/`duty` give a
/// duty-cycled burst jammer: active in the first `duty` slots of every
/// `period`-slot cycle (period 0 = continuously on inside the window).
struct JammerSpec {
  geometry::Point position;
  radio::Slot from = 0;
  radio::Slot to = -1;
  double power = 1.0;
  radio::Slot period = 0;
  radio::Slot duty = 0;
  double radius = 0.0;

  /// True iff the jammer transmits in `slot` (window + duty cycle).
  bool active(radio::Slot slot) const {
    if (slot < from || (to >= 0 && slot > to)) return false;
    if (period <= 0) return true;
    return (slot - from) % period < duty;
  }
};

/// Noise-floor drift: the ambient noise N is multiplied by `factor` during
/// [from, to]. Overlapping windows multiply.
struct NoiseWindow {
  radio::Slot from = 0;
  radio::Slot to = -1;
  double factor = 1.0;
};

/// Probabilistic per-link message loss: inside [from, to] every resolved
/// delivery is independently suppressed with probability `probability`.
/// Draws are a pure hash of (plan seed, slot, sender, listener), never the
/// node RNG streams — so the drop pattern is identical at any thread count
/// and adding drops does not perturb the protocol's own coin flips.
struct DropWindow {
  radio::Slot from = 0;
  radio::Slot to = -1;
  double probability = 0.0;
};

struct FaultPlan {
  /// The largest integer a plan holds: JSON numbers parse as doubles, and
  /// every integer up to 2^53 − 1 is exact in one (2^53 + 1 already reads
  /// as 2^53). Larger values are rejected, not rounded.
  static constexpr std::uint64_t kMaxExactInt = (std::uint64_t{1} << 53) - 1;

  /// Extra domain separation folded into the drop-hash seed, so two plans
  /// that differ only in salt produce independent drop patterns. At most
  /// kMaxExactInt, so every valid plan round-trips through to_json.
  std::uint64_t seed_salt = 0;

  std::vector<CrashEvent> crashes;
  std::vector<DeafnessWindow> deafness;
  std::vector<JammerSpec> jammers;
  std::vector<NoiseWindow> noise;
  std::vector<DropWindow> drops;

  bool empty() const {
    return crashes.empty() && deafness.empty() && jammers.empty() &&
           noise.empty() && drops.empty();
  }

  /// Semantic validation against an instance of n nodes: seed_salt at most
  /// kMaxExactInt, node ids in range, windows ordered, probabilities in
  /// [0,1], factors/powers positive, duty ≤ period. Given the deployment's
  /// node `positions` (n of them), a jammer on a node's position is
  /// rejected too ("jammers[i]: coincides with node v"): the SINR field
  /// would divide by a zero distance, and FaultEngine::install CHECKs it.
  /// Returns "" when valid, else a human-readable reason.
  std::string validate(std::size_t n,
                       std::span<const geometry::Point> positions = {}) const;

  /// Parses a "sinrcolor.faults.v1" document. Unknown top-level or entry
  /// keys are rejected (typos must not silently disable a fault). On
  /// failure returns false and fills `error`; `out` is untouched.
  static bool from_json(const common::JsonValue& doc, FaultPlan& out,
                        std::string* error);
  /// parse_json + from_json.
  static bool from_string(const std::string& text, FaultPlan& out,
                          std::string* error);
  /// Reads + parses a plan file.
  static bool load(const std::string& path, FaultPlan& out,
                   std::string* error);

  /// Serializes back to a canonical "sinrcolor.faults.v1" document
  /// (round-trips through from_string).
  std::string to_json() const;
};

}  // namespace sinrcolor::faults
