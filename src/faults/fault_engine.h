// Deterministic executor of a FaultPlan (the radio::FaultInjector).
//
// The engine is the bridge between the declarative plan and the simulator's
// slot loop: crashes/restarts are installed as the simulator's existing
// failure/join schedule, and the transient faults (jammers, noise, deafness,
// per-link drops) are answered through the narrow FaultInjector interface
// the simulator and the interference media query each slot.
//
// Determinism contract: every answer is a pure function of (plan, seed,
// slot, node ids) — per-link drops hash (seed, salt, slot, sender, listener,
// window) through SplitMix64 instead of drawing from any node's RNG stream.
// Consequences: a plan's fault pattern is byte-identical under every resolve
// kind and at any trial width (x19's --threads runs trials, never slots, in
// parallel), and enabling faults never perturbs the protocol's own coin
// flips (a node
// that survives untouched behaves exactly as in the clean run up to the
// first fault it observes).
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_plan.h"
#include "radio/fault_injection.h"
#include "radio/simulator.h"

namespace sinrcolor::faults {

class FaultEngine final : public radio::FaultInjector {
 public:
  /// Copies the plan; `seed` is the run seed (the engine derives its own
  /// domain-separated stream from it, further separated by plan.seed_salt).
  FaultEngine(FaultPlan plan, std::uint64_t seed);

  /// Installs the plan into the simulator: crash/restart schedule plus this
  /// engine as the fault injector. CHECKs that the plan validates against
  /// the simulator's node count and that no jammer coincides with a node
  /// position (the interference field requires positive distances).
  /// Call before Simulator::run().
  void install(radio::Simulator& sim);

  // --- radio::FaultInjector ---
  const radio::ChannelDisturbance* channel_disturbance(
      radio::Slot slot) override;
  bool receiver_disabled(radio::Slot slot, graph::NodeId v) const override;
  bool drop_delivery(radio::Slot slot, graph::NodeId sender,
                     graph::NodeId listener) const override;

  /// Counters of fault activity actually exercised (all deterministic).
  struct Stats {
    std::uint64_t dropped_deliveries = 0;  ///< drop_delivery() returned true
    std::uint64_t jammer_slots = 0;        ///< slot × active-jammer pairs
    std::uint64_t noisy_slots = 0;         ///< slots with noise_factor ≠ 1
  };
  const Stats& stats() const { return stats_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  // Thread contract: the engine is thread-COMPATIBLE, not thread-safe — it
  // needs no mutex because one engine serves one run, and that run's slot
  // loop thread makes every call (channel_disturbance, drop_delivery's stats
  // bump) and every read of the per-slot disturbance_ snapshot, resolve
  // included. A sweep gives each trial its own engine; the tsan-smoke CI job
  // holds x19's 4-wide trial sweep to zero TSan reports.
  const FaultPlan plan_;
  const std::uint64_t drop_seed_;
  radio::ChannelDisturbance disturbance_;     ///< slot-loop thread only
  std::vector<radio::Jammer> active_jammers_;  ///< reused per slot
  mutable Stats stats_;  ///< mutable: drop_delivery() is const in the API
};

}  // namespace sinrcolor::faults
