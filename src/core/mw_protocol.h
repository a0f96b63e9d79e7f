// Driver tying the MW node state machines to the slotted simulator.
//
// MwInstance owns one full protocol execution: it derives parameters for the
// instance, installs one MwNode per graph node, selects the interference
// model (SINR by default; the graph-based model is exposed for the X9
// baseline comparison) and optionally verifies Theorem 1's invariant online
// (each color class stays independent at every slot).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/mw_node.h"
#include "core/mw_params.h"
#include "core/recovery_types.h"
#include "graph/coloring.h"
#include "radio/simulator.h"
#include "sinr/fading.h"

namespace sinrcolor::core {

enum class WakeupKind : std::uint8_t {
  kSimultaneous,  ///< all nodes wake at slot 0
  kUniform,       ///< wake uniformly in [0, wakeup_window]
  kStaggered,     ///< node v wakes at v · wakeup_window
};

struct MwRunConfig {
  PracticalTuning tuning;          ///< the practical profile's constants
  /// Physical-layer template: α, β, ρ are taken from here; the noise floor is
  /// re-solved so that R_T equals the graph's radius (the UDG must remain the
  /// physical reachability graph). Defaults: α=4, β=1.5, ρ=1.5.
  sinr::SinrParams phys_template;
  WakeupKind wakeup = WakeupKind::kSimultaneous;
  radio::Slot wakeup_window = 0;
  std::uint64_t seed = 1;
  /// 0 ⇒ params.recommended_max_slots().
  radio::Slot max_slots = 0;
  /// Run under the graph-based collision medium instead of SINR (baseline X9).
  bool graph_model = false;
  /// Reception-resolution path of the SINR media (ignored under the graph
  /// medium). The default, radio::ResolveOptions{}'s kind, is kNaive: it
  /// re-sums per (sender, listener) pair and is the fastest kind at the
  /// protocol's few transmitters per slot (docs/PERFORMANCE.md). kField and
  /// kSimd share one interference-field sum per covered listener, summed in
  /// one Kahan chain or in the 8-lane SoA kernel (docs/KERNELS.md); both win
  /// on dense slots. Deliveries are identical across all three.
  sinr::ResolveKind resolve = radio::ResolveOptions{}.kind;
  /// Worker threads for the field/simd paths' per-listener shards (1 =
  /// serial). Any count produces byte-identical results (deterministic
  /// sharding).
  std::size_t threads = 1;
  /// Read by nothing: the simulator has one sequential slot loop. Kept only
  /// because the end-to-end benchmark (mwbench/mwbench.cpp) assigns it.
  std::size_t slot_threads = 1;
  /// Stochastic channel fading (ignored under the graph medium). The paper
  /// assumes deterministic path loss; X12 measures robustness against this.
  sinr::FadingSpec fading;
  /// Crash-stop failure injection: ⌈failure_fraction·n⌉ random nodes die at
  /// a uniform random slot in [0, failure_window]. Dead nodes vanish from
  /// the radio medium; the run ends when all SURVIVORS decide (stalled
  /// survivors — e.g. requesters orphaned by a dead leader — are reported in
  /// metrics.stalled_nodes). 0 disables.
  double failure_fraction = 0.0;
  radio::Slot failure_window = 0;
  /// Knowledge the nodes run with (the paper assumes Δ and n are known).
  /// 0 ⇒ use the true values; otherwise the protocol derives its parameters
  /// from these ESTIMATES — X11 measures the cost of mis-estimation
  /// (underestimates break guarantees, overestimates cost time).
  std::size_t delta_estimate = 0;
  std::size_t n_estimate = 0;
  /// Verify Theorem 1 online (every slot, incremental): counts the number of
  /// times a node finalized a color already held by a decided neighbor.
  bool check_independence = true;
  /// When set, bypasses profile/tuning derivation and runs with exactly these
  /// parameters (ablation experiments that break individual relations on
  /// purpose, e.g. constant q_s instead of q_ℓ/Δ).
  std::optional<MwParams> params_override;
  /// Self-healing layer: failure detection + leader failover + dynamic
  /// joins. MwInstance honours only `recovery.retransmit` (request-path
  /// hardening is protocol-local); the detector/failover/join knobs need the
  /// robust driver — run the config through robust::run_recovering_mw to get
  /// them. They live here so every harness configures one struct.
  RecoveryOptions recovery;
};

/// Reads `--resolve=field|simd|naive` for MwRunConfig::resolve (default: the
/// library's kind). An unknown kind exits 2 with the usage error.
sinr::ResolveKind resolve_kind_flag(const common::Cli& cli);

/// Reads `--resolve` and `--threads=N` (at least 1) into `cfg`'s resolve
/// kind and resolve worker count. Both change wall time only, never results.
void apply_resolve_flags(const common::Cli& cli, MwRunConfig& cfg);

struct MwRunResult {
  MwParams params;
  graph::Coloring coloring;
  radio::RunMetrics metrics;
  std::vector<graph::NodeId> leaders;
  /// Theorem-1 online violations observed (0 expected).
  std::size_t independence_violations = 0;
  /// Whether the final coloring is a complete valid (1,·)-coloring.
  bool coloring_valid = false;
  std::size_t palette = 0;           ///< distinct colors used
  graph::Color max_color = graph::kUncolored;
  /// Self-healing metrics; all zero unless the robust driver produced this.
  RecoveryStats recovery;

  std::string summary() const;
};

class MwInstance {
 public:
  MwInstance(const graph::UnitDiskGraph& g, const MwRunConfig& config);

  const MwParams& params() const { return params_; }
  radio::Simulator& simulator() { return *simulator_; }
  const std::vector<MwNode*>& nodes() const { return nodes_; }
  const graph::UnitDiskGraph& graph() const { return graph_; }

  /// Attaches trace + metrics sinks to the whole instance: the simulator
  /// (radio events, SINR margin), every MwNode (state transitions, color
  /// decisions, time-in-state) and the independence checker (violation
  /// events). Call before run(); null detaches. Observation never touches
  /// the RNG streams, so results are byte-identical to an unobserved run.
  void attach_observation(obs::RunObservation* observation);

  /// Executes the protocol and extracts the result. Call once.
  MwRunResult run();

 private:
  const graph::UnitDiskGraph& graph_;
  MwRunConfig config_;
  MwParams params_;
  /// Contiguous node arena: one MwNode per graph node, laid out back-to-back
  /// so the slot loop's per-node phases walk protocol state linearly instead
  /// of chasing n separate heap blocks. The simulator holds non-owning
  /// pointers into it; declared before simulator_ so it outlives the
  /// simulator's references on destruction.
  std::vector<MwNode> node_arena_;
  std::unique_ptr<radio::Simulator> simulator_;
  std::vector<MwNode*> nodes_;  // pointers into node_arena_
  std::size_t independence_violations_ = 0;
  obs::RunObservation* observation_ = nullptr;
};

/// Convenience wrapper: build an MwInstance and run it.
MwRunResult run_mw_coloring(const graph::UnitDiskGraph& g,
                            const MwRunConfig& config = {});

// --- building blocks shared with the robust recovery driver ---

/// The run's physical layer: α, β, ρ from the config's template with the
/// noise floor re-solved so R_T equals the graph's radius.
sinr::SinrParams resolve_phys(const graph::UnitDiskGraph& g,
                              const MwRunConfig& config);

/// Protocol parameters for the instance (practical profile at the true or
/// estimated n and Δ, unless params_override is set).
MwParams derive_mw_params(const graph::UnitDiskGraph& g,
                          const MwRunConfig& config);

/// The interference medium the config selects (SINR, SINR+fading, or graph).
std::unique_ptr<radio::InterferenceModel> make_interference_model(
    const graph::UnitDiskGraph& g, const MwRunConfig& config);

/// The wake-up schedule of `kind` over `window` slots; a uniform schedule
/// draws from its own stream derived from `seed`.
radio::WakeupSchedule make_wakeup_schedule(std::size_t n, WakeupKind kind,
                                           radio::Slot window,
                                           std::uint64_t seed);

/// Applies failure_fraction / failure_window to the simulator: ⌈fraction·n⌉
/// random nodes die at a uniform slot in [0, failure_window]. Nodes with
/// `exclude[v]` set are skipped (they still count toward the quota base).
/// Returns the victims actually scheduled.
std::vector<graph::NodeId> schedule_random_failures(
    radio::Simulator& sim, const MwRunConfig& config,
    const std::vector<bool>* exclude = nullptr);

}  // namespace sinrcolor::core
