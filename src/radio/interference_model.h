// Pluggable per-slot reception semantics.
//
// SinrInterferenceModel — the paper's physical model: listener u decodes
//   sender v iff δ(u,v) ≤ R_T and
//   P·g_v/δ(u,v)^α ≥ β(N + Σ_{w≠v} P·g_w/δ(u,w)^α), where the per-link gain
//   g is 1 in the paper's model, the link's fade under an enabled
//   sinr::FadingSpec, and P_jam/P for an injected jammer.
// GraphInterferenceModel — the simplified graph-based model the original MW
//   algorithm assumes: u decodes iff exactly one UDG-neighbor transmits.
//
// Both honour half-duplex: only nodes in `listening` can receive. A resolve
// reports the slot's decodes as a sparse (listener, tx-index) list.
//
// The SINR medium runs one of three resolve paths (a sinr::ResolveKind),
// always on the calling thread:
//   kNaive — the per-(sender, listener) loop, the default
//            (kDefaultResolveKind): the fastest kind at the protocol's few
//            transmitters per slot (docs/PERFORMANCE.md), and the A/B oracle
//            the engine paths must match exactly
//            (tests/field_equivalence_test.cpp).
//   kField, kSimd — the shared interference-field engine
//            (sinr/field_engine.h): F(u) is summed once per covered
//            listener and every candidate resolves in O(1) against
//            F − signal. The two kinds share coverage, candidates and the
//            decode pass and differ only in how F(u) is summed: one Kahan
//            chain (kField) or the 8-lane SoA kernel (kSimd,
//            docs/KERNELS.md). They win on dense slots.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/unit_disk_graph.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "radio/fault_injection.h"
#include "radio/message.h"
#include "sinr/fading.h"
#include "sinr/field_engine.h"
#include "sinr/params.h"

namespace sinrcolor::radio {

/// The resolve path a SINR medium runs unless told otherwise: the naive
/// path, the fastest at the protocol's density.
inline constexpr sinr::ResolveKind kDefaultResolveKind =
    sinr::ResolveKind::kNaive;

/// One decode of a slot: `listener` decodes the message of
/// transmissions[tx].
struct Reception {
  graph::NodeId listener;
  std::uint32_t tx;
};

/// Asserts that the UDG is the reachability graph of the physical layer:
/// `graph.radius()` must equal `params.r_t()` (within 1e-9 relative). The
/// SINR medium, the MAC executors and the baselines share this contract.
void check_radius_matches_phys(const graph::UnitDiskGraph& graph,
                               const sinr::SinrParams& params);

class InterferenceModel {
 public:
  virtual ~InterferenceModel() = default;

  /// Fills `receptions` (cleared first) with this slot's decodes: one entry
  /// per listener that decodes a transmitter, in no particular order, each
  /// listener at most once. `listening[v]` is nonzero iff node v can
  /// receive (awake, not transmitting, not deaf). Injected jammers are never
  /// reported. `slot` keys any stochastic channel state (fading draws).
  virtual void resolve(Slot slot, std::span<const TxRecord> transmissions,
                       std::span<const std::uint8_t> listening,
                       std::vector<Reception>& receptions) const = 0;

  /// Dense adapter over the sparse resolve: deliveries[v] receives the
  /// message node v decodes; the caller pre-sizes and clears `deliveries`.
  /// Adds an O(n) listener conversion; allocates nothing after its first
  /// call.
  void resolve(Slot slot, const std::vector<TxRecord>& transmissions,
               const std::vector<bool>& listening,
               std::vector<std::optional<Message>>& deliveries) const;

  /// Attaches a histogram that receives the SINR margin (achieved SINR
  /// divided by β) of every successful decode of the SINR medium, under
  /// every resolve path. Models without a physical layer
  /// (GraphInterferenceModel) record nothing. Null detaches.
  void set_margin_histogram(obs::Histogram* histogram) {
    margin_histogram_ = histogram;
  }

  /// The channel-level disturbance of the NEXT resolve (set by the simulator
  /// each slot when a fault injector is installed; null = clean channel).
  /// The SINR medium scales the noise floor by noise_factor and injects
  /// every jammer into the interference field (every resolve path, delivery-
  /// equivalent); the graph medium blanks listeners inside a jammer's
  /// blocking radius. The pointed-to data must stay valid through resolve().
  void set_disturbance(const ChannelDisturbance* disturbance) {
    disturbance_ = disturbance;
  }

  /// Attaches the slot-phase profiler (null detaches — the default). The
  /// simulator latches this at run() start; the SINR medium forwards it to
  /// its field engine so its kFieldAccum scopes land in the same sink.
  virtual void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  /// Bytes of model-owned scratch (engine buffers, per-slot arrays), measured
  /// from container capacities. Feeds the simulator's bytes/node accounting;
  /// 0 = unreported.
  virtual std::size_t memory_bytes() const { return 0; }

 protected:
  obs::Histogram* margin_histogram_ = nullptr;
  const ChannelDisturbance* disturbance_ = nullptr;
  obs::Profiler* profiler_ = nullptr;

 private:
  /// The dense adapter's scratch, sized on its first call.
  mutable std::vector<std::uint8_t> dense_listening_;
  mutable std::vector<Reception> dense_receptions_;
};

class SinrInterferenceModel final : public InterferenceModel {
 public:
  /// `graph.radius()` must equal `params.r_t()` (the UDG is the reachability
  /// graph of the physical layer); checked at construction. An enabled
  /// `fading` scales the received power of every (transmitter, listener)
  /// pair — signal and interference alike — by its fade factor
  /// (sinr/fading.h). With β ≥ 1 at most one sender stays decodable per
  /// listener under fading too (see fading.h); the simulator and the dense
  /// adapter check that no listener appears twice in the reception list.
  SinrInterferenceModel(const graph::UnitDiskGraph& graph,
                        sinr::SinrParams params, sinr::FadingSpec fading,
                        sinr::ResolveKind kind = kDefaultResolveKind);
  SinrInterferenceModel(const graph::UnitDiskGraph& graph,
                        sinr::SinrParams params,
                        sinr::ResolveKind kind = kDefaultResolveKind)
      : SinrInterferenceModel(graph, params, sinr::FadingSpec{}, kind) {}

  using InterferenceModel::resolve;
  void resolve(Slot slot, std::span<const TxRecord> transmissions,
               std::span<const std::uint8_t> listening,
               std::vector<Reception>& receptions) const override;

  const sinr::SinrParams& params() const { return params_; }
  const sinr::FadingSpec& fading() const { return fading_; }

  void set_profiler(obs::Profiler* profiler) override {
    InterferenceModel::set_profiler(profiler);
    engine_.set_profiler(profiler);
  }

  std::size_t memory_bytes() const override {
    return sizeof(*this) + engine_.memory_bytes() +
           decodes_.capacity() * sizeof(sinr::FieldEngine::Decode) +
           txs_.capacity() * sizeof(sinr::Transmitter);
  }

 private:
  const graph::UnitDiskGraph& graph_;
  sinr::SinrParams params_;
  sinr::FadingSpec fading_;
  sinr::ResolveKind kind_;
  mutable sinr::FieldEngine engine_;
  /// Slot scratch: the decodes of whichever resolve path ran, and the
  /// positions of this slot's transmitters (real ones, then jammers). Both
  /// grow to their per-slot maximum within the first few slots, then stay
  /// put — resolve is allocation-free in steady state.
  mutable std::vector<sinr::FieldEngine::Decode> decodes_;
  mutable std::vector<sinr::Transmitter> txs_;
};

class GraphInterferenceModel final : public InterferenceModel {
 public:
  explicit GraphInterferenceModel(const graph::UnitDiskGraph& graph)
      : graph_(graph),
        covering_(graph.size(), 0),
        candidate_tx_(graph.size(), 0) {}

  using InterferenceModel::resolve;
  void resolve(Slot slot, std::span<const TxRecord> transmissions,
               std::span<const std::uint8_t> listening,
               std::vector<Reception>& receptions) const override;

  std::size_t memory_bytes() const override {
    return sizeof(*this) + covering_.capacity() * sizeof(std::uint8_t) +
           candidate_tx_.capacity() * sizeof(std::uint32_t);
  }

 private:
  const graph::UnitDiskGraph& graph_;
  /// Per-slot scratch, sized once at construction (zero-alloc resolve):
  /// covering_[u] = transmitting neighbors of u (saturating at 2),
  /// candidate_tx_[u] = index of the last one (valid iff covering_[u] == 1).
  /// covering_ is all zero between resolves (each zeroes what it touched).
  mutable std::vector<std::uint8_t> covering_;
  mutable std::vector<std::uint32_t> candidate_tx_;
};

}  // namespace sinrcolor::radio
