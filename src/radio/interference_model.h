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
//   kNaive — the row kernel, the default (kDefaultResolveKind): the fastest
//            kind at the protocol's few transmitters per slot
//            (docs/PERFORMANCE.md), and still the A/B oracle the engine
//            paths must match exactly (tests/field_equivalence_test.cpp).
//            Per transmitter it gathers the listening UDG neighbours into
//            an SoA row and adds each transmitter's power to the whole row
//            in one branch-free pass, so every (sender, listener) pair sums
//            the same terms in the same order as the textbook per-pair loop
//            (kept as the test oracle in tests/row_kernel_test.cpp). Under
//            fading a pass draws the row's fades in one sinr::fade_factors
//            batch and drops the listeners whose signal already fails the
//            test; that is exact, because the interference sum never
//            decreases (docs/KERNELS.md "Row kernel"). Under log-normal
//            fading, unless a margin histogram is attached, a pre-filter
//            first runs the same passes on certified fade brackets
//            (sinr::fade_brackets) and settles almost every listener from
//            the bounds alone; only the undecided rest runs the exact
//            passes. Rounding is monotone, so a settled listener gets the
//            exact decision and the reception list is unchanged
//            (docs/KERNELS.md "Bracketed fades").
//   kField, kSimd — the field resolve (numerics in sinr/field_engine.h):
//            F(u) is summed once per covered listener and every candidate
//            resolves in O(1) against F − signal. The two kinds share
//            coverage, candidates and the decode pass and differ only in
//            how F(u) is summed: one Kahan chain (kField) or the 8-lane SoA
//            kernel (kSimd, docs/KERNELS.md). They win on dense slots.
// Both kernels push their receptions straight into the caller's list, each
// recording its margin into an attached histogram as it goes.
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
  /// (GraphInterferenceModel) record nothing. Null detaches. An attached
  /// histogram turns off the naive kernel's log-normal pre-filter, whose
  /// decodes know their margin only as a bound, so every recorded margin
  /// is exact.
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
  /// simulator latches this at run() start; the SINR medium's field resolve
  /// records one kFieldAccum scope per call into it.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

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

  std::size_t memory_bytes() const override;

  /// The naive kernel's row: one transmitter's listening UDG neighbours in
  /// ascending id order (SoA), each with its signal and running
  /// interference, plus the fades of the current pass. Under log-normal
  /// fading the pre-filter keeps lower bounds in signal, interference and
  /// gain, and the upper bounds in the three *_hi columns, which other
  /// media leave empty. Sized to Δ at construction, since a row never
  /// outgrows its transmitter's degree.
  struct Row {
    std::vector<std::uint32_t> id;
    std::vector<double> x;
    std::vector<double> y;
    std::vector<double> signal;
    std::vector<double> interference;
    std::vector<double> gain;
    std::vector<double> signal_hi;
    std::vector<double> interference_hi;
    std::vector<double> gain_hi;

    void resize(std::size_t capacity, bool bracketed);
    std::size_t memory_bytes() const;
  };

 private:
  /// One resolve's inputs: real transmitters, then the disturbance's
  /// jammers, and the params with the disturbance's noise floor.
  struct SlotInputs {
    Slot slot;
    std::span<const TxRecord> transmissions;
    std::span<const Jammer> jammers;
    std::span<const std::uint8_t> listening;
    sinr::SinrParams phys;
  };

  template <sinr::AlphaProfile P>
  void naive_resolve(const SlotInputs& in,
                     std::vector<Reception>& receptions) const;
  template <sinr::AlphaProfile P, bool kBracketed>
  std::size_t row_passes(const SlotInputs& in, std::size_t i,
                         std::size_t count) const;
  template <sinr::AlphaProfile P>
  void field_resolve(const SlotInputs& in,
                     std::vector<Reception>& receptions) const;
  void push_decode(std::vector<Reception>& receptions, graph::NodeId listener,
                   std::uint32_t tx, double margin) const;

  const graph::UnitDiskGraph& graph_;
  sinr::SinrParams params_;
  sinr::FadingSpec fading_;
  sinr::ResolveKind kind_;
  /// Slot scratch, each sized at construction for the kind that reads it,
  /// so resolve is allocation-free in steady state. The naive kernel's row:
  mutable Row row_;
  struct CandidatePair {
    std::uint32_t listener;
    std::uint32_t tx;
  };
  /// The field resolve's: covered listeners (`touched_` marks them by
  /// epoch), the (listener, sender) coverage pairs and their CSR by
  /// listener, the transmitters' SoA positions and weights P·g, and the
  /// senders' ids for the fade batch.
  mutable std::uint64_t epoch_ = 0;
  mutable std::vector<std::uint64_t> touched_;
  mutable std::vector<std::uint32_t> covered_;
  mutable std::vector<CandidatePair> pairs_;
  mutable std::vector<std::uint32_t> cand_begin_;
  mutable std::vector<std::uint32_t> cand_count_;
  mutable std::vector<std::uint32_t> cand_idx_;
  mutable std::vector<double> soa_x_;
  mutable std::vector<double> soa_y_;
  mutable std::vector<double> weights_;
  mutable std::vector<std::uint32_t> tx_ids_;
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
