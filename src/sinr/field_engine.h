// The shared interference-field engine — the fast path behind the SINR
// medium's resolve (radio/interference_model.h).
//
// Naive resolution asks, per (sender, listener) pair, for the full
// interference sum at the listener: O(T²·Δ) per slot for T transmitters.
// But the SINR denominator depends only on the TOTAL received field
//
//     F(u) = Σ_j  P·g(u,j) / δ(u, t_j)^α
//
// which is independent of which sender is being decoded: sender i achieves
//
//     SINR_i(u) = s_i(u) / (N + F(u) − s_i(u)),  s_i(u) = P·g(u,i)/δ(u,t_i)^α,
//
// so one O(T) pass per covered listener replaces one O(T) pass per
// (sender, listener) pair — O(T·coverage) per slot. This is the same
// structure Lemma 3 exploits analytically: far transmitters contribute a
// globally bounded total to F(u) and never need to be enumerated per sender.
//
// One per-listener path serves both engine kinds. Coverage comes from the
// real senders' UDG neighbour spans and is scattered into a per-listener
// candidate CSR; the whole transmitter batch, jammers included, is staged
// as contiguous x/y/weight arrays; each covered listener sums F(u) over
// them, then tests its candidates, in ascending transmitter order, against
// F − signal. A jammer adds to F(u) but is never a candidate: with β ≥ 1 a
// listener that could "decode" a jammer decodes no real sender, and a
// listener only a jammer reaches hears nothing, so neither needs covering.
// The only kind-dependent choice is the F accumulator:
//   kField — field_accumulate_serial: one Kahan chain in ascending
//            transmitter order;
//   kSimd  — field_accumulate_lanes: a fused, branch-free loop the compiler
//            vectorizes, folding into kKahanLanes strided Kahan chains
//            combined in fixed order (docs/KERNELS.md).
// Both fold the same contribution_at terms, so per-term signals are bitwise
// identical; the lane split changes only the rounding sequence of F(u), by
// ulps. Decode thresholds are continuous in F and the threshold-equality
// set is measure zero, so deliveries (and full run JSON) match across the
// kinds and the naive oracle in practice; the equivalence suite
// (tests/field_equivalence_test.cpp) and the x18 three-way harness enforce
// exactly that.
//
// Determinism: F(u) is a pure function of (params, listener, transmitter
// sequence) under either accumulator — independent of attached observation
// sinks and the target ISA (the lane count is fixed). A resolve walks the
// sorted covered-listener list on the caller's thread, so decodes come out
// listener-ascending (tests/determinism_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "geometry/point.h"
#include "obs/profiler.h"
#include "sinr/medium_field.h"
#include "sinr/params.h"

namespace sinrcolor::sinr {

/// Which reception-resolution path a medium runs.
enum class ResolveKind : std::uint8_t {
  kNaive,  ///< per-(sender, listener) interference sums — the reference oracle
  kField,  ///< the field engine, F(u) summed in one Kahan chain
  kSimd,   ///< the field engine, F(u) summed in the 8-lane batched kernel
};

const char* to_string(ResolveKind kind);
/// Parses "naive" / "field" / "simd"; returns false (leaving `out` untouched)
/// otherwise.
bool resolve_kind_from_string(const std::string& name, ResolveKind& out);

/// Kahan-compensated summation: the error of each add is carried into the
/// next one, keeping the total's error O(ε) instead of O(T·ε) over T terms.
/// Order-sensitive like any float sum — callers must fix the add order.
class KahanSum {
 public:
  void add(double x) {
    const double y = x - carry_;
    const double t = sum_ + y;
    carry_ = (t - sum_) - y;
    sum_ = t;
  }
  double total() const { return sum_; }

 private:
  double sum_ = 0.0;
  double carry_ = 0.0;
};

/// Path-loss profile of the exponent α, mirroring the scalar fast paths in
/// pow_alpha_from_sq. Both accumulators are instantiated once per profile so
/// the δ^α computation in the fused loop is branch-free multiplies (plus one
/// vectorizable sqrt for α=3); kGeneral falls back to the same scalar
/// std::pow(d², α/2) call pow_alpha_from_sq makes, keeping per-term bits
/// equal.
enum class AlphaProfile : std::uint8_t {
  kCube,     ///< α = 3:  δ³  = d²·√d²
  kQuartic,  ///< α = 4:  δ⁴  = d²·d²
  kSextic,   ///< α = 6:  δ⁶  = d²·d²·d²
  kGeneral,  ///< any other α: std::pow(d², α/2)
};

constexpr AlphaProfile classify_alpha(double alpha) {
  if (alpha == 3.0) return AlphaProfile::kCube;
  if (alpha == 4.0) return AlphaProfile::kQuartic;
  if (alpha == 6.0) return AlphaProfile::kSextic;
  return AlphaProfile::kGeneral;
}

/// δ^α from δ² for one profile; `half_alpha` = α/2 is only read by kGeneral.
/// Associativity matters: each specialization multiplies in the same order as
/// its pow_alpha_from_sq twin, so the two produce bitwise-equal results.
template <AlphaProfile P>
inline double pow_alpha_profiled(double d_sq, double half_alpha) {
  if constexpr (P == AlphaProfile::kCube) {
    return d_sq * std::sqrt(d_sq);
  } else if constexpr (P == AlphaProfile::kQuartic) {
    return d_sq * d_sq;
  } else if constexpr (P == AlphaProfile::kSextic) {
    return d_sq * d_sq * d_sq;
  } else {
    return std::pow(d_sq, half_alpha);
  }
}

/// Lane count of the batched Kahan reduction. Part of the numerical spec, not
/// a tuning knob: F(u) is defined as 8 strided compensated chains combined in
/// fixed lane order, so the value must never vary with the target ISA (8
/// doubles = one zmm register on AVX-512, two ymm on AVX2, four xmm on SSE2 —
/// all profitable; 16 spills the SSE2 register file).
inline constexpr std::size_t kKahanLanes = 8;

/// One transmitter's contribution P·g/δ^α from SoA arrays — the one term
/// both accumulators fold and the scalar twin of the kernel's loop body
/// (same expressions, same association, so the same bits). The candidate
/// pass recomputes only its ~Δ·p candidates through this instead of storing
/// all T per-element contributions, keeping the hot loops store-free.
template <AlphaProfile P>
inline double contribution_at(const double* x, const double* y,
                              const double* w, std::size_t j, double ux,
                              double uy, double half_alpha) {
  const double dx = ux - x[j];
  const double dy = uy - y[j];
  const double d_sq = dx * dx + dy * dy;
  return w[j] / pow_alpha_profiled<P>(d_sq, half_alpha);
}

/// The fused SoA accumulation kernel: one pass over contiguous x/y/w arrays
/// computes distance → δ^α → contribution and folds each contribution into
/// one of kKahanLanes independent Kahan chains (lane l takes elements
/// j ≡ l mod 8). The loop body is branch-free, store-free and carries no
/// loop-wide serial dependency — each lane's chain advances once per 8
/// elements — so the compiler vectorizes it (`#pragma omp simd`; see
/// docs/KERNELS.md for the -fopt-info-vec recipe). Returns the lane partials
/// combined in fixed order: Kahan over s₀..s₇ then -c₀..-c₇ — a pure
/// function of the element sequence, independent of the ISA.
template <AlphaProfile P>
double field_accumulate_lanes(const double* x, const double* y,
                              const double* w, std::size_t count, double ux,
                              double uy, double half_alpha) {
  double sum[kKahanLanes] = {0.0};
  double carry[kKahanLanes] = {0.0};
  std::size_t j = 0;
  for (; j + kKahanLanes <= count; j += kKahanLanes) {
#pragma omp simd
    for (std::size_t l = 0; l < kKahanLanes; ++l) {
      const double p = contribution_at<P>(x, y, w, j + l, ux, uy, half_alpha);
      const double yk = p - carry[l];
      const double t = sum[l] + yk;
      carry[l] = (t - sum[l]) - yk;
      sum[l] = t;
    }
  }
  // Tail: the last count % 8 elements continue the round-robin lane
  // assignment, exactly as a scalar replay of the spec would.
  for (; j < count; ++j) {
    const std::size_t l = j % kKahanLanes;
    const double p = contribution_at<P>(x, y, w, j, ux, uy, half_alpha);
    const double yk = p - carry[l];
    const double t = sum[l] + yk;
    carry[l] = (t - sum[l]) - yk;
    sum[l] = t;
  }
  KahanSum total;
  for (std::size_t l = 0; l < kKahanLanes; ++l) total.add(sum[l]);
  for (std::size_t l = 0; l < kKahanLanes; ++l) total.add(-carry[l]);
  return total.total();
}

/// kField's accumulator: the same contribution_at terms folded into one
/// KahanSum in ascending transmitter order. It does not vectorize (one
/// loop-carried chain) but skips the lane combine, which pays off when T is
/// small.
template <AlphaProfile P>
double field_accumulate_serial(const double* x, const double* y,
                               const double* w, std::size_t count, double ux,
                               double uy, double half_alpha) {
  KahanSum total;
  for (std::size_t j = 0; j < count; ++j) {
    total.add(contribution_at<P>(x, y, w, j, ux, uy, half_alpha));
  }
  return total.total();
}

using FieldKernelFn = double (*)(const double*, const double*, const double*,
                                 std::size_t, double, double, double);
using FieldContribFn = double (*)(const double*, const double*, const double*,
                                  std::size_t, double, double, double);

/// The accumulator table: one pre-instantiated F(u) sum per (engine kind,
/// α profile), selected once per slot (never inside the hot loop). kSimd
/// takes the 8-lane kernel, kField the serial chain; kNaive never reaches
/// the engine. Extending the kernel to a new α fast path = add an
/// AlphaProfile entry, a pow_alpha_profiled branch, its pow_alpha_from_sq
/// twin, and a row in each table here.
inline FieldKernelFn field_kernel_for(ResolveKind kind, AlphaProfile profile) {
  static constexpr FieldKernelFn kLanes[] = {
      &field_accumulate_lanes<AlphaProfile::kCube>,
      &field_accumulate_lanes<AlphaProfile::kQuartic>,
      &field_accumulate_lanes<AlphaProfile::kSextic>,
      &field_accumulate_lanes<AlphaProfile::kGeneral>,
  };
  static constexpr FieldKernelFn kSerial[] = {
      &field_accumulate_serial<AlphaProfile::kCube>,
      &field_accumulate_serial<AlphaProfile::kQuartic>,
      &field_accumulate_serial<AlphaProfile::kSextic>,
      &field_accumulate_serial<AlphaProfile::kGeneral>,
  };
  const auto i = static_cast<std::size_t>(profile);
  return kind == ResolveKind::kSimd ? kLanes[i] : kSerial[i];
}

/// Companion table for the scalar per-candidate recompute.
inline FieldContribFn field_contrib_for(AlphaProfile profile) {
  static constexpr FieldContribFn kTable[] = {
      &contribution_at<AlphaProfile::kCube>,
      &contribution_at<AlphaProfile::kQuartic>,
      &contribution_at<AlphaProfile::kSextic>,
      &contribution_at<AlphaProfile::kGeneral>,
  };
  return kTable[static_cast<std::size_t>(profile)];
}

/// Batch per-slot resolver with reusable scratch. Enumerates the listeners
/// covered by any transmitter, evaluates F(u) once per covered listener, and
/// reports every successful decode sorted by listener id.
class FieldEngine {
 public:
  struct Decode {
    std::uint32_t listener;
    std::uint32_t tx;    ///< index into the transmitter span
    /// Achieved SINR over β, exact whenever a margin histogram reads it
    /// (radio::InterferenceModel::set_margin_histogram). Without one, a
    /// decode the naive kernel certified from fade brackets carries a
    /// lower bound on it, still ≥ 1.
    double margin;
  };

  /// Pre-sizes every scratch buffer to its structural bound (`nodes`
  /// listeners / transmitters) so resolve_slot never allocates afterwards —
  /// amortized growth would otherwise spike on whichever late slot happens
  /// to set a coverage record, breaking the zero-allocation steady-state
  /// contract. About 52 bytes per node and 12 per candidate pair.
  /// `candidate_pairs` bounds the (listener, tx) pair arena: every pair has
  /// δ ≤ R_T, so Σ_tx |coverage(tx)| ≤ n·(Δ+1) when every node transmits —
  /// callers pass n·(max_degree+1).
  void reserve(std::size_t nodes, std::size_t candidate_pairs = 0) {
    if (touched_.size() < nodes) touched_.resize(nodes, 0);
    covered_.reserve(nodes);
    soa_x_.reserve(nodes);
    soa_y_.reserve(nodes);
    soa_w_.reserve(nodes);
    if (cand_begin_.size() < nodes) {
      cand_begin_.resize(nodes, 0);
      cand_count_.resize(nodes, 0);
    }
    pairs_.reserve(candidate_pairs);
    cand_idx_.reserve(candidate_pairs);
    weights_.reserve(nodes);
  }

  /// `txs` holds the slot's `senders` real transmitters, the only decode
  /// candidates, followed by any jammers, which only add to F(u).
  /// `positions[u]` is listener u's location; `listening[u]` gates
  /// eligibility (transmitting or asleep nodes are skipped).
  /// `fill_weights(u, w)` writes listener u's weight w[j] = P·g(u, j) for
  /// every transmitter j (P itself on the paper's channel, where P·1 is
  /// bitwise P); `weights_listener_invariant` declares that every listener
  /// gets the same weights (true without fading, jammers included), letting
  /// the weight array be filled once per slot instead of once per listener.
  /// `coverage_for(j)` returns sender j's candidate-listener span, its UDG
  /// neighborhood (δ ≤ R_T is exactly adjacency when the graph radius
  /// equals R_T, the same structural fact the naive path iterates). `kind`
  /// selects the F(u) accumulator (kField or kSimd; kNaive is handled by
  /// the medium, not here). Results land in `decodes`, cleared first, in
  /// ascending listener order, each with tx < `senders`.
  template <typename FillWeights, typename CoverageFor>
  void resolve_slot(const SinrParams& params, std::span<const Transmitter> txs,
                    std::size_t senders,
                    std::span<const geometry::Point> positions,
                    std::span<const std::uint8_t> listening,
                    FillWeights&& fill_weights,
                    bool weights_listener_invariant,
                    CoverageFor&& coverage_for, ResolveKind kind,
                    std::vector<Decode>& decodes) {
    decodes.clear();
    SINRCOLOR_DCHECK(senders <= txs.size());
    if (senders == 0) return;
    collect_covered(senders, listening, coverage_for);

    if (!covered_.empty()) {
      build_candidate_csr();
      // SoA snapshot of the transmitter batch. Weights fold power·gain so the
      // accumulator body is a single divide; with listener-invariant gains
      // they are computed once here, otherwise per listener into weights_.
      soa_x_.clear();
      soa_y_.clear();
      for (const Transmitter& t : txs) {
        soa_x_.push_back(t.position.x);
        soa_y_.push_back(t.position.y);
      }
      if (weights_listener_invariant) {
        soa_w_.resize(txs.size());
        fill_weights(covered_.front(), soa_w_.data());
      }
    }
    const AlphaProfile profile = classify_alpha(params.alpha);
    const FieldKernelFn accumulate = field_kernel_for(kind, profile);
    const FieldContribFn contrib = field_contrib_for(profile);
    const double half_alpha = params.alpha / 2.0;
    const auto decode_covered = [&] {
      const double* x = soa_x_.data();
      const double* y = soa_y_.data();
      for (const std::uint32_t u : covered_) {
        const double* w = soa_w_.data();
        if (!weights_listener_invariant) {
          if (weights_.size() < txs.size()) weights_.resize(txs.size());
          fill_weights(u, weights_.data());
          w = weights_.data();
        }
        const double ux = positions[u].x;
        const double uy = positions[u].y;
        const double field =
            accumulate(x, y, w, txs.size(), ux, uy, half_alpha);
        // Both accumulators are branch-free; a coincident transmitter shows
        // up here as δ² = 0 ⇒ p = ∞ ⇒ F = ∞/NaN.
        SINRCOLOR_CHECK_MSG(std::isfinite(field),
                            "transmitter coincides with listener");
        // Candidate pass over the coverage CSR (ascending tx order); each
        // candidate's signal is recomputed through contribution_at — the
        // same bits the accumulator folded into F. The unique candidate (if
        // any) with signal ≥ β·(N + F − signal) decodes; with β ≥ 1 at most
        // one candidate can carry more than half the received power.
        double margin = 0.0;
        std::optional<std::uint32_t> winner;
        const std::uint32_t cb = cand_begin_[u];
        for (std::uint32_t i = 0; i < cand_count_[u]; ++i) {
          const std::uint32_t j = cand_idx_[cb + i];
          const double signal = contrib(x, y, w, j, ux, uy, half_alpha);
          const double threshold =
              params.beta * (params.noise + (field - signal));
          if (signal >= threshold) {
            SINRCOLOR_CHECK_MSG(!winner.has_value(),
                                "beta >= 1 forbids two decodable senders");
            winner = j;
            margin = signal / threshold;
          }
        }
        if (winner.has_value()) decodes.push_back({u, *winner, margin});
      }
    };
    // One kFieldAccum scope per resolve when profiling. The scope lives out
    // here — NOT inside decode_covered — so the unprofiled path runs the hot
    // loop with no scope object bracketing it (a live non-trivial destructor
    // around the loop measurably pessimizes its codegen).
    if (profiler_ == nullptr) {
      decode_covered();
    } else {
      SINRCOLOR_PROFILE(profiler_, obs::Phase::kFieldAccum);
      decode_covered();
    }
  }

  /// Attaches the slot-phase profiler (null = off); one kFieldAccum scope is
  /// recorded per resolve. Timing only — decodes are unaffected.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  /// Heap footprint of the engine's scratch (capacities, all buffers),
  /// feeding the simulator's bytes/node accounting.
  std::size_t memory_bytes() const {
    return touched_.capacity() * sizeof(std::uint64_t) +
           covered_.capacity() * sizeof(std::uint32_t) +
           (soa_x_.capacity() + soa_y_.capacity() + soa_w_.capacity() +
            weights_.capacity()) *
               sizeof(double) +
           pairs_.capacity() * sizeof(CandidatePair) +
           (cand_begin_.capacity() + cand_count_.capacity() +
            cand_idx_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  /// Gathers the slot's covered listeners (ascending) and every
  /// (listener, sender) candidate pair, sender-outer. A sender's candidate
  /// listeners are exactly its UDG neighbors (same δ ≤ R_T gate, same d²
  /// bits at graph-build time), already materialized as a sorted CSR span —
  /// no cell scan, no distance recomputation.
  template <typename CoverageFor>
  void collect_covered(std::size_t senders,
                       std::span<const std::uint8_t> listening,
                       CoverageFor&& coverage_for) {
    if (touched_.size() < listening.size()) touched_.resize(listening.size(), 0);
    ++epoch_;
    covered_.clear();
    pairs_.clear();
    for (std::uint32_t tx_id = 0; tx_id < senders; ++tx_id) {
      for (const std::uint32_t u : coverage_for(std::size_t{tx_id})) {
        if (!listening[u]) continue;
        pairs_.push_back({u, tx_id});
        if (touched_[u] == epoch_) continue;
        touched_[u] = epoch_;
        covered_.push_back(u);
      }
    }
    std::sort(covered_.begin(), covered_.end());
  }

  /// Scatters the coverage pairs into per-listener candidate lists (CSR over
  /// cand_idx_). pairs_ is tx-ascending per listener (outer loop order) and
  /// the counting-sort scatter is stable, so each listener's candidates come
  /// out in ascending transmitter order.
  void build_candidate_csr() {
    const std::size_t nodes = touched_.size();
    if (cand_begin_.size() < nodes) {
      cand_begin_.resize(nodes, 0);
      cand_count_.resize(nodes, 0);
    }
    for (const std::uint32_t u : covered_) cand_count_[u] = 0;
    for (const CandidatePair& pair : pairs_) ++cand_count_[pair.listener];
    std::uint32_t offset = 0;
    for (const std::uint32_t u : covered_) {
      cand_begin_[u] = offset;
      offset += cand_count_[u];
      cand_count_[u] = 0;
    }
    if (cand_idx_.size() < offset) cand_idx_.resize(offset);
    for (const CandidatePair& pair : pairs_) {
      cand_idx_[cand_begin_[pair.listener] + cand_count_[pair.listener]++] =
          pair.tx;
    }
  }

  struct CandidatePair {
    std::uint32_t listener;
    std::uint32_t tx;
  };

  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> touched_;
  std::vector<std::uint32_t> covered_;
  // SoA transmitter snapshot plus the coverage-pair CSR.
  std::vector<double> soa_x_;
  std::vector<double> soa_y_;
  std::vector<double> soa_w_;
  std::vector<CandidatePair> pairs_;
  std::vector<std::uint32_t> cand_begin_;
  std::vector<std::uint32_t> cand_count_;
  std::vector<std::uint32_t> cand_idx_;
  std::vector<double> weights_;  ///< per-listener P·g(j) (fading only)
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace sinrcolor::sinr
