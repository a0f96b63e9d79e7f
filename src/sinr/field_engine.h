// The numerics of the SINR medium's field resolve (radio/interference_model.h)
// that its kernels and their tests share.
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
// The medium's two field kinds differ only in the F accumulator:
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
// exactly that. F(u) is a pure function of (params, listener, transmitter
// sequence) under either accumulator, independent of the target ISA (the
// lane count is fixed).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace sinrcolor::sinr {

/// Which reception-resolution path a medium runs.
enum class ResolveKind : std::uint8_t {
  kNaive,  ///< per-(sender, listener) interference sums — the reference oracle
  kField,  ///< the field resolve, F(u) summed in one Kahan chain
  kSimd,   ///< the field resolve, F(u) summed in the 8-lane batched kernel
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
/// pow_alpha_from_sq. Every kernel is instantiated once per profile so the
/// δ^α computation in its loop is branch-free multiplies (plus one
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

/// Calls `f(std::integral_constant<AlphaProfile, P>{})` for `profile`'s P,
/// so a kernel templated on the profile is picked once per call, never
/// inside its loop. A new α fast path = an AlphaProfile entry, its
/// pow_alpha_profiled branch and pow_alpha_from_sq twin, and a case here.
template <typename F>
decltype(auto) with_alpha_profile(AlphaProfile profile, F&& f) {
  using enum AlphaProfile;
  switch (profile) {
    case kCube:
      return f(std::integral_constant<AlphaProfile, kCube>{});
    case kQuartic:
      return f(std::integral_constant<AlphaProfile, kQuartic>{});
    case kSextic:
      return f(std::integral_constant<AlphaProfile, kSextic>{});
    case kGeneral:
      break;
  }
  return f(std::integral_constant<AlphaProfile, kGeneral>{});
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

}  // namespace sinrcolor::sinr
