// Stochastic channel fading — a beyond-the-paper robustness substrate.
//
// The paper assumes deterministic path loss P/δ^α. Real channels fade; the
// two standard models are Rayleigh (multipath; power gain ~ Exp(1)) and
// log-normal shadowing (obstacles; gain = 10^{X/10}, X ~ N(0, σ_dB²)).
// Fades can be redrawn every slot (fast fading) or fixed per link
// (quasi-static shadowing). All draws are pure functions of
// (seed, slot, link), so simulations stay bit-reproducible regardless of
// evaluation order.
//
// Note: with β ≥ 1 the "at most one decodable sender per listener" invariant
// survives fading — SINR_i ≥ 1 forces the faded signal i to carry more than
// half of the total received power, which at most one sender can do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace sinrcolor::sinr {

enum class FadingKind : std::uint8_t {
  kNone,       ///< deterministic path loss (the paper's model)
  kRayleigh,   ///< multiplicative power gain ~ Exp(1), unit mean
  kLogNormal,  ///< gain = 10^{X/10}, X ~ N(0, sigma_db²), unit-MEDIAN
};

struct FadingSpec {
  FadingKind kind = FadingKind::kNone;
  double sigma_db = 6.0;        ///< shadowing std-dev (kLogNormal only)
  bool static_per_link = false; ///< true: one draw per link, frozen over time
  std::uint64_t seed = 0x5eedfade;

  bool enabled() const { return kind != FadingKind::kNone; }

  /// The spec's rule list, like SinrParams::violation(): returns the first
  /// violated rule as a one-line diagnostic, or an empty string when the
  /// spec is valid. σ must be finite and ≥ 0 (σ = +∞ would draw gains of 0
  /// or ∞). The SINR medium checks it once at construction, so the batched
  /// fades below need no per-element check.
  std::string violation() const;
};

/// Multiplicative power gain for the (a, b) link in `slot` (ignored when
/// static_per_link). Symmetric in (a, b); strictly positive; equal to 1 when
/// fading is disabled. The scalar reference: it checks σ ≥ 0 on every call.
double fade_factor(const FadingSpec& spec, std::int64_t slot, std::uint32_t a,
                   std::uint32_t b);

/// The batched fades of one endpoint's links: out[k] = the gain of the link
/// (fixed, others[k]) in `slot`, equal to fade_factor(spec, slot, fixed,
/// others[k]) bit for bit (tests/fading_test.cpp). `out` must hold
/// others.size() elements; `others` may sit on either side of `fixed`.
/// The hash chains run ahead of the transcendental calls, since the
/// integer hashing of independent links overlaps and a libm call between
/// two hashes would serialize them (docs/PERFORMANCE.md "Row kernel"). A
/// Rayleigh batch hashes every link before its first `log`. A log-normal
/// batch needs two uniforms per link and stages them on the stack, so it
/// hashes in chunks of kFadeChunk links. The caller guarantees that `spec`
/// passes violation().
void fade_factors(const FadingSpec& spec, std::int64_t slot,
                  std::uint32_t fixed, std::span<const std::uint32_t> others,
                  double* out);

/// Links a log-normal fade_factors call hashes ahead of its transcendental
/// calls; larger than any medium row at the benchmark densities (Δ ≤ 82).
inline constexpr std::size_t kFadeChunk = 128;

/// Certified brackets of one endpoint's log-normal fades: for every k,
/// lo[k] ≤ fade_factor(spec, slot, fixed, others[k]) ≤ hi[k]. Each link
/// draws its two uniforms from the hash chain fade_factors uses, and
/// takes r = √(−2·log u1) from the exact fade's own expression. Only the
/// two costly calls are bracketed: cos(2π·u2) by the endpoint values of
/// u2's cell in a 4096-cell table of cos over one turn, and 10^(σ·r·c/10)
/// = 2^y by 2^(⌊64·y⌋/64) below and 2^(⌈64·y⌉/64) above, from a table of
/// 2^(i/64) and an exact power of two. Both bounds are then widened by a
/// relative 1e-9, which absorbs libm's ≤ 1 ulp errors and the rounding
/// differences of the two evaluations, each under 1e-11 relative
/// (docs/KERNELS.md "Bracketed fades"). A link whose |y| exceeds 1000
/// (σ in the hundreds) gets [0, +∞]. Elsewhere both bounds are finite and
/// positive, and hi/lo ≤ 2^(1/32 + σ·r·log2(10)/10 · 2π/4096), below 1.05
/// for σ ≤ 12 unless u1 < 1.3·10^-9. The tables (about 33 KB) are built
/// once per process, on the first call. `lo` and `hi` must hold
/// others.size() elements. `spec` must be log-normal and pass violation().
void fade_brackets(const FadingSpec& spec, std::int64_t slot,
                   std::uint32_t fixed, std::span<const std::uint32_t> others,
                   double* lo, double* hi);

namespace detail {

/// A certified interval around one fade.
struct FadeBracket {
  double lo;
  double hi;
};

/// The log-normal gain of a link from its two uniforms in (0, 1]: the
/// expression fade_factor evaluates. Exposed with the bracket below so
/// tests can feed edge uniforms the hash chain seldom draws.
double log_normal_gain(double sigma_db, double u1, double u2);

/// The bracket fade_brackets computes for a link with these uniforms.
FadeBracket log_normal_bracket(double sigma_db, double u1, double u2);

}  // namespace detail

}  // namespace sinrcolor::sinr
