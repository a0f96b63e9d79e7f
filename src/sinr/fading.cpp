#include "sinr/fading.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace sinrcolor::sinr {
namespace {

// Two independent uniforms in (0, 1] from a link/slot-keyed hash chain.
struct TwoUniforms {
  double u1;
  double u2;
};

TwoUniforms link_uniforms(const FadingSpec& spec, std::int64_t slot,
                          std::uint32_t a, std::uint32_t b) {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  std::uint64_t key = spec.seed;
  key = common::derive_seed(key, (static_cast<std::uint64_t>(lo) << 32) | hi);
  if (!spec.static_per_link) {
    key = common::derive_seed(key, static_cast<std::uint64_t>(slot));
  }
  std::uint64_t state = key;
  const auto to_unit = [](std::uint64_t bits) {
    // Never exactly 0, so log() below stays finite; the top draws round
    // to exactly 1.0.
    return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
  };
  const double u1 = to_unit(common::splitmix64(state));
  const double u2 = to_unit(common::splitmix64(state));
  return {u1, u2};
}

// The transcendental halves of the two fade laws, shared by the scalar
// reference and the batch so both evaluate the same expressions.
double rayleigh_gain(double u1) {
  // Power gain of a Rayleigh-faded link is exponential with unit mean.
  return -std::log(u1);
}

// The Box–Muller radius r = √(−2·log u1), the one part of a log-normal
// fade its bracket evaluates exactly.
double box_muller_radius(double u1) { return std::sqrt(-2.0 * std::log(u1)); }

// The tables of the fade brackets: cos at the 4097 edges of 4096 equal
// cells of a turn, and 2^(i/64) for i = 0..63. The cell count is even, so
// the turning points of cos (u2 = 0, 1/2, 1) fall on edges and cos is
// monotone inside every cell.
constexpr std::size_t kCosCells = 4096;
constexpr std::size_t kExp2Steps = 64;

struct BracketTables {
  double cos_edge[kCosCells + 1];
  double exp2_step[kExp2Steps];
};

const BracketTables& bracket_tables() {
  static const BracketTables tables = [] {
    BracketTables t;
    for (std::size_t i = 0; i <= kCosCells; ++i) {
      t.cos_edge[i] =
          std::cos(2.0 * M_PI * (static_cast<double>(i) / kCosCells));
    }
    for (std::size_t i = 0; i < kExp2Steps; ++i) {
      t.exp2_step[i] = std::exp2(static_cast<double>(i) / kExp2Steps);
    }
    return t;
  }();
  return tables;
}

// Brackets put the exponent y = σ·log2(10)/10 · r · c of 2^y = 10^(σ·r·c/10)
// on the table's grid only for |y| ≤ kMaxExponent, where every power of
// two they build is a normal double.
constexpr double kMaxExponent = 1000.0;
constexpr double kLog2Of10 = 3.321928094887362347870319;
// The relative widening of both bounds (docs/KERNELS.md "Bracketed fades").
constexpr double kBracketSlack = 1e-9;

// 2^(n/64) for |n| ≤ 64·kMaxExponent: the exact power of two 2^⌊n/64⌋,
// built from its exponent bits, times the table's 2^((n mod 64)/64).
double exp2_on_grid(const BracketTables& t, std::int64_t n) {
  const std::int64_t e = n >> 6;  // ⌊n/64⌋: the shift is arithmetic
  const auto pow2_bits = static_cast<std::uint64_t>(e + 1023) << 52;
  return std::bit_cast<double>(pow2_bits) *
         t.exp2_step[static_cast<std::size_t>(n & 63)];
}

// ⌊64·y⌋ and ⌈64·y⌉ for |y| ≤ kMaxExponent (64·y is exact), by truncation
// rather than libm's floor.
std::int64_t floor_grid(double y) {
  const double s = 64.0 * y;
  const auto n = static_cast<std::int64_t>(s);
  return static_cast<double>(n) > s ? n - 1 : n;
}

std::int64_t ceil_grid(double y) {
  const double s = 64.0 * y;
  const auto n = static_cast<std::int64_t>(s);
  return static_cast<double>(n) < s ? n + 1 : n;
}

// The bracket of log_normal_gain(σ, u1, u2), given y_scale = σ·log2(10)/10.
detail::FadeBracket bracket_of(const BracketTables& t, double y_scale,
                               double u1, double u2) {
  // u2 = 1.0 sits on the last edge and belongs to the last cell.
  const auto cell = std::min(
      static_cast<std::size_t>(static_cast<std::int64_t>(u2 * kCosCells)),
      kCosCells - 1);
  const double c0 = t.cos_edge[cell];
  const double c1 = t.cos_edge[cell + 1];
  const double y_per_c = y_scale * box_muller_radius(u1);  // ≥ 0
  const double y_lo = y_per_c * std::min(c0, c1);
  const double y_hi = y_per_c * std::max(c0, c1);
  // Written so that a NaN exponent takes the fallback too.
  if (!(y_lo >= -kMaxExponent && y_hi <= kMaxExponent)) {
    return {0.0, std::numeric_limits<double>::infinity()};
  }
  return {exp2_on_grid(t, floor_grid(y_lo)) * (1.0 - kBracketSlack),
          exp2_on_grid(t, ceil_grid(y_hi)) * (1.0 + kBracketSlack)};
}

double exponent_scale(double sigma_db) { return sigma_db * kLog2Of10 / 10.0; }

}  // namespace

double detail::log_normal_gain(double sigma_db, double u1, double u2) {
  // Box–Muller; gain = 10^{X/10} with X ~ N(0, sigma_db²).
  const double gauss = box_muller_radius(u1) * std::cos(2.0 * M_PI * u2);
  return std::pow(10.0, sigma_db * gauss / 10.0);
}

detail::FadeBracket detail::log_normal_bracket(double sigma_db, double u1,
                                               double u2) {
  return bracket_of(bracket_tables(), exponent_scale(sigma_db), u1, u2);
}

std::string FadingSpec::violation() const {
  // Written so that NaN fails the rule.
  if (std::isfinite(sigma_db) && sigma_db >= 0.0) return {};
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "shadowing sigma_db must be finite and >= 0, got %g",
                sigma_db);
  return buf;
}

double fade_factor(const FadingSpec& spec, std::int64_t slot, std::uint32_t a,
                   std::uint32_t b) {
  switch (spec.kind) {
    case FadingKind::kNone:
      return 1.0;
    case FadingKind::kRayleigh:
      return rayleigh_gain(link_uniforms(spec, slot, a, b).u1);
    case FadingKind::kLogNormal: {
      SINRCOLOR_CHECK(spec.sigma_db >= 0.0);
      const auto [u1, u2] = link_uniforms(spec, slot, a, b);
      return detail::log_normal_gain(spec.sigma_db, u1, u2);
    }
  }
  return 1.0;
}

void fade_factors(const FadingSpec& spec, std::int64_t slot,
                  std::uint32_t fixed, std::span<const std::uint32_t> others,
                  double* out) {
  const std::size_t count = others.size();
  switch (spec.kind) {
    case FadingKind::kNone:
      std::fill(out, out + count, 1.0);
      return;
    case FadingKind::kRayleigh:
      for (std::size_t k = 0; k < count; ++k) {
        out[k] = link_uniforms(spec, slot, fixed, others[k]).u1;
      }
      for (std::size_t k = 0; k < count; ++k) out[k] = rayleigh_gain(out[k]);
      return;
    case FadingKind::kLogNormal:
      for (std::size_t begin = 0; begin < count; begin += kFadeChunk) {
        const std::size_t end = std::min(count, begin + kFadeChunk);
        // Each element is written before it is read, index for index.
        // Zeroing the array would cost about 30 ns per call, half of a
        // one-link batch, and the engine's per-listener batches are short.
        double u2[kFadeChunk];
        for (std::size_t k = begin; k < end; ++k) {
          const auto uniforms = link_uniforms(spec, slot, fixed, others[k]);
          out[k] = uniforms.u1;
          u2[k - begin] = uniforms.u2;
        }
        for (std::size_t k = begin; k < end; ++k) {
          out[k] =
              detail::log_normal_gain(spec.sigma_db, out[k], u2[k - begin]);
        }
      }
      return;
  }
}

void fade_brackets(const FadingSpec& spec, std::int64_t slot,
                   std::uint32_t fixed, std::span<const std::uint32_t> others,
                   double* lo, double* hi) {
  SINRCOLOR_DCHECK(spec.kind == FadingKind::kLogNormal);
  const BracketTables& tables = bracket_tables();
  const double y_scale = exponent_scale(spec.sigma_db);
  // The hash chains run ahead of the log calls, as in fade_factors; the
  // two outputs stage the uniforms, so no chunking is needed.
  const std::size_t count = others.size();
  for (std::size_t k = 0; k < count; ++k) {
    const auto uniforms = link_uniforms(spec, slot, fixed, others[k]);
    lo[k] = uniforms.u1;
    hi[k] = uniforms.u2;
  }
  for (std::size_t k = 0; k < count; ++k) {
    const auto [bracket_lo, bracket_hi] =
        bracket_of(tables, y_scale, lo[k], hi[k]);
    lo[k] = bracket_lo;
    hi[k] = bracket_hi;
  }
}

}  // namespace sinrcolor::sinr
