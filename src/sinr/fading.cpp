#include "sinr/fading.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/rng.h"

namespace sinrcolor::sinr {
namespace {

// Two independent uniforms in (0, 1) from a link/slot-keyed hash chain.
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
    // (0, 1): never exactly 0 so log() below stays finite.
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

double log_normal_gain(double sigma_db, double u1, double u2) {
  // Box–Muller; gain = 10^{X/10} with X ~ N(0, sigma_db²).
  const double gauss =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return std::pow(10.0, sigma_db * gauss / 10.0);
}

}  // namespace

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
      return log_normal_gain(spec.sigma_db, u1, u2);
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
          out[k] = log_normal_gain(spec.sigma_db, out[k], u2[k - begin]);
        }
      }
      return;
  }
}

}  // namespace sinrcolor::sinr
