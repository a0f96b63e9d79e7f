// Unit tests for the SoA accumulators' numerical spec
// (sinr/field_engine.h, docs/KERNELS.md): the α specializations must be
// a bitwise twin of the scalar pow_alpha_from_sq fast paths, the blocked
// 8-lane batched-Kahan kernel (kSimd) must reproduce — bit for bit — a plain
// scalar replay of its definition ("lane l takes elements j ≡ l mod 8, lanes
// combined in fixed order") at every tail size, including the pure-tail
// counts below one full block, and the serial accumulator (kField) must be
// exactly one KahanSum over the same terms in ascending order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sinr/field_engine.h"
#include "sinr/medium_field.h"

namespace sinrcolor::sinr {
namespace {

TEST(SimdKernel, ClassifyAlphaBoundaries) {
  EXPECT_EQ(classify_alpha(3.0), AlphaProfile::kCube);
  EXPECT_EQ(classify_alpha(4.0), AlphaProfile::kQuartic);
  EXPECT_EQ(classify_alpha(6.0), AlphaProfile::kSextic);
  // Anything off the three exact fast-path exponents must take the general
  // std::pow fallback — including values adjacent to a boundary.
  EXPECT_EQ(classify_alpha(2.0), AlphaProfile::kGeneral);
  EXPECT_EQ(classify_alpha(3.5), AlphaProfile::kGeneral);
  EXPECT_EQ(classify_alpha(5.0), AlphaProfile::kGeneral);
  EXPECT_EQ(classify_alpha(std::nextafter(4.0, 5.0)), AlphaProfile::kGeneral);
  EXPECT_EQ(classify_alpha(std::nextafter(6.0, 5.0)), AlphaProfile::kGeneral);
}

TEST(SimdKernel, PowAlphaProfiledIsBitwiseTwinOfScalarFastPaths) {
  // The equivalence argument in docs/KERNELS.md rests on each profile
  // multiplying in the same association as its pow_alpha_from_sq twin, so
  // the two are EXACTLY equal — not merely close — for every input.
  common::Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform(1e-3, 8.0);
    const double d_sq = d * d;
    EXPECT_EQ(pow_alpha_profiled<AlphaProfile::kCube>(d_sq, 1.5),
              pow_alpha_from_sq(d_sq, 3.0));
    EXPECT_EQ(pow_alpha_profiled<AlphaProfile::kQuartic>(d_sq, 2.0),
              pow_alpha_from_sq(d_sq, 4.0));
    EXPECT_EQ(pow_alpha_profiled<AlphaProfile::kSextic>(d_sq, 3.0),
              pow_alpha_from_sq(d_sq, 6.0));
    EXPECT_EQ(pow_alpha_profiled<AlphaProfile::kGeneral>(d_sq, 3.5 / 2.0),
              pow_alpha_from_sq(d_sq, 3.5));
  }
}

/// Independent scalar replay of the kernel's numerical spec: one plain
/// round-robin loop (no blocking), δ^α via the scalar pow_alpha_from_sq,
/// lanes combined in the fixed order (s₀..s₇ then -c₀..-c₇). Any divergence
/// between the blocked kernel and this replay is a spec violation.
double replay_lane_spec(const std::vector<double>& x,
                        const std::vector<double>& y,
                        const std::vector<double>& w, double ux, double uy,
                        double alpha) {
  double sum[kKahanLanes] = {0.0};
  double carry[kKahanLanes] = {0.0};
  for (std::size_t j = 0; j < x.size(); ++j) {
    const std::size_t l = j % kKahanLanes;
    const double dx = ux - x[j];
    const double dy = uy - y[j];
    const double p = w[j] / pow_alpha_from_sq(dx * dx + dy * dy, alpha);
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

void fill_soa(std::size_t count, common::Rng& rng, std::vector<double>& x,
              std::vector<double>& y, std::vector<double>& w) {
  x.resize(count);
  y.resize(count);
  w.resize(count);
  for (std::size_t j = 0; j < count; ++j) {
    x[j] = rng.uniform(0.0, 6.0);
    y[j] = rng.uniform(0.0, 6.0);
    w[j] = rng.uniform(0.25, 2.0);  // mixed weights, as under fading gains
  }
}

TEST(SimdKernel, KernelMatchesScalarReplayAcrossTailSizes) {
  // Counts straddle every tail shape: empty, pure tail (< 8), exactly one
  // block, block + partial tail, and multi-block.
  const std::size_t counts[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100, 257};
  common::Rng rng(91);
  std::vector<double> x, y, w;
  for (const double alpha : {3.0, 4.0, 6.0, 3.5}) {
    const AlphaProfile profile = classify_alpha(alpha);
    const auto [kernel, serial, contrib] =
        with_alpha_profile(profile, [](auto p) {
          constexpr AlphaProfile P = decltype(p)::value;
          return std::tuple{&field_accumulate_lanes<P>,
                            &field_accumulate_serial<P>, &contribution_at<P>};
        });
    for (const std::size_t count : counts) {
      fill_soa(count, rng, x, y, w);
      const double ux = rng.uniform(0.0, 6.0);
      const double uy = rng.uniform(0.0, 6.0);
      const double got =
          kernel(x.data(), y.data(), w.data(), count, ux, uy, alpha / 2.0);
      const double want = replay_lane_spec(x, y, w, ux, uy, alpha);
      EXPECT_EQ(got, want) << "alpha " << alpha << " count " << count;
      // kField's F(u): one Kahan chain over the same terms, ascending.
      KahanSum chain;
      for (std::size_t j = 0; j < count; ++j) {
        chain.add(contrib(x.data(), y.data(), w.data(), j, ux, uy,
                          alpha / 2.0));
      }
      EXPECT_EQ(
          serial(x.data(), y.data(), w.data(), count, ux, uy, alpha / 2.0),
          chain.total())
          << "serial, alpha " << alpha << " count " << count;
    }
  }
}

TEST(SimdKernel, ContribTableMatchesScalarTerm) {
  // The per-candidate recompute path must produce the same bits as the
  // naive per-term expression w / δ^α for every profile.
  common::Rng rng(55);
  std::vector<double> x, y, w;
  fill_soa(32, rng, x, y, w);
  const double ux = rng.uniform(0.0, 6.0);
  const double uy = rng.uniform(0.0, 6.0);
  for (const double alpha : {3.0, 4.0, 6.0, 3.5}) {
    const auto contrib = with_alpha_profile(
        classify_alpha(alpha),
        [](auto p) { return &contribution_at<decltype(p)::value>; });
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double dx = ux - x[j];
      const double dy = uy - y[j];
      const double want = w[j] / pow_alpha_from_sq(dx * dx + dy * dy, alpha);
      EXPECT_EQ(contrib(x.data(), y.data(), w.data(), j, ux, uy, alpha / 2.0),
                want)
          << "alpha " << alpha << " j " << j;
    }
  }
}

TEST(SimdKernel, EmptyInputYieldsZeroField) {
  const auto kernel = with_alpha_profile(AlphaProfile::kQuartic, [](auto p) {
    return &field_accumulate_lanes<decltype(p)::value>;
  });
  EXPECT_EQ(kernel(nullptr, nullptr, nullptr, 0, 1.0, 2.0, 2.0), 0.0);
}

}  // namespace
}  // namespace sinrcolor::sinr
