// Deterministic, fast pseudo-random number generation.
//
// All randomness in the library flows from a single 64-bit seed. Per-node /
// per-purpose streams are derived with SplitMix64 so that adding a consumer
// never perturbs the stream of another (important for reproducible
// experiments across code revisions). The core generator is xoshiro256++,
// which is much faster than std::mt19937_64 and has identical output on every
// platform (std distributions are not portable; ours are hand-rolled).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace sinrcolor::common {

/// SplitMix64 step; used for seeding and stream derivation.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derive an independent child seed from (seed, stream_id).
constexpr std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream_id) {
  std::uint64_t s = seed ^ (0x6a09e667f3bcc909ULL + stream_id * 0x3c6ef372fe94f82bULL);
  // Two splitmix rounds to decorrelate nearby stream ids.
  (void)splitmix64(s);
  return splitmix64(s);
}

/// xoshiro256++ generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Undoes one operator() call: the state update is a bijection, so the
  /// stream can be walked back without a stored copy. Run in reverse:
  /// rotl(·, 19) undoes rotl(·, 45); s1 ^ s2 leaves y = s1 ^ (s1 << 17),
  /// and y ^= y << 17, y ^= y << 34 multiply it by (I + L + L² + L³), the
  /// inverse of (I + L) over GF(2) because L⁴ (a shift by 68) is zero.
  void step_back() {
    const std::uint64_t s3 = rotl(state_[3], 19);  // s3 ^ s1 before rotl
    const std::uint64_t s0 = state_[0] ^ s3;
    std::uint64_t s1 = state_[1] ^ state_[2];
    s1 ^= s1 << 17;
    s1 ^= s1 << 34;
    const std::uint64_t s2 = state_[1] ^ s1;  // s2 ^ s0 before s1 ^= s2
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2 ^ s0;
    state_[3] = s3 ^ s1;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  std::uint64_t below(std::uint64_t bound) {
    SINRCOLOR_CHECK(bound > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    SINRCOLOR_CHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Derive a child generator with an independent stream.
  Rng fork(std::uint64_t stream_id) {
    return Rng{derive_seed((*this)(), stream_id)};
  }

  /// Same state, so the same stream from here on.
  bool operator==(const Rng&) const = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Fisher–Yates shuffle with our deterministic generator.
template <typename Container>
void shuffle(Container& c, Rng& rng) {
  const auto n = c.size();
  if (n < 2) return;
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.below(i + 1));
    using std::swap;
    swap(c[i], c[j]);
  }
}

}  // namespace sinrcolor::common
