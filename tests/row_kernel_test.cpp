// Row-kernel oracle suite: the SINR medium's naive resolve path
// (ResolveKind::kNaive, the row kernel in radio/interference_model.cpp) must
// reproduce the textbook per-(sender, listener) loop bit for bit. The loop
// below is that oracle: for every pair it re-sums every transmitter's gained
// power, signal and interference alike, in ascending order from 0.0, and
// applies s ≥ β·(N + I). The kernel reorders the work into one SoA row per
// transmitter, batches the row's fades and drops a listener early under
// fading, so the suite compares the full reception list (listener, tx), in
// order, and the radio.sinr_margin histogram's counts and sum, whose bits
// depend on every margin and on the order they were recorded in. Every
// channel runs twice: observed (histogram attached, exact passes only) and
// unobserved, where a log-normal channel settles most listeners from
// certified fade brackets first.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "obs/metrics.h"
#include "radio/interference_model.h"
#include "sinr/fading.h"
#include "sinr/medium_field.h"

namespace sinrcolor {
namespace {

/// The radio.sinr_margin bucket edges the simulator attaches.
const std::vector<double> kMarginEdges = {1.0, 1.25, 1.5, 2.0,
                                          3.0, 5.0,  10.0, 100.0};

struct OracleDecode {
  graph::NodeId listener;
  std::uint32_t tx;
  double margin;
};

/// The per-pair naive loop: for every (real transmitter i, listening UDG
/// neighbour u) pair — only neighbours can pass the δ ≤ R_T gate — sums the
/// gained power of every transmitter at u, jammers last, and decodes iff
/// s ≥ β·(N + I). A real transmitter's gain is its fade (1 without
/// fading), a jammer's its power over the medium's base power. Decodes come
/// out sender-major.
std::vector<OracleDecode> per_pair_oracle(
    const graph::UnitDiskGraph& g, sinr::SinrParams phys,
    const sinr::FadingSpec& fading, radio::Slot slot,
    std::span<const radio::TxRecord> transmissions,
    std::span<const std::uint8_t> listening,
    const radio::ChannelDisturbance* disturbance) {
  const double base_power = phys.power;
  std::vector<sinr::Transmitter> txs;
  for (const radio::TxRecord& t : transmissions) {
    txs.push_back({g.position(t.sender)});
  }
  std::span<const radio::Jammer> jammers;
  if (disturbance != nullptr) {
    phys.noise *= disturbance->noise_factor;
    jammers = disturbance->jammers;
    for (const radio::Jammer& jam : jammers) txs.push_back({jam.position});
  }
  const auto gain = [&](graph::NodeId u, std::size_t j) {
    if (j >= transmissions.size()) {
      return jammers[j - transmissions.size()].power / base_power;
    }
    if (!fading.enabled()) return 1.0;
    return sinr::fade_factor(fading, slot, u, transmissions[j].sender);
  };
  std::vector<OracleDecode> decodes;
  for (std::size_t i = 0; i < transmissions.size(); ++i) {
    for (graph::NodeId u : g.neighbors(transmissions[i].sender)) {
      if (!listening[u]) continue;
      double signal = 0.0;
      double interference = 0.0;
      for (std::size_t j = 0; j < txs.size(); ++j) {
        const double d_sq =
            geometry::distance_sq(g.position(u), txs[j].position);
        const double power = phys.power * gain(u, j) /
                             sinr::pow_alpha_from_sq(d_sq, phys.alpha);
        (j == i ? signal : interference) += power;
      }
      const double threshold = phys.beta * (phys.noise + interference);
      if (signal >= threshold) {
        decodes.push_back(
            {u, static_cast<std::uint32_t>(i), signal / threshold});
      }
    }
  }
  return decodes;
}

graph::UnitDiskGraph random_graph(std::size_t n, double side,
                                  std::uint64_t seed) {
  common::Rng rng(seed);
  return graph::UnitDiskGraph(geometry::uniform_deployment(n, side, rng), 1.0);
}

struct Channel {
  sinr::FadingSpec fading;
  const radio::ChannelDisturbance* disturbance = nullptr;
  double alpha = 4.0;
};

/// Resolves `slots` random slots (each node transmits w.p. `tx_prob`, the
/// rest listen) through two kNaive media and the oracle: one observed by a
/// margin histogram, one not, which under log-normal fading runs the
/// bracket pre-filter. Both reception lists must agree with the oracle
/// entry by entry, and the observed margin histogram in every bucket and in
/// the bits of its sum. Returns the number of receptions.
std::size_t expect_matches_oracle(const graph::UnitDiskGraph& g,
                                  const Channel& channel, double tx_prob,
                                  std::size_t slots, std::uint64_t seed) {
  sinr::SinrParams base;
  base.alpha = channel.alpha;
  const sinr::SinrParams phys = base.with_r_t(g.radius());
  radio::SinrInterferenceModel observed(g, phys, channel.fading,
                                        sinr::ResolveKind::kNaive);
  radio::SinrInterferenceModel unobserved(g, phys, channel.fading,
                                          sinr::ResolveKind::kNaive);
  observed.set_disturbance(channel.disturbance);
  unobserved.set_disturbance(channel.disturbance);
  obs::Histogram medium_margins(kMarginEdges);
  obs::Histogram oracle_margins(kMarginEdges);
  observed.set_margin_histogram(&medium_margins);

  common::Rng rng(seed);
  std::vector<radio::TxRecord> txs;
  std::vector<std::uint8_t> listening;
  std::vector<radio::Reception> receptions;
  std::size_t received = 0;
  for (std::size_t t = 0; t < slots; ++t) {
    const auto slot = static_cast<radio::Slot>(t);
    txs.clear();
    listening.assign(g.size(), 1);
    for (graph::NodeId v = 0; v < g.size(); ++v) {
      if (!rng.bernoulli(tx_prob)) continue;
      radio::Message m;
      m.sender = v;
      txs.push_back({v, m});
      listening[v] = 0;
    }
    const auto oracle = per_pair_oracle(g, phys, channel.fading, slot, txs,
                                        listening, channel.disturbance);
    for (radio::SinrInterferenceModel* medium : {&observed, &unobserved}) {
      medium->resolve(slot, txs, listening, receptions);
      const char* run = medium == &observed ? "observed" : "unobserved";
      EXPECT_EQ(receptions.size(), oracle.size()) << run << " slot " << t;
      for (std::size_t k = 0; k < receptions.size() && k < oracle.size();
           ++k) {
        EXPECT_EQ(receptions[k].listener, oracle[k].listener)
            << run << " slot " << t << " entry " << k;
        EXPECT_EQ(receptions[k].tx, oracle[k].tx)
            << run << " slot " << t << " entry " << k;
      }
    }
    for (const OracleDecode& d : oracle) oracle_margins.record(d.margin);
    received += oracle.size();
  }
  EXPECT_EQ(medium_margins.total(), oracle_margins.total());
  for (std::size_t b = 0; b < oracle_margins.bucket_count(); ++b) {
    EXPECT_EQ(medium_margins.bucket(b), oracle_margins.bucket(b))
        << "bucket " << b;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(medium_margins.sum()),
            std::bit_cast<std::uint64_t>(oracle_margins.sum()))
      << medium_margins.sum() << " vs " << oracle_margins.sum();
  return received;
}

sinr::FadingSpec log_normal(double sigma_db, bool frozen = false) {
  sinr::FadingSpec spec;
  spec.kind = sinr::FadingKind::kLogNormal;
  spec.sigma_db = sigma_db;
  spec.static_per_link = frozen;
  return spec;
}

sinr::FadingSpec rayleigh() {
  sinr::FadingSpec spec;
  spec.kind = sinr::FadingKind::kRayleigh;
  return spec;
}

TEST(RowKernel, PlainChannelMatchesThePerPairLoop) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto g = random_graph(150, 4.0, seed);
    for (const double tx_prob : {0.02, 0.1}) {
      EXPECT_GT(expect_matches_oracle(g, {}, tx_prob, 40, 10 + seed), 0u)
          << "seed " << seed << " tx_prob " << tx_prob;
    }
  }
}

TEST(RowKernel, EveryAlphaProfileMatchesThePerPairLoop) {
  // α = 3, 6 and 3.5 take the kCube, kSextic and kGeneral instantiations
  // (α = 4, kQuartic, is every other test's default).
  const auto g = random_graph(150, 4.0, 4);
  for (const double alpha : {3.0, 6.0, 3.5}) {
    Channel channel;
    channel.alpha = alpha;
    EXPECT_GT(expect_matches_oracle(g, channel, 0.05, 30, 20), 0u)
        << "alpha " << alpha;
    channel.fading = log_normal(6.0);
    EXPECT_GT(expect_matches_oracle(g, channel, 0.05, 30, 21), 0u)
        << "faded alpha " << alpha;
  }
}

TEST(RowKernel, LogNormalMatchesThePerPairLoop) {
  // The benchmark's channel. σ = 12 drops the most listeners early.
  for (const std::uint64_t seed : {5u, 6u}) {
    const auto g = random_graph(150, 4.0, seed);
    for (const double sigma : {6.0, 12.0}) {
      for (const bool frozen : {false, true}) {
        Channel channel;
        channel.fading = log_normal(sigma, frozen);
        EXPECT_GT(expect_matches_oracle(g, channel, 0.05, 30, 30 + seed), 0u)
            << "seed " << seed << " sigma " << sigma << " frozen " << frozen;
      }
    }
  }
}

TEST(RowKernel, RayleighMatchesThePerPairLoop) {
  for (const std::uint64_t seed : {7u, 8u}) {
    const auto g = random_graph(150, 4.0, seed);
    Channel channel;
    channel.fading = rayleigh();
    EXPECT_GT(expect_matches_oracle(g, channel, 0.05, 30, 40 + seed), 0u)
        << "seed " << seed;
  }
}

TEST(RowKernel, JammersAndNoiseMatchThePerPairLoop) {
  // Two jammers (one strong, one weak) with a raised noise floor, on the
  // plain channel and under both fade laws; then a noise factor alone.
  const auto g = random_graph(150, 4.0, 9);
  const radio::Jammer jammers[] = {{{2.05, 1.95}, 0.5, 0.0},
                                   {{0.37, 3.61}, 0.05, 0.0}};
  const radio::ChannelDisturbance jammed{1.3, jammers};
  const radio::ChannelDisturbance noisy{1.7, {}};
  for (const sinr::FadingSpec& fading :
       {sinr::FadingSpec{}, log_normal(6.0), rayleigh()}) {
    for (const radio::ChannelDisturbance* disturbance : {&jammed, &noisy}) {
      Channel channel;
      channel.fading = fading;
      channel.disturbance = disturbance;
      EXPECT_GT(expect_matches_oracle(g, channel, 0.05, 30, 50), 0u)
          << "fading " << static_cast<int>(fading.kind)
          << (disturbance == &jammed ? " jammed" : " noisy");
    }
  }
}

TEST(RowKernel, SlotWhereEveryCandidateFailsTheNoiseTest) {
  // A noise floor 10^16 times the medium's: a signal clears β·N only from
  // closer than 10^-4·R_T, so no candidate does, and under fading every
  // listener leaves its row after the signal pass.
  const auto g = random_graph(150, 4.0, 10);
  const radio::ChannelDisturbance deafening{1e16, {}};
  for (const sinr::FadingSpec& fading : {sinr::FadingSpec{}, log_normal(6.0)}) {
    Channel channel;
    channel.fading = fading;
    channel.disturbance = &deafening;
    EXPECT_EQ(expect_matches_oracle(g, channel, 0.05, 10, 60), 0u)
        << "fading " << static_cast<int>(fading.kind);
  }
}

TEST(RowKernel, DenseSlotsMatchThePerPairLoop) {
  // Half the nodes transmit: long interference tails, rows cut short.
  const auto g = random_graph(150, 3.0, 11);
  for (const sinr::FadingSpec& fading :
       {sinr::FadingSpec{}, log_normal(6.0), log_normal(12.0), rayleigh()}) {
    Channel channel;
    channel.fading = fading;
    expect_matches_oracle(g, channel, 0.5, 6, 70);
  }
  // A quarter transmits: dense, yet with decodes left to compare. Dense
  // slots are where fade brackets straddle β most often, so the log-normal
  // runs reach the pre-filter's exact passes.
  for (const sinr::FadingSpec& fading :
       {sinr::FadingSpec{}, log_normal(6.0), log_normal(12.0)}) {
    Channel channel;
    channel.fading = fading;
    EXPECT_GT(expect_matches_oracle(g, channel, 0.25, 6, 71), 0u)
        << "fading " << static_cast<int>(fading.kind);
  }
}

}  // namespace
}  // namespace sinrcolor
