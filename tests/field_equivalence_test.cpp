// Field-vs-naive equivalence suite: the shared interference-field fast path
// (sinr/field_engine.h) must deliver EXACTLY the same messages as the naive
// per-(sender, listener) resolution it replaced — across random deployments,
// random transmitter sets, the SINR medium with and without fading or
// jammers, and the per-listener oracle sinr::resolve_reception. The naive
// forms are kept in the tree purely as the A/B oracles exercised here.
//
// The simd kernel path (ResolveKind::kSimd, docs/KERNELS.md) is held to the
// same bar against the scalar field path: identical deliveries and
// byte-identical run JSON across all three media — plain SINR, fading SINR
// and the graph medium — and faulted runs with drop windows.
//
// Both entry points of every medium agree too: the sparse reception list the
// simulator consumes and the dense per-node adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
#include "common/rng.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "faults/fault_engine.h"
#include "faults/fault_plan.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "radio/interference_model.h"
#include "sinr/reception.h"

namespace sinrcolor {
namespace {

sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
}

graph::UnitDiskGraph random_graph(std::size_t n, double side,
                                  std::uint64_t seed) {
  common::Rng rng(seed);
  return graph::UnitDiskGraph(geometry::uniform_deployment(n, side, rng), 1.0);
}

/// Random slot workload: each node transmits w.p. `tx_prob`, everyone else
/// listens (half-duplex).
void random_slot(const graph::UnitDiskGraph& g, double tx_prob,
                 common::Rng& rng, std::vector<radio::TxRecord>& txs,
                 std::vector<bool>& listening) {
  txs.clear();
  listening.assign(g.size(), true);
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    if (!rng.bernoulli(tx_prob)) continue;
    radio::Message m;
    m.kind = radio::MessageKind::kCompete;
    m.sender = v;
    txs.push_back({v, m});
    listening[v] = false;
  }
}

/// Which cloud transmitter the SINR medium decodes at `at` through resolve
/// path `kind`: the cloud and the listener become the nodes of a UDG at
/// R_T = 1, every cloud node transmits and only the listener listens.
std::optional<std::size_t> medium_winner(
    const sinr::SinrParams& phys, const std::vector<sinr::Transmitter>& txs,
    const geometry::Point& at, sinr::ResolveKind kind) {
  geometry::Deployment dep;
  dep.side = 6.0;
  for (const sinr::Transmitter& t : txs) dep.points.push_back(t.position);
  dep.points.push_back(at);
  const graph::UnitDiskGraph g(std::move(dep), 1.0);
  const radio::SinrInterferenceModel medium(g, phys, kind);
  std::vector<radio::TxRecord> transmissions;
  for (graph::NodeId v = 0; v < txs.size(); ++v) {
    radio::Message m;
    m.sender = v;
    transmissions.push_back({v, m});
  }
  std::vector<bool> listening(g.size(), false);
  listening.back() = true;
  std::vector<std::optional<radio::Message>> deliveries(g.size());
  medium.resolve(0, transmissions, listening, deliveries);
  if (!deliveries.back().has_value()) return std::nullopt;
  return deliveries.back()->sender;
}

/// Random transmitter clouds and listener positions: the medium's winner at
/// a lone listener under `kind` must equal the per-listener oracle's.
/// Returns the number of decodes so callers can assert non-vacuity.
std::size_t expect_oracle_winners(sinr::ResolveKind kind, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto phys = phys_for_radius(1.0);
  std::size_t decoded = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 12));
    std::vector<sinr::Transmitter> txs;
    txs.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      txs.push_back({{rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)}});
    }
    const geometry::Point at{rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)};
    const auto medium = medium_winner(phys, txs, at, kind);
    const auto oracle = sinr::resolve_reception(phys, at, txs);
    EXPECT_EQ(medium.has_value(), oracle.has_value()) << "round " << round;
    if (medium.has_value() && oracle.has_value()) {
      ++decoded;
      EXPECT_EQ(*medium, *oracle) << "round " << round;
    }
  }
  return decoded;
}

/// Runs `slots` random slots through both models and requires identical
/// deliveries (presence and sender, per listener, per slot). Returns the
/// number of deliveries seen so callers can assert non-vacuity.
std::size_t expect_identical_deliveries(const radio::InterferenceModel& a,
                                        const radio::InterferenceModel& b,
                                        const graph::UnitDiskGraph& g,
                                        std::size_t slots, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<radio::TxRecord> txs;
  std::vector<bool> listening;
  std::vector<std::optional<radio::Message>> da(g.size()), db(g.size());
  std::size_t delivered = 0;
  for (std::size_t t = 0; t < slots; ++t) {
    random_slot(g, 0.25, rng, txs, listening);
    std::fill(da.begin(), da.end(), std::nullopt);
    std::fill(db.begin(), db.end(), std::nullopt);
    a.resolve(static_cast<radio::Slot>(t), txs, listening, da);
    b.resolve(static_cast<radio::Slot>(t), txs, listening, db);
    for (std::size_t u = 0; u < g.size(); ++u) {
      EXPECT_EQ(da[u].has_value(), db[u].has_value())
          << "slot " << t << " listener " << u;
      if (da[u].has_value() && db[u].has_value()) {
        ++delivered;
        EXPECT_EQ(da[u]->sender, db[u]->sender)
            << "slot " << t << " listener " << u;
      }
    }
  }
  return delivered;
}

/// Runs `slots` random slots through both entry points of `model` — the
/// sparse reception list and the dense adapter — and requires the same
/// (listener, sender) pairs, no jammer index in the list, and no adapter
/// allocation after its first call (checked only in the counting build).
/// Returns the number of receptions seen so callers can assert non-vacuity.
std::size_t expect_sparse_matches_dense(const radio::InterferenceModel& model,
                                        const graph::UnitDiskGraph& g,
                                        std::size_t slots, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<radio::TxRecord> txs;
  std::vector<bool> listening;
  std::vector<std::uint8_t> listening_bytes;
  std::vector<radio::Reception> receptions;
  std::vector<std::optional<radio::Message>> deliveries(g.size());
  std::uint64_t adapter_allocs = 0;
  std::size_t received = 0;
  for (std::size_t t = 0; t < slots; ++t) {
    random_slot(g, 0.25, rng, txs, listening);
    listening_bytes.assign(listening.begin(), listening.end());
    const auto slot = static_cast<radio::Slot>(t);
    model.resolve(slot, txs, listening_bytes, receptions);
    std::fill(deliveries.begin(), deliveries.end(), std::nullopt);
    const std::uint64_t allocs_before = common::thread_heap_allocs();
    model.resolve(slot, txs, listening, deliveries);
    if (t > 0) adapter_allocs += common::thread_heap_allocs() - allocs_before;
    const auto dense = static_cast<std::size_t>(
        std::count_if(deliveries.begin(), deliveries.end(),
                      [](const auto& d) { return d.has_value(); }));
    EXPECT_EQ(receptions.size(), dense) << "slot " << t;
    for (const radio::Reception& r : receptions) {
      if (r.tx >= txs.size()) {
        ADD_FAILURE() << "slot " << t << ": jammer index " << r.tx
                      << " in the reception list";
        continue;
      }
      EXPECT_TRUE(deliveries[r.listener].has_value() &&
                  deliveries[r.listener]->sender == txs[r.tx].sender)
          << "slot " << t << " listener " << r.listener;
    }
    received += receptions.size();
  }
  if (common::alloc_counting_enabled()) {
    EXPECT_EQ(adapter_allocs, 0u)
        << "dense adapter allocated after its first call";
  }
  return received;
}

TEST(SparseResolve, ReceptionListMatchesTheDenseAdapterOnEveryMedium) {
  const auto g = random_graph(150, 4.0, 15);
  const auto phys = phys_for_radius(g.radius());
  sinr::FadingSpec log_normal;
  log_normal.kind = sinr::FadingKind::kLogNormal;
  log_normal.sigma_db = 6.0;
  const radio::Jammer jammer{{2.05, 1.95}, 0.5, 0.0};
  const radio::ChannelDisturbance jammed{1.0,
                                         std::span<const radio::Jammer>(&jammer, 1)};
  for (const sinr::ResolveKind kind :
       {sinr::ResolveKind::kNaive, sinr::ResolveKind::kField,
        sinr::ResolveKind::kSimd}) {
    const radio::SinrInterferenceModel plain(g, phys, kind);
    const radio::SinrInterferenceModel faded(g, phys, log_normal, kind);
    radio::SinrInterferenceModel jammed_sinr(g, phys, kind);
    jammed_sinr.set_disturbance(&jammed);
    EXPECT_GT(expect_sparse_matches_dense(plain, g, 24, 500), 0u)
        << "plain " << sinr::to_string(kind);
    EXPECT_GT(expect_sparse_matches_dense(faded, g, 24, 501), 0u)
        << "log-normal " << sinr::to_string(kind);
    EXPECT_GT(expect_sparse_matches_dense(jammed_sinr, g, 24, 502), 0u)
        << "jammed " << sinr::to_string(kind);
  }
  const radio::GraphInterferenceModel graph_medium(g);
  EXPECT_GT(expect_sparse_matches_dense(graph_medium, g, 24, 503), 0u);
  radio::GraphInterferenceModel jammed_graph(g);
  jammed_graph.set_disturbance(&jammed);
  EXPECT_GT(expect_sparse_matches_dense(jammed_graph, g, 24, 504), 0u);
}

TEST(FieldEquivalence, PlainSinrModelMatchesNaiveAcrossSeeds) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto g = random_graph(150, 4.0, seed);
    const auto phys = phys_for_radius(g.radius());
    const radio::SinrInterferenceModel naive(
        g, phys, sinr::ResolveKind::kNaive);
    const radio::SinrInterferenceModel field(
        g, phys, sinr::ResolveKind::kField);
    EXPECT_GT(expect_identical_deliveries(naive, field, g, 24, 100 + seed), 0u)
        << "seed " << seed;
  }
}

TEST(FieldEquivalence, FadingSinrModelMatchesNaiveAcrossSeeds) {
  sinr::FadingSpec fading;
  fading.kind = sinr::FadingKind::kRayleigh;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const auto g = random_graph(150, 4.0, seed);
    const auto phys = phys_for_radius(g.radius());
    const radio::SinrInterferenceModel naive(
        g, phys, fading, sinr::ResolveKind::kNaive);
    const radio::SinrInterferenceModel field(
        g, phys, fading, sinr::ResolveKind::kField);
    EXPECT_GT(expect_identical_deliveries(naive, field, g, 24, 200 + seed), 0u)
        << "seed " << seed;
  }
}

TEST(FieldEquivalence, ResolveReceptionMatchesNaiveOracle) {
  // The field path at a lone listener against the per-candidate oracle.
  EXPECT_GT(expect_oracle_winners(sinr::ResolveKind::kField, 41), 0u);
}

TEST(FieldEquivalence, ZeroSigmaFadingMatchesThePlainMedium) {
  // Log-normal fading at σ = 0 draws a fade of exactly 1.0 on every link, so
  // it must decode what the no-fading medium decodes, slot by slot — through
  // the per-listener weight path instead of the compile-time unit gain. The
  // jammed rerun drives the shared gain's jammer branch on both weight paths
  // (listener-invariant in the plain medium, per-listener in the faded one).
  sinr::FadingSpec unit_fade;
  unit_fade.kind = sinr::FadingKind::kLogNormal;
  unit_fade.sigma_db = 0.0;
  const auto g = random_graph(150, 4.0, 14);
  const auto phys = phys_for_radius(g.radius());
  const radio::Jammer jammer{{2.05, 1.95}, 0.5, 0.0};
  const radio::ChannelDisturbance jammed{1.0,
                                         std::span<const radio::Jammer>(&jammer, 1)};
  for (const sinr::ResolveKind kind :
       {sinr::ResolveKind::kNaive, sinr::ResolveKind::kField,
        sinr::ResolveKind::kSimd}) {
    for (const radio::ChannelDisturbance* disturbance :
         {static_cast<const radio::ChannelDisturbance*>(nullptr), &jammed}) {
      radio::SinrInterferenceModel plain(g, phys, kind);
      radio::SinrInterferenceModel faded(g, phys, unit_fade, kind);
      plain.set_disturbance(disturbance);
      faded.set_disturbance(disturbance);
      EXPECT_GT(expect_identical_deliveries(plain, faded, g, 24, 400), 0u)
          << sinr::to_string(kind) << (disturbance != nullptr ? " jammed" : "");
    }
  }
}

TEST(FieldEquivalence, FullProtocolReportsMatch) {
  // End to end: a complete MW coloring run must serialize to the identical
  // JSON report under either resolve path (colors, latencies, traffic — the
  // resolve knob is a pure wall-time knob).
  for (std::uint64_t seed : {1u, 7u}) {
    const auto g = random_graph(60, 3.5, 50 + seed);
    core::MwRunConfig cfg;
    cfg.seed = seed;
    cfg.resolve = sinr::ResolveKind::kNaive;
    const std::string naive = core::to_json(core::run_mw_coloring(g, cfg));
    cfg.resolve = sinr::ResolveKind::kField;
    const std::string field = core::to_json(core::run_mw_coloring(g, cfg));
    EXPECT_EQ(naive, field) << "seed " << seed;
    EXPECT_FALSE(naive.empty());
  }
}

TEST(FieldEquivalence, FullFadingProtocolReportsMatch) {
  const auto g = random_graph(60, 3.5, 61);
  core::MwRunConfig cfg;
  cfg.seed = 5;
  cfg.fading.kind = sinr::FadingKind::kRayleigh;
  cfg.resolve = sinr::ResolveKind::kNaive;
  const std::string naive = core::to_json(core::run_mw_coloring(g, cfg));
  cfg.resolve = sinr::ResolveKind::kField;
  const std::string field = core::to_json(core::run_mw_coloring(g, cfg));
  EXPECT_EQ(naive, field);
}

// --- simd kernel path (ResolveKind::kSimd) ---

TEST(SimdEquivalence, PlainSinrModelMatchesFieldAndNaiveAcrossSeeds) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto g = random_graph(150, 4.0, seed);
    const auto phys = phys_for_radius(g.radius());
    const radio::SinrInterferenceModel naive(
        g, phys, sinr::ResolveKind::kNaive);
    const radio::SinrInterferenceModel field(
        g, phys, sinr::ResolveKind::kField);
    const radio::SinrInterferenceModel simd(
        g, phys, sinr::ResolveKind::kSimd);
    EXPECT_GT(expect_identical_deliveries(field, simd, g, 24, 100 + seed), 0u)
        << "seed " << seed;
    EXPECT_GT(expect_identical_deliveries(naive, simd, g, 24, 100 + seed), 0u)
        << "seed " << seed;
  }
}

TEST(SimdEquivalence, FadingSinrModelMatchesFieldAcrossSeeds) {
  // Per-listener fade gains exercise the kernel's non-invariant weight path
  // (weights rebuilt per listener).
  sinr::FadingSpec fading;
  fading.kind = sinr::FadingKind::kRayleigh;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const auto g = random_graph(150, 4.0, seed);
    const auto phys = phys_for_radius(g.radius());
    const radio::SinrInterferenceModel field(
        g, phys, fading, sinr::ResolveKind::kField);
    const radio::SinrInterferenceModel simd(
        g, phys, fading, sinr::ResolveKind::kSimd);
    EXPECT_GT(expect_identical_deliveries(field, simd, g, 24, 200 + seed), 0u)
        << "seed " << seed;
  }
}

TEST(SimdEquivalence, ResolveReceptionMatchesNaiveOracle) {
  // The SoA kernel at a lone listener: same winner (or same silence) as the
  // per-candidate oracle on random clouds.
  EXPECT_GT(expect_oracle_winners(sinr::ResolveKind::kSimd, 43), 0u);
}

TEST(SimdEquivalence, FullProtocolReportsMatch) {
  // End to end at the acceptance bar: byte-identical run JSON for simd vs
  // field.
  for (std::uint64_t seed : {1u, 7u}) {
    const auto g = random_graph(60, 3.5, 50 + seed);
    core::MwRunConfig cfg;
    cfg.seed = seed;
    cfg.resolve = sinr::ResolveKind::kField;
    const std::string field = core::to_json(core::run_mw_coloring(g, cfg));
    cfg.resolve = sinr::ResolveKind::kSimd;
    const std::string simd = core::to_json(core::run_mw_coloring(g, cfg));
    EXPECT_EQ(field, simd) << "seed " << seed;
    EXPECT_FALSE(simd.empty());
  }
}

TEST(SimdEquivalence, FullFadingProtocolReportsMatch) {
  const auto g = random_graph(60, 3.5, 61);
  core::MwRunConfig cfg;
  cfg.seed = 5;
  cfg.fading.kind = sinr::FadingKind::kRayleigh;
  cfg.resolve = sinr::ResolveKind::kField;
  const std::string field = core::to_json(core::run_mw_coloring(g, cfg));
  cfg.resolve = sinr::ResolveKind::kSimd;
  const std::string simd = core::to_json(core::run_mw_coloring(g, cfg));
  EXPECT_EQ(field, simd);
}

TEST(SimdEquivalence, GraphMediumIgnoresResolveKind) {
  // Third medium: the graph collision model has no SINR arithmetic; the
  // resolve knob must be inert there (identical run JSON).
  const auto g = random_graph(60, 3.5, 71);
  core::MwRunConfig cfg;
  cfg.seed = 9;
  cfg.graph_model = true;
  cfg.resolve = sinr::ResolveKind::kField;
  const std::string field = core::to_json(core::run_mw_coloring(g, cfg));
  cfg.resolve = sinr::ResolveKind::kSimd;
  const std::string simd = core::to_json(core::run_mw_coloring(g, cfg));
  EXPECT_EQ(field, simd);
}

TEST(SimdEquivalence, FaultedRunWithDropWindowsMatchesField) {
  // Full fault plan — crashes, deafness, a periodic jammer (exercising the
  // kernel's grid-coverage fallback and JammerGain weights), a noise window
  // and delivery drop windows. Field and simd runs must serialize to the
  // same bytes: every fault answer is keyed on (plan, seed, slot, ids) and
  // every decode set is identical.
  const auto g = random_graph(60, 3.5, 91);
  faults::FaultPlan plan;
  plan.crashes.push_back({5, 1500, -1});
  plan.deafness.push_back({2, 0, 2000});
  faults::JammerSpec j;
  j.position = {0.05, 0.05};
  j.from = 0;
  j.to = 20000;
  j.power = 0.2;
  j.period = 3;
  j.duty = 1;
  plan.jammers.push_back(j);
  plan.noise.push_back({1000, 3000, 1.3});
  plan.drops.push_back({0, 20000, 0.05});

  core::MwRunConfig cfg;
  cfg.seed = 515;
  const auto faulted_run = [&](sinr::ResolveKind kind) {
    cfg.resolve = kind;
    core::MwInstance instance(g, cfg);
    faults::FaultEngine engine(plan, cfg.seed);
    engine.install(instance.simulator());
    const auto result = instance.run();
    EXPECT_GT(engine.stats().dropped_deliveries, 0u);
    return core::to_json(result);
  };
  const std::string field = faulted_run(sinr::ResolveKind::kField);
  EXPECT_EQ(field, faulted_run(sinr::ResolveKind::kSimd));
  EXPECT_FALSE(field.empty());
}

}  // namespace
}  // namespace sinrcolor
