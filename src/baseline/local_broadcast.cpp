// Slotted ALOHA (baseline/aloha.h) and the local-broadcast runners
// (baseline/local_broadcast.h): one serve loop, two ways to pick a slot's
// senders.
#include "baseline/local_broadcast.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mac/slot_step.h"
#include "sinr/medium_field.h"

namespace sinrcolor::baseline {
namespace {

/// pending[v]: the neighbors that have not yet heard v's message.
using Pending = std::vector<std::vector<graph::NodeId>>;

/// The serve loop of both schedule-free MACs. Each slot,
/// choose(pending, senders) appends the slot's senders — nodes with a
/// pending pair, in the order the medium sums their interference — and
/// every pending (sender, neighbor) pair whose neighbor decodes the sender
/// is served. Runs until every pair is served or `max_slots`; a run with
/// nothing to serve costs no slot.
template <typename Choose>
AlohaResult serve_local_broadcast(const graph::UnitDiskGraph& g,
                                  const sinr::SinrParams& phys,
                                  radio::Slot max_slots, Choose&& choose) {
  const radio::SinrInterferenceModel medium(g, phys);
  mac::SlotStep step(g, medium);
  AlohaResult result;
  Pending pending(g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    const auto nbrs = g.neighbors(v);
    pending[v].assign(nbrs.begin(), nbrs.end());
    result.pairs_total += nbrs.size();
  }

  std::vector<graph::NodeId> senders;
  for (radio::Slot slot = 0; slot < max_slots; ++slot) {
    if (result.pairs_served == result.pairs_total) break;
    result.slots = slot + 1;

    senders.clear();
    choose(pending, senders);
    result.transmissions += senders.size();
    step.resolve(slot, senders);
    for (graph::NodeId v : senders) {
      auto& waiting = pending[v];
      for (std::size_t k = 0; k < waiting.size();) {
        if (step.heard(waiting[k], v)) {
          waiting[k] = waiting.back();
          waiting.pop_back();
          ++result.pairs_served;
        } else {
          ++k;
        }
      }
    }

    if (result.slots_p50 < 0 &&
        result.pairs_served * 2 >= result.pairs_total) {
      result.slots_p50 = result.slots;
    }
    if (result.slots_p95 < 0 &&
        result.pairs_served * 100 >= result.pairs_total * 95) {
      result.slots_p95 = result.slots;
    }
  }

  result.completed = result.pairs_served == result.pairs_total;
  return result;
}

}  // namespace

std::string AlohaResult::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "slots=%lld completed=%s tx=%llu pairs=%llu/%llu p50=%lld "
                "p95=%lld",
                static_cast<long long>(slots), completed ? "yes" : "no",
                static_cast<unsigned long long>(transmissions),
                static_cast<unsigned long long>(pairs_served),
                static_cast<unsigned long long>(pairs_total),
                static_cast<long long>(slots_p50),
                static_cast<long long>(slots_p95));
  return buf;
}

AlohaResult run_aloha_local_broadcast(const graph::UnitDiskGraph& g,
                                      const sinr::SinrParams& phys, double p,
                                      radio::Slot max_slots,
                                      std::uint64_t seed) {
  SINRCOLOR_CHECK(p > 0.0 && p < 1.0);
  std::vector<common::Rng> rngs;
  rngs.reserve(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) {
    rngs.emplace_back(common::derive_seed(seed, v));
  }
  // Every node with a pending pair flips its own coin.
  return serve_local_broadcast(
      g, phys, max_slots,
      [&](const Pending& pending, std::vector<graph::NodeId>& senders) {
        for (graph::NodeId v = 0; v < g.size(); ++v) {
          if (!pending[v].empty() && rngs[v].bernoulli(p)) senders.push_back(v);
        }
      });
}

AlohaResult run_local_broadcast_known_delta(const graph::UnitDiskGraph& g,
                                            const sinr::SinrParams& phys,
                                            double prob_num, double kappa,
                                            std::uint64_t seed) {
  SINRCOLOR_CHECK(prob_num > 0.0 && prob_num < 1.0);
  SINRCOLOR_CHECK(kappa > 0.0);
  const double delta = static_cast<double>(std::max<std::size_t>(g.max_degree(), 1));
  const double p = prob_num / delta;
  const double log_n =
      std::log(static_cast<double>(std::max<std::size_t>(g.size(), 3)));
  const auto budget = static_cast<radio::Slot>(
      std::ceil(kappa * delta * log_n / prob_num));
  return run_aloha_local_broadcast(g, phys, p, budget, seed);
}

AlohaResult run_csma_local_broadcast(const graph::UnitDiskGraph& g,
                                     const sinr::SinrParams& phys, double p,
                                     double cs_threshold_factor,
                                     radio::Slot max_slots,
                                     std::uint64_t seed) {
  SINRCOLOR_CHECK(p > 0.0 && p < 1.0);
  SINRCOLOR_CHECK(cs_threshold_factor > 0.0);
  common::Rng rng(seed);
  const double threshold = cs_threshold_factor * phys.noise;
  std::vector<graph::NodeId> order(g.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<sinr::Transmitter> committed;
  return serve_local_broadcast(
      g, phys, max_slots,
      [&](const Pending& pending, std::vector<graph::NodeId>& senders) {
        // Random arbitration order models who grabs the channel first.
        common::shuffle(order, rng);
        committed.clear();
        for (graph::NodeId v : order) {
          if (pending[v].empty() || !rng.bernoulli(p)) continue;
          // Carrier sense against the already-committed transmitters.
          const double sensed =
              committed.empty()
                  ? 0.0
                  : sinr::interference_at(phys, g.position(v), committed);
          if (sensed > threshold) continue;  // channel busy: defer
          senders.push_back(v);
          committed.push_back({g.position(v)});
        }
      });
}

}  // namespace sinrcolor::baseline
