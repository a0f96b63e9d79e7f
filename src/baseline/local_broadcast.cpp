#include "baseline/local_broadcast.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "radio/interference_model.h"
#include "sinr/medium_field.h"
#include "sinr/reception.h"

namespace sinrcolor::baseline {

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
  phys.validate();
  radio::check_radius_matches_phys(g, phys);

  AlohaResult result;
  std::vector<std::vector<graph::NodeId>> pending(g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    const auto nbrs = g.neighbors(v);
    pending[v].assign(nbrs.begin(), nbrs.end());
    result.pairs_total += nbrs.size();
  }

  common::Rng rng(seed);
  const double threshold = cs_threshold_factor * phys.noise;
  std::vector<graph::NodeId> order(g.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<graph::NodeId> senders;
  std::vector<sinr::Transmitter> txs;
  std::vector<bool> transmitting(g.size());

  for (radio::Slot slot = 0; slot < max_slots; ++slot) {
    if (result.pairs_served == result.pairs_total) break;
    result.slots = slot + 1;

    // Random arbitration order models who grabs the channel first.
    common::shuffle(order, rng);
    senders.clear();
    txs.clear();
    std::fill(transmitting.begin(), transmitting.end(), false);
    for (graph::NodeId v : order) {
      if (pending[v].empty() || !rng.bernoulli(p)) continue;
      // Carrier sense against the already-committed transmitters.
      const double sensed = txs.empty()
                                ? 0.0
                                : sinr::interference_at(phys, g.position(v), txs);
      if (sensed > threshold) continue;  // channel busy: defer
      senders.push_back(v);
      txs.push_back({g.position(v)});
      transmitting[v] = true;
    }
    result.transmissions += senders.size();

    for (std::size_t i = 0; i < senders.size(); ++i) {
      auto& waiting = pending[senders[i]];
      for (std::size_t k = 0; k < waiting.size();) {
        const graph::NodeId u = waiting[k];
        if (!transmitting[u] && sinr::decodes(phys, g.position(u), txs, i)) {
          waiting[k] = waiting.back();
          waiting.pop_back();
          ++result.pairs_served;
        } else {
          ++k;
        }
      }
    }

    if (result.slots_p50 < 0 && result.pairs_served * 2 >= result.pairs_total) {
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

}  // namespace sinrcolor::baseline
