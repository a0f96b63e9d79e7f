#include "baseline/aloha.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "radio/interference_model.h"
#include "sinr/medium_field.h"
#include "sinr/reception.h"

namespace sinrcolor::baseline {

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
  phys.validate();
  radio::check_radius_matches_phys(g, phys);

  AlohaResult result;
  // pending[v] = neighbors that have not yet heard v's message.
  std::vector<std::vector<graph::NodeId>> pending(g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    const auto nbrs = g.neighbors(v);
    pending[v].assign(nbrs.begin(), nbrs.end());
    result.pairs_total += nbrs.size();
  }

  std::vector<common::Rng> rngs;
  rngs.reserve(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) {
    rngs.emplace_back(common::derive_seed(seed, v));
  }

  std::vector<graph::NodeId> senders;
  std::vector<sinr::Transmitter> txs;
  std::vector<bool> transmitting(g.size());

  for (radio::Slot slot = 0; slot < max_slots; ++slot) {
    if (result.pairs_served == result.pairs_total) break;
    result.slots = slot + 1;

    senders.clear();
    txs.clear();
    std::fill(transmitting.begin(), transmitting.end(), false);
    for (graph::NodeId v = 0; v < g.size(); ++v) {
      if (!pending[v].empty() && rngs[v].bernoulli(p)) {
        senders.push_back(v);
        txs.push_back({g.position(v)});
        transmitting[v] = true;
      }
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

}  // namespace sinrcolor::baseline
