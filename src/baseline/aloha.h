// Slotted-ALOHA local broadcast — the schedule-free MAC baseline.
//
// Every node holds one message and transmits it with probability p each slot
// until every (sender, neighbor) pair has been served. Contrasts with the
// coloring-based TDMA MAC (deterministic V-slot frames, Theorem 3): ALOHA
// needs Θ(Δ log n / (p·e^{-Θ(pΔ)})) slots in expectation and gives only
// probabilistic guarantees. Implemented with the other local-broadcast
// runners in local_broadcast.cpp, over one serve loop.
#pragma once

#include <cstdint>
#include <string>

#include "graph/unit_disk_graph.h"
#include "radio/message.h"
#include "sinr/params.h"

namespace sinrcolor::baseline {

struct AlohaResult {
  radio::Slot slots = 0;            ///< slots until completion (or cap)
  bool completed = false;           ///< all pairs served within the cap
  std::uint64_t transmissions = 0;
  std::uint64_t pairs_total = 0;
  std::uint64_t pairs_served = 0;
  /// Slot by which 50% / 95% of the pairs were served (−1 if never).
  radio::Slot slots_p50 = -1;
  radio::Slot slots_p95 = -1;

  std::string summary() const;
};

/// Runs slotted ALOHA under the SINR physical layer until every node's
/// message has reached all of its neighbors, or `max_slots`.
AlohaResult run_aloha_local_broadcast(const graph::UnitDiskGraph& g,
                                      const sinr::SinrParams& phys, double p,
                                      radio::Slot max_slots, std::uint64_t seed);

}  // namespace sinrcolor::baseline
