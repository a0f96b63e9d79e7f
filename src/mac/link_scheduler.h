// Greedy SINR link scheduling — the centralized scheduling-complexity
// viewpoint (paper's related work: Hua/Lau, Goussevskaia et al.,
// Brar/Blough/Santi, Moscibroda/Wattenhofer/Zollinger).
//
// Given directed link requests (sender → receiver), partition them into the
// fewest slots such that every link in a slot satisfies the SINR condition
// against all simultaneous transmitters in that slot. The first-fit greedy
// below is the standard O(L²·k) heuristic; compared against the
// coloring-based TDMA frame it shows what a *global, centralized* scheduler
// buys over the paper's *distributed, topology-oblivious* one (bench X13).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/unit_disk_graph.h"
#include "sinr/params.h"

namespace sinrcolor::mac {

struct LinkRequest {
  graph::NodeId sender = graph::kInvalidNode;
  graph::NodeId receiver = graph::kInvalidNode;
};

struct LinkSchedule {
  /// slot_of[i] = slot assigned to request i.
  std::vector<std::uint32_t> slot_of;
  std::uint32_t slots = 0;
};

/// All (v, neighbor) pairs of the graph — the local-broadcast request set.
std::vector<LinkRequest> all_neighbor_links(const graph::UnitDiskGraph& g);

/// First-fit greedy: requests are processed in order; each goes into the
/// first slot that stays SINR-feasible (every link in the slot still decodes
/// with all the slot's transmitters, including the newcomer), else opens a
/// new slot. A node never transmits and receives in the same slot.
LinkSchedule greedy_link_schedule(const graph::UnitDiskGraph& g,
                                  const sinr::SinrParams& phys,
                                  const std::vector<LinkRequest>& requests);

/// Verifies feasibility: every slot resolves through the SINR medium with
/// all its links' senders transmitting, and a link is feasible iff its
/// receiver decodes its sender (a receiver that also transmits in the slot
/// cannot). Returns the number of infeasible links (0 = ok).
std::size_t count_infeasible_links(const graph::UnitDiskGraph& g,
                                   const sinr::SinrParams& phys,
                                   const std::vector<LinkRequest>& requests,
                                   const LinkSchedule& schedule);

}  // namespace sinrcolor::mac
