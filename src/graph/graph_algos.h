// Centralized graph utilities: BFS, connectivity, distance-k neighborhoods.
// These serve as oracles for tests and as reference outputs for the
// message-passing simulation experiments (Corollary 1).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/unit_disk_graph.h"

namespace sinrcolor::graph {

inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// Hop distances from `source` (kUnreachable for disconnected nodes).
std::vector<std::uint32_t> bfs_distances(const UnitDiskGraph& g, NodeId source);

/// BFS parent of each node (source's parent is itself; unreachable nodes map
/// to kInvalidNode). Ties broken toward the smallest parent id, which gives a
/// canonical tree any correct distributed BFS with the same rule must match.
std::vector<NodeId> bfs_parents(const UnitDiskGraph& g, NodeId source);

/// Connected component label per node (labels are 0..k-1 by discovery order).
std::vector<std::uint32_t> connected_components(const UnitDiskGraph& g);

bool is_connected(const UnitDiskGraph& g);

/// Graph-theoretic eccentricity-based diameter in hops of the largest
/// component (exact; O(n · (n + m)), fine at experiment scales).
std::uint32_t hop_diameter(const UnitDiskGraph& g);

}  // namespace sinrcolor::graph
