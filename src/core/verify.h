// Extraction and verification of protocol outcomes.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mw_node.h"
#include "graph/coloring.h"
#include "graph/unit_disk_graph.h"

namespace sinrcolor::core {

/// Final colors of all nodes (kUncolored for undecided ones).
graph::Coloring extract_coloring(const std::vector<MwNode*>& nodes);

/// Ids of nodes that ended as leaders (state C_0).
std::vector<graph::NodeId> extract_leaders(const std::vector<MwNode*>& nodes);

/// Theorem-1 snapshot check: for every color class (leaders and each C_i),
/// no two decided members are UDG-adjacent. Returns the violation count.
std::size_t snapshot_independence_violations(const graph::UnitDiskGraph& g,
                                             const std::vector<MwNode*>& nodes);

/// A run's coloring judged on the nodes still alive at the end of the run.
struct LiveColoring {
  /// The coloring with every dead node (death_slot[v] >= 0) uncolored: a
  /// run report keeps a dead node's stale color, but no live radio uses it.
  graph::Coloring coloring;
  /// Every survivor colored and no two adjacent survivors sharing a color.
  bool valid = false;
};

/// Masks the nodes that died (death_slot[v] >= 0, as in
/// radio::RunMetrics::death_slot) out of `coloring` and checks the rest.
LiveColoring live_coloring(const graph::UnitDiskGraph& g,
                           const graph::Coloring& coloring,
                           const std::vector<radio::Slot>& death_slot);

/// Clustering sanity: every non-leader decided node was granted a cluster
/// color by an actual leader within range (its recorded leader is a leader
/// node and a UDG neighbor). Returns the number of offending nodes.
std::size_t clustering_violations(const graph::UnitDiskGraph& g,
                                  const std::vector<MwNode*>& nodes);

}  // namespace sinrcolor::core
