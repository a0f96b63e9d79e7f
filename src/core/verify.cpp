#include "core/verify.h"

#include <algorithm>

#include "common/check.h"

namespace sinrcolor::core {

graph::Coloring extract_coloring(const std::vector<MwNode*>& nodes) {
  graph::Coloring coloring;
  coloring.color.reserve(nodes.size());
  for (const MwNode* node : nodes) {
    coloring.color.push_back(node->final_color());
  }
  return coloring;
}

LiveColoring live_coloring(const graph::UnitDiskGraph& g,
                           const graph::Coloring& coloring,
                           const std::vector<radio::Slot>& death_slot) {
  SINRCOLOR_CHECK(coloring.size() == g.size() && death_slot.size() == g.size());
  LiveColoring live{coloring, true};
  for (std::size_t v = 0; v < g.size(); ++v) {
    if (death_slot[v] >= 0) {
      live.coloring.color[v] = graph::kUncolored;
    } else if (live.coloring.color[v] == graph::kUncolored) {
      live.valid = false;
    }
  }
  // The validator reports an uncolored node against itself; dead nodes are
  // uncolored on purpose and uncolored survivors were caught above.
  for (const auto& violation :
       graph::find_coloring_violations(g, live.coloring)) {
    if (violation.u != violation.v) live.valid = false;
  }
  return live;
}

std::vector<graph::NodeId> extract_leaders(const std::vector<MwNode*>& nodes) {
  std::vector<graph::NodeId> leaders;
  for (const MwNode* node : nodes) {
    if (node->state() == MwStateKind::kLeader) leaders.push_back(node->id());
  }
  return leaders;
}

std::size_t snapshot_independence_violations(const graph::UnitDiskGraph& g,
                                             const std::vector<MwNode*>& nodes) {
  SINRCOLOR_CHECK(nodes.size() == g.size());
  std::size_t violations = 0;
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    if (!nodes[v]->decided()) continue;
    const graph::Color mine = nodes[v]->final_color();
    for (graph::NodeId u : g.neighbors(v)) {
      if (u < v && nodes[u]->decided() && nodes[u]->final_color() == mine) {
        ++violations;
      }
    }
  }
  return violations;
}

std::size_t clustering_violations(const graph::UnitDiskGraph& g,
                                  const std::vector<MwNode*>& nodes) {
  SINRCOLOR_CHECK(nodes.size() == g.size());
  std::size_t violations = 0;
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    const MwNode* node = nodes[v];
    if (node->state() != MwStateKind::kColored) continue;
    const graph::NodeId leader = node->leader();
    const bool leader_ok =
        leader != graph::kInvalidNode && leader < g.size() &&
        nodes[leader]->state() == MwStateKind::kLeader && g.adjacent(v, leader);
    if (!leader_ok) ++violations;
  }
  return violations;
}

}  // namespace sinrcolor::core
