#include "graph/graph_algos.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace sinrcolor::graph {

std::vector<std::uint32_t> bfs_distances(const UnitDiskGraph& g, NodeId source) {
  SINRCOLOR_CHECK(source < g.size());
  std::vector<std::uint32_t> dist(g.size(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (NodeId u : g.neighbors(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = dist[v] + 1;
        frontier.push(u);
      }
    }
  }
  return dist;
}

std::vector<NodeId> bfs_parents(const UnitDiskGraph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  std::vector<NodeId> parent(g.size(), kInvalidNode);
  parent[source] = source;
  for (NodeId v = 0; v < g.size(); ++v) {
    if (v == source || dist[v] == kUnreachable) continue;
    // Smallest-id neighbor one hop closer; neighbors are sorted so the first
    // match is canonical.
    for (NodeId u : g.neighbors(v)) {
      if (dist[u] + 1 == dist[v]) {
        parent[v] = u;
        break;
      }
    }
    SINRCOLOR_CHECK(parent[v] != kInvalidNode);
  }
  return parent;
}

std::vector<std::uint32_t> connected_components(const UnitDiskGraph& g) {
  std::vector<std::uint32_t> label(g.size(), kUnreachable);
  std::uint32_t next = 0;
  for (NodeId s = 0; s < g.size(); ++s) {
    if (label[s] != kUnreachable) continue;
    std::queue<NodeId> frontier;
    label[s] = next;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (NodeId u : g.neighbors(v)) {
        if (label[u] == kUnreachable) {
          label[u] = next;
          frontier.push(u);
        }
      }
    }
    ++next;
  }
  return label;
}

bool is_connected(const UnitDiskGraph& g) {
  if (g.size() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

std::uint32_t hop_diameter(const UnitDiskGraph& g) {
  const auto labels = connected_components(g);
  // Find the largest component.
  std::vector<std::size_t> sizes;
  for (std::uint32_t l : labels) {
    if (l >= sizes.size()) sizes.resize(l + 1, 0);
    ++sizes[l];
  }
  std::uint32_t target = 0;
  for (std::uint32_t l = 0; l < sizes.size(); ++l) {
    if (sizes[l] > sizes[target]) target = l;
  }
  std::uint32_t diameter = 0;
  for (NodeId v = 0; v < g.size(); ++v) {
    if (labels[v] != target) continue;
    const auto dist = bfs_distances(g, v);
    for (NodeId u = 0; u < g.size(); ++u) {
      if (labels[u] == target) diameter = std::max(diameter, dist[u]);
    }
  }
  return diameter;
}

}  // namespace sinrcolor::graph
