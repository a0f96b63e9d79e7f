#include "graph/coloring.h"

#include <algorithm>
#include <set>

#include "common/check.h"

namespace sinrcolor::graph {

bool Coloring::complete() const {
  return std::all_of(color.begin(), color.end(),
                     [](Color c) { return c != kUncolored; });
}

std::size_t Coloring::palette_size() const {
  std::set<Color> used;
  for (Color c : color) {
    if (c != kUncolored) used.insert(c);
  }
  return used.size();
}

Color Coloring::max_color() const {
  Color best = kUncolored;
  for (Color c : color) best = std::max(best, c);
  return best;
}

std::string ColoringViolation::to_string() const {
  if (u == v) {
    return "node " + std::to_string(u) + " is uncolored";
  }
  return "nodes " + std::to_string(u) + " and " + std::to_string(v) +
         " share color " + std::to_string(color) + " at distance " +
         std::to_string(distance);
}

std::vector<ColoringViolation> find_coloring_violations(const UnitDiskGraph& g,
                                                        const Coloring& coloring,
                                                        double d) {
  SINRCOLOR_CHECK(coloring.size() == g.size());
  SINRCOLOR_CHECK(d > 0.0);
  std::vector<ColoringViolation> violations;
  const double range = d * g.radius();
  for (NodeId v = 0; v < g.size(); ++v) {
    if (coloring.color[v] == kUncolored) {
      violations.push_back({v, v, kUncolored, 0.0});
      continue;
    }
    g.index().for_each_within(
        g.position(v), range, [&](std::size_t u, const geometry::Point&) {
          // Visit each unordered pair once (u < v) and skip self.
          if (u >= v) return;
          const auto uid = static_cast<NodeId>(u);
          if (coloring.color[uid] != kUncolored &&
              coloring.color[uid] == coloring.color[v]) {
            violations.push_back(
                {uid, v, coloring.color[v], g.distance(uid, v)});
          }
        });
  }
  return violations;
}

bool is_valid_coloring(const UnitDiskGraph& g, const Coloring& coloring, double d) {
  return coloring.complete() && find_coloring_violations(g, coloring, d).empty();
}

}  // namespace sinrcolor::graph
