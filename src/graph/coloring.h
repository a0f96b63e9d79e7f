// Colorings and their validators.
//
// A (d, V)-coloring (paper, Section II): an assignment of colors from a
// palette of at most V colors such that any two nodes u, v with
// δ(u,v) ≤ d·R_T receive different colors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/unit_disk_graph.h"

namespace sinrcolor::graph {

using Color = std::int32_t;
inline constexpr Color kUncolored = -1;

/// A (possibly partial) color assignment over the nodes of a graph.
struct Coloring {
  std::vector<Color> color;

  std::size_t size() const { return color.size(); }
  bool complete() const;
  /// Number of distinct colors used (uncolored nodes ignored).
  std::size_t palette_size() const;
  /// Largest color value used, or kUncolored if none.
  Color max_color() const;
};

/// One violation of the distance-d constraint.
struct ColoringViolation {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  Color color = kUncolored;
  double distance = 0.0;

  std::string to_string() const;
};

/// Checks the (d, ·)-coloring property: every pair at Euclidean distance at
/// most d·R_T must differ in color. Returns all violations (empty == valid).
/// Uncolored nodes are reported as violations against themselves.
std::vector<ColoringViolation> find_coloring_violations(const UnitDiskGraph& g,
                                                        const Coloring& coloring,
                                                        double d = 1.0);

/// True iff `coloring` is a complete, valid (d, ·)-coloring of g.
bool is_valid_coloring(const UnitDiskGraph& g, const Coloring& coloring,
                       double d = 1.0);

}  // namespace sinrcolor::graph
