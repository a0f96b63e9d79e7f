#include "mac/palette_reduction.h"

#include <vector>

#include "common/check.h"
#include "mac/slot_step.h"

namespace sinrcolor::mac {
namespace {

graph::Color smallest_free_color(const std::vector<bool>& taken) {
  for (std::size_t c = 0; c < taken.size(); ++c) {
    if (!taken[c]) return static_cast<graph::Color>(c);
  }
  // With ≤ Δ neighbors and Δ+1 candidates a free color always exists.
  SINRCOLOR_CHECK_MSG(false, "palette exhausted: degree bound violated");
  return graph::kUncolored;
}

}  // namespace

PaletteReductionResult reduce_palette_sinr(const graph::UnitDiskGraph& g,
                                           const sinr::SinrParams& phys,
                                           const TdmaSchedule& schedule,
                                           std::size_t max_degree_bound) {
  SINRCOLOR_CHECK(max_degree_bound >= g.max_degree());
  const radio::SinrInterferenceModel medium(g, phys);
  FrameLoop loop(g, medium, schedule);

  PaletteReductionResult result;
  auto& color = result.reduced.color;
  color.assign(g.size(), graph::kUncolored);
  // taken[v][c]: some neighbor of v announced new color c.
  std::vector<std::vector<bool>> taken(
      g.size(), std::vector<bool>(max_degree_bound + 1, false));
  // A sender picks its color as its slot opens; a neighbor that decodes the
  // announcement marks that color taken.
  loop.run_frame(
      [&](graph::NodeId v) {
        color[v] = smallest_free_color(taken[v]);
        return true;
      },
      [&](graph::NodeId v, graph::NodeId u, bool delivered) {
        if (delivered) taken[u][static_cast<std::size_t>(color[v])] = true;
      });

  result.slots_used = loop.slots();
  result.missed_deliveries = loop.missed();
  result.palette = result.reduced.palette_size();
  result.valid = graph::is_valid_coloring(g, result.reduced);
  return result;
}

graph::Coloring reduce_palette_reference(const graph::UnitDiskGraph& g,
                                         const TdmaSchedule& schedule,
                                         std::size_t max_degree_bound) {
  SINRCOLOR_CHECK(schedule.size() == g.size());
  SINRCOLOR_CHECK(max_degree_bound >= g.max_degree());
  graph::Coloring reduced;
  reduced.color.assign(g.size(), graph::kUncolored);
  std::vector<std::vector<bool>> taken(
      g.size(), std::vector<bool>(max_degree_bound + 1, false));
  for (std::uint32_t t = 0; t < schedule.frame_length(); ++t) {
    for (graph::NodeId v : schedule.members(t)) {
      reduced.color[v] = smallest_free_color(taken[v]);
      for (graph::NodeId u : g.neighbors(v)) {
        taken[u][static_cast<std::size_t>(reduced.color[v])] = true;
      }
    }
  }
  return reduced;
}

}  // namespace sinrcolor::mac
