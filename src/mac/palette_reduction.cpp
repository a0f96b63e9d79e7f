#include "mac/palette_reduction.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "radio/interference_model.h"
#include "sinr/medium_field.h"
#include "sinr/reception.h"

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
  SINRCOLOR_CHECK(schedule.size() == g.size());
  SINRCOLOR_CHECK(max_degree_bound >= g.max_degree());
  phys.validate();
  radio::check_radius_matches_phys(g, phys);

  PaletteReductionResult result;
  result.reduced.color.assign(g.size(), graph::kUncolored);
  // taken[v][c]: some neighbor of v announced new color c.
  std::vector<std::vector<bool>> taken(
      g.size(), std::vector<bool>(max_degree_bound + 1, false));

  for (std::uint32_t t = 0; t < schedule.frame_length(); ++t) {
    result.slots_used += 1;
    const auto senders = schedule.nodes_in_slot(t);
    std::vector<sinr::Transmitter> txs;
    txs.reserve(senders.size());
    for (graph::NodeId v : senders) {
      result.reduced.color[v] = smallest_free_color(taken[v]);
      txs.push_back({g.position(v)});
    }
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const graph::NodeId v = senders[i];
      const auto announced = static_cast<std::size_t>(result.reduced.color[v]);
      for (graph::NodeId u : g.neighbors(v)) {
        const bool u_silent = schedule.slot_of(u) != t;
        if (u_silent && sinr::decodes(phys, g.position(u), txs, i)) {
          taken[u][announced] = true;
        } else {
          ++result.missed_deliveries;
        }
      }
    }
  }

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
    for (graph::NodeId v : schedule.nodes_in_slot(t)) {
      reduced.color[v] = smallest_free_color(taken[v]);
      for (graph::NodeId u : g.neighbors(v)) {
        taken[u][static_cast<std::size_t>(reduced.color[v])] = true;
      }
    }
  }
  return reduced;
}

}  // namespace sinrcolor::mac
