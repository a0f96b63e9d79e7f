// TDMA MAC scheduling from a node coloring (paper, Section V).
//
// Associating each color c with a frame slot t_c yields a schedule where all
// nodes of one color transmit simultaneously. Theorem 3: if the coloring is a
// (d+1, V)-coloring for d = (32·(α−1)/(α−2)·β)^{1/α}, then every node's
// broadcast reaches all of its UDG neighbors — an interference-free MAC with
// frame length V. A distance-2 coloring (sufficient in the graph model) is
// NOT sufficient under SINR; the audit below measures exactly that.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/coloring.h"
#include "graph/unit_disk_graph.h"
#include "sinr/fading.h"
#include "sinr/params.h"

namespace sinrcolor::mac {

/// A frame schedule: node v may transmit exactly in frame slot slot_of(v).
class TdmaSchedule {
 public:
  /// Builds a schedule from a complete coloring; the (possibly sparse)
  /// palette is compacted so the frame has exactly palette_size() slots.
  static TdmaSchedule from_coloring(const graph::Coloring& coloring);

  std::uint32_t frame_length() const {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  std::uint32_t slot_of(graph::NodeId v) const { return slot_[v]; }
  std::size_t size() const { return slot_.size(); }

  /// Nodes transmitting in frame slot t, sorted by id.
  std::span<const graph::NodeId> members(std::uint32_t t) const {
    return std::span<const graph::NodeId>(members_)
        .subspan(offsets_[t], offsets_[t + 1] - offsets_[t]);
  }

 private:
  std::vector<std::uint32_t> slot_;
  /// Class t is members_[offsets_[t], offsets_[t + 1]), computed once.
  std::vector<graph::NodeId> members_;
  std::vector<std::size_t> offsets_{0};
};

/// Result of auditing one full frame in which every node broadcasts once.
struct TdmaAudit {
  std::uint32_t frame_length = 0;
  std::uint64_t pairs_total = 0;      ///< (sender, neighbor) pairs
  std::uint64_t pairs_delivered = 0;  ///< pairs whose delivery succeeded
  std::size_t senders_fully_heard = 0;  ///< senders heard by every neighbor
  std::size_t senders_total = 0;

  double delivery_rate() const {
    return pairs_total == 0
               ? 1.0
               : static_cast<double>(pairs_delivered) /
                     static_cast<double>(pairs_total);
  }
  bool interference_free() const { return pairs_delivered == pairs_total; }
  std::string summary() const;
};

/// Audits the schedule under the SINR physical model: in each frame slot all
/// scheduled nodes transmit; each sender's UDG neighbors either decode it or
/// not per the SINR rule. `g.radius()` must equal `phys.r_t()`.
TdmaAudit audit_tdma_sinr(const graph::UnitDiskGraph& g,
                          const sinr::SinrParams& phys,
                          const TdmaSchedule& schedule);

/// Same audit under the graph-based collision model (a listener decodes iff
/// exactly one neighbor transmits in the slot) — the model in which a
/// distance-2 coloring is already sufficient.
TdmaAudit audit_tdma_graph_model(const graph::UnitDiskGraph& g,
                                 const TdmaSchedule& schedule);

/// Audit under a *fading* SINR channel over `frames` consecutive frames
/// (slot numbering is continuous so per-slot fades vary between frames).
/// Theorem 3's 100% guarantee assumes deterministic path loss; this measures
/// how much of it survives Rayleigh / log-normal channels.
TdmaAudit audit_tdma_sinr_fading(const graph::UnitDiskGraph& g,
                                 const sinr::SinrParams& phys,
                                 const sinr::FadingSpec& fading,
                                 const TdmaSchedule& schedule,
                                 std::uint32_t frames);

}  // namespace sinrcolor::mac
