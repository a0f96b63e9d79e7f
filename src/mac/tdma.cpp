#include "mac/tdma.h"

#include <cstdio>
#include <map>

#include "common/check.h"
#include "radio/interference_model.h"

namespace sinrcolor::mac {
namespace {

/// The frame audit every channel shares: over `frames` consecutive frames
/// (continuous slot numbering, so per-slot fades vary between frames) every
/// node broadcasts once, in its frame slot, and `medium` resolves each slot.
/// Pair (v, u) is delivered iff neighbor u decoded v's broadcast; a neighbor
/// scheduled in the same slot is itself transmitting and cannot receive
/// (half-duplex), so its pair fails. A sender is fully heard iff every
/// neighbor decoded it in every frame.
TdmaAudit audit_frames(const graph::UnitDiskGraph& g,
                       const radio::InterferenceModel& medium,
                       const TdmaSchedule& schedule, std::uint32_t frames) {
  SINRCOLOR_CHECK(schedule.size() == g.size());
  SINRCOLOR_CHECK(frames >= 1);
  TdmaAudit audit;
  audit.frame_length = schedule.frame_length();
  audit.senders_total = g.size();
  std::vector<bool> fully_heard(g.size(), true);
  std::vector<radio::TxRecord> transmissions;
  std::vector<std::uint8_t> listening(g.size());
  std::vector<radio::Reception> receptions;
  // heard_from[u]: the sender u decoded this slot (reset after each slot).
  std::vector<graph::NodeId> heard_from(g.size(), graph::kInvalidNode);
  radio::Slot slot = 0;
  for (std::uint32_t frame = 0; frame < frames; ++frame) {
    for (std::uint32_t t = 0; t < schedule.frame_length(); ++t, ++slot) {
      transmissions.clear();
      for (graph::NodeId v = 0; v < g.size(); ++v) {
        listening[v] = schedule.slot_of(v) != t ? 1 : 0;
        if (listening[v] != 0) continue;
        radio::Message broadcast;
        broadcast.sender = v;
        transmissions.push_back({v, broadcast});
      }
      medium.resolve(slot, transmissions, listening, receptions);
      for (const radio::Reception& r : receptions) {
        heard_from[r.listener] = transmissions[r.tx].sender;
      }
      for (const radio::TxRecord& tx : transmissions) {
        for (graph::NodeId u : g.neighbors(tx.sender)) {
          ++audit.pairs_total;
          if (heard_from[u] == tx.sender) {
            ++audit.pairs_delivered;
          } else {
            fully_heard[tx.sender] = false;
          }
        }
      }
      for (const radio::Reception& r : receptions) {
        heard_from[r.listener] = graph::kInvalidNode;
      }
    }
  }
  for (bool heard : fully_heard) audit.senders_fully_heard += heard;
  return audit;
}

}  // namespace

TdmaSchedule TdmaSchedule::from_coloring(const graph::Coloring& coloring) {
  SINRCOLOR_CHECK_MSG(coloring.complete(),
                      "TDMA schedules need a complete coloring");
  // Compact the palette: colors in increasing order map to slots 0,1,2,...
  std::map<graph::Color, std::uint32_t> compact;
  for (graph::Color c : coloring.color) compact.emplace(c, 0);
  std::uint32_t next = 0;
  for (auto& [color, slot] : compact) slot = next++;

  TdmaSchedule schedule;
  schedule.frame_length_ = next;
  schedule.slot_.reserve(coloring.size());
  for (graph::Color c : coloring.color) schedule.slot_.push_back(compact.at(c));
  return schedule;
}

std::vector<graph::NodeId> TdmaSchedule::nodes_in_slot(std::uint32_t t) const {
  std::vector<graph::NodeId> nodes;
  for (graph::NodeId v = 0; v < slot_.size(); ++v) {
    if (slot_[v] == t) nodes.push_back(v);
  }
  return nodes;
}

std::string TdmaAudit::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "frame=%u pairs=%llu/%llu (%.2f%%) full_senders=%zu/%zu",
                frame_length, static_cast<unsigned long long>(pairs_delivered),
                static_cast<unsigned long long>(pairs_total),
                delivery_rate() * 100.0, senders_fully_heard, senders_total);
  return buf;
}

TdmaAudit audit_tdma_sinr(const graph::UnitDiskGraph& g,
                          const sinr::SinrParams& phys,
                          const TdmaSchedule& schedule) {
  return audit_frames(g, radio::SinrInterferenceModel(g, phys), schedule, 1);
}

TdmaAudit audit_tdma_graph_model(const graph::UnitDiskGraph& g,
                                 const TdmaSchedule& schedule) {
  return audit_frames(g, radio::GraphInterferenceModel(g), schedule, 1);
}

TdmaAudit audit_tdma_sinr_fading(const graph::UnitDiskGraph& g,
                                 const sinr::SinrParams& phys,
                                 const sinr::FadingSpec& fading,
                                 const TdmaSchedule& schedule,
                                 std::uint32_t frames) {
  return audit_frames(g, radio::SinrInterferenceModel(g, phys, fading),
                      schedule, frames);
}

}  // namespace sinrcolor::mac
