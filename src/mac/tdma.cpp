#include "mac/tdma.h"

#include <cstdio>
#include <map>
#include <numeric>

#include "common/check.h"
#include "mac/slot_step.h"

namespace sinrcolor::mac {
namespace {

/// The frame audit every channel shares: over `frames` consecutive frames
/// every node broadcasts once, in its frame slot, and `medium` resolves each
/// slot. Pair (v, u) is delivered iff neighbor u decoded v's broadcast; a
/// neighbor scheduled in the same slot is itself transmitting and cannot
/// receive (half-duplex), so its pair fails. A sender is fully heard iff
/// every neighbor decoded it in every frame.
TdmaAudit audit_frames(const graph::UnitDiskGraph& g,
                       const radio::InterferenceModel& medium,
                       const TdmaSchedule& schedule, std::uint32_t frames) {
  SINRCOLOR_CHECK(frames >= 1);
  FrameLoop loop(g, medium, schedule);
  std::vector<bool> fully_heard(g.size(), true);
  for (std::uint32_t frame = 0; frame < frames; ++frame) {
    loop.run_frame([](graph::NodeId /*v*/) { return true; },
                   [&](graph::NodeId v, graph::NodeId /*u*/, bool delivered) {
                     if (!delivered) fully_heard[v] = false;
                   });
  }
  TdmaAudit audit;
  audit.frame_length = schedule.frame_length();
  audit.senders_total = g.size();
  audit.pairs_total = loop.pairs();
  audit.pairs_delivered = loop.pairs() - loop.missed();
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
  schedule.slot_.reserve(coloring.size());
  for (graph::Color c : coloring.color) schedule.slot_.push_back(compact.at(c));
  // Class lists by counting sort, so ids ascend within each class.
  auto& offsets = schedule.offsets_;
  offsets.assign(next + 1, 0);
  for (std::uint32_t t : schedule.slot_) ++offsets[t + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  schedule.members_.resize(coloring.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (graph::NodeId v = 0; v < coloring.size(); ++v) {
    schedule.members_[cursor[schedule.slot_[v]]++] = v;
  }
  return schedule;
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
