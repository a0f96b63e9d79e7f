#include "core/timeline.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace sinrcolor::core {

void StateTimeline::attach(MwInstance& instance) {
  SINRCOLOR_CHECK(interval_ >= 1);
  node_count_ = instance.graph().size();
  const auto& nodes = instance.nodes();
  instance.simulator().add_observer(
      [this, &nodes](radio::Slot slot, std::span<const radio::TxRecord>) {
        if (slot % interval_ != 0) return;
        Sample sample;
        sample.slot = slot;
        for (const MwNode* node : nodes) {
          ++sample.count[static_cast<std::size_t>(node->state())];
        }
        samples_.push_back(sample);
      });
}

radio::Slot StateTimeline::decided_fraction_slot(double fraction) const {
  SINRCOLOR_CHECK(fraction >= 0.0 && fraction <= 1.0);
  const double target = fraction * static_cast<double>(node_count_);
  for (const Sample& sample : samples_) {
    const auto decided =
        sample.count[static_cast<std::size_t>(MwStateKind::kLeader)] +
        sample.count[static_cast<std::size_t>(MwStateKind::kColored)];
    if (static_cast<double>(decided) >= target) return sample.slot;
  }
  return -1;
}

std::string StateTimeline::render_ascii(std::size_t max_columns) const {
  if (samples_.empty() || node_count_ == 0) return "(no samples)\n";
  max_columns = std::max<std::size_t>(max_columns, 8);

  // Compress samples into at most max_columns buckets (mean per bucket).
  const std::size_t buckets = std::min(max_columns, samples_.size());
  std::vector<std::array<double, kStates>> compressed(
      buckets, std::array<double, kStates>{});
  std::vector<std::size_t> weight(buckets, 0);
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const std::size_t b = i * buckets / samples_.size();
    for (std::size_t k = 0; k < kStates; ++k) {
      compressed[b][k] += samples_[i].count[k];
    }
    ++weight[b];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    for (auto& v : compressed[b]) v /= static_cast<double>(weight[b]);
  }

  static constexpr const char* kGlyphs = " .:+*#";
  static constexpr std::array<MwStateKind, kStates> kOrder = {
      MwStateKind::kAsleep,     MwStateKind::kListening,
      MwStateKind::kCompeting,  MwStateKind::kRequesting,
      MwStateKind::kLeader,     MwStateKind::kColored,
  };

  std::string out;
  for (MwStateKind kind : kOrder) {
    char label[16];
    std::snprintf(label, sizeof label, "%10s |", to_string(kind));
    out += label;
    for (std::size_t b = 0; b < buckets; ++b) {
      const double share = compressed[b][static_cast<std::size_t>(kind)] /
                           static_cast<double>(node_count_);
      const auto level = static_cast<std::size_t>(
          std::min(5.0, std::max(0.0, share * 5.0 + (share > 0.0 ? 0.999 : 0.0))));
      out += kGlyphs[level];
    }
    out += "|\n";
  }
  char footer[96];
  std::snprintf(footer, sizeof footer,
                "%10s  slots 0..%lld, %zu samples every %lld slots\n", "",
                static_cast<long long>(samples_.back().slot), samples_.size(),
                static_cast<long long>(interval_));
  out += footer;
  return out;
}

StateTimeline timeline_from_trace(std::span<const obs::TraceEvent> events,
                                  std::size_t node_count,
                                  radio::Slot interval) {
  SINRCOLOR_CHECK(interval >= 1);
  StateTimeline timeline(interval);
  timeline.set_node_count(node_count);
  if (events.empty() || node_count == 0) return timeline;

  // Replay: per-node MwStateKind value, updated event by event; a sample row
  // is flushed whenever the replay crosses a slot boundary that is a
  // multiple of `interval`. The table ends one past the largest node id an
  // event names (a header may declare up to 2^32 − 1 nodes); the nodes past
  // it never leave kAsleep, and count[0] holds them all the same.
  std::size_t named = 0;
  for (const obs::TraceEvent& e : events) {
    SINRCOLOR_CHECK_MSG(e.node < node_count,
                        "trace event for a node beyond node_count");
    named = std::max<std::size_t>(named, std::size_t{e.node} + 1);
  }
  std::vector<std::uint8_t> state(named, 0);  // kAsleep
  std::array<std::uint32_t, StateTimeline::kStates> count{};
  count[0] = static_cast<std::uint32_t>(node_count);
  const radio::Slot last_slot = events.back().slot;
  radio::Slot next_sample = 0;
  const auto move = [&](graph::NodeId v, std::uint8_t to) {
    --count[state[v]];
    state[v] = to;
    ++count[to];
  };
  const auto flush_until = [&](radio::Slot limit) {
    while (next_sample <= limit) {
      StateTimeline::Sample sample;
      sample.slot = next_sample;
      sample.count = count;
      timeline.add_sample(sample);
      next_sample += interval;
    }
  };

  for (const obs::TraceEvent& e : events) {
    flush_until(e.slot - 1);
    switch (e.kind) {
      case obs::EventKind::kMwTransition:
        move(e.node, static_cast<std::uint8_t>(e.b));
        break;
      case obs::EventKind::kFailure:
        move(e.node, 0);  // dead nodes render as asleep
        break;
      case obs::EventKind::kColorFinalized:
        // Fast-join confirmations carry no MW transition; count them as
        // colored. MW decisions already moved via kMwTransition (move is
        // then a no-op only if the finalize repeats, e.g. a join repair).
        if (state[e.node] !=
                static_cast<std::uint8_t>(MwStateKind::kLeader) &&
            state[e.node] !=
                static_cast<std::uint8_t>(MwStateKind::kColored)) {
          move(e.node, static_cast<std::uint8_t>(MwStateKind::kColored));
        }
        break;
      default:
        break;
    }
  }
  flush_until(last_slot);
  if (timeline.samples().empty() ||
      timeline.samples().back().slot < last_slot) {
    // Close with the end-of-run population even when `last_slot` is not a
    // sample boundary, so decided_fraction_slot(1.0) can see the final state.
    StateTimeline::Sample sample;
    sample.slot = last_slot;
    sample.count = count;
    timeline.add_sample(sample);
  }
  return timeline;
}

}  // namespace sinrcolor::core
