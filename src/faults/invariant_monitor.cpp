#include "faults/invariant_monitor.h"

#include <algorithm>

#include "common/check.h"
#include "geometry/point.h"
#include "obs/observation.h"

namespace sinrcolor::faults {
namespace {

std::uint64_t pack_edge(graph::NodeId u, graph::NodeId v) {
  if (u > v) std::swap(u, v);
  return static_cast<std::uint64_t>(u) << 32 | v;
}

}  // namespace

const char* InvariantMonitor::check_name(std::size_t check) {
  switch (check) {
    case 0: return "legality";
    case 1: return "tx_independence";
    case 2: return "feasibility";
    default: return "?";
  }
}

void InvariantMonitor::note_violation(std::size_t check, radio::Slot slot) {
  if (check_first_[check] < 0) check_first_[check] = slot;
  check_last_[check] = slot;
}

InvariantMonitor::InvariantMonitor(const graph::UnitDiskGraph& graph,
                                   ColorFn color, Options options)
    : graph_(graph), color_(std::move(color)), options_(options) {
  SINRCOLOR_CHECK(color_ != nullptr);
  feasibility_flagged_.assign(graph_.size(), 0);
}

InvariantMonitor::InvariantMonitor(const graph::UnitDiskGraph& graph,
                                   ColorFn color)
    : InvariantMonitor(graph, std::move(color), Options{}) {}

void InvariantMonitor::attach(radio::Simulator& sim) {
  SINRCOLOR_CHECK_MSG(sim_ == nullptr, "monitor already attached");
  SINRCOLOR_CHECK(&sim.graph() == &graph_);
  sim_ = &sim;
  sim.add_end_observer([this](radio::Slot slot) { scan_end_of_slot(slot); });
  sim.add_observer(
      [this](radio::Slot slot, std::span<const radio::TxRecord> txs) {
        scan_transmissions(slot, txs);
      });
}

void InvariantMonitor::scan_end_of_slot(radio::Slot slot) {
  last_slot_ = slot;
  obs::RunObservation* observation = sim_->observation();

  // Pass 1 — open an episode for every conflicting live edge not already
  // tracked. The scan is O(m) per slot; the monitor is an opt-in
  // diagnostic, not part of the protocol's hot path.
  for (graph::NodeId v = 0; v < graph_.size(); ++v) {
    if (sim_->node_dead(v)) continue;
    const graph::Color mine = color_(v);
    if (mine == graph::kUncolored) continue;
    for (graph::NodeId u : graph_.neighbors(v)) {
      if (u <= v || sim_->node_dead(u) || color_(u) != mine) continue;
      const auto [it, fresh] = open_.emplace(pack_edge(v, u), slot);
      if (fresh) {
        ++legality_violations_;
        note_violation(0, slot);
        if (observation != nullptr) {
          observation->trace.record(slot,
                                    obs::EventKind::kInvariantViolation, v,
                                    u, 0, static_cast<std::int64_t>(mine));
        }
      }
    }
  }
  // Pass 2 — close episodes whose edge no longer conflicts (one side was
  // repaired to a different color, reverted to undecided, or died).
  for (auto it = open_.begin(); it != open_.end();) {
    const auto u = static_cast<graph::NodeId>(it->first >> 32);
    const auto v = static_cast<graph::NodeId>(it->first & 0xffffffffULL);
    const bool conflicting = !sim_->node_dead(u) && !sim_->node_dead(v) &&
                             color_(u) != graph::kUncolored &&
                             color_(u) == color_(v);
    if (conflicting) {
      ++it;
      continue;
    }
    const radio::Slot duration = slot - it->second;
    durations_.push_back(duration);
    if (observation != nullptr) {
      observation->trace.record(slot, obs::EventKind::kConflictRepaired, u,
                                v, 0, static_cast<std::int64_t>(duration));
    }
    it = open_.erase(it);
  }

  if (options_.max_color >= 0) {
    for (graph::NodeId v = 0; v < graph_.size(); ++v) {
      if (feasibility_flagged_[v] != 0 || sim_->node_dead(v)) continue;
      const graph::Color c = color_(v);
      if (c == graph::kUncolored || c <= options_.max_color) continue;
      feasibility_flagged_[v] = 1;
      ++feasibility_violations_;
      note_violation(2, slot);
      if (observation != nullptr) {
        observation->trace.record(slot, obs::EventKind::kInvariantViolation,
                                  v, obs::kNoNode, 2,
                                  static_cast<std::int64_t>(c));
      }
    }
  }
}

void InvariantMonitor::scan_transmissions(
    radio::Slot slot, std::span<const radio::TxRecord> txs) {
  // Two adjacent nodes beaconing the SAME claimed color in the same slot:
  // the on-air face of an independence violation. Beacon kinds only —
  // compete/request traffic does not claim a color.
  obs::RunObservation* observation = sim_->observation();
  const auto claimed = [](const radio::Message& m) {
    const bool beacon = m.kind == radio::MessageKind::kColorBeacon ||
                        m.kind == radio::MessageKind::kJoinBeacon;
    return beacon ? m.color_class : graph::kUncolored;
  };
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const graph::Color ci = claimed(txs[i].message);
    if (ci == graph::kUncolored) continue;
    for (std::size_t j = i + 1; j < txs.size(); ++j) {
      if (claimed(txs[j].message) != ci) continue;
      const graph::NodeId a = txs[i].sender;
      const graph::NodeId b = txs[j].sender;
      if (!geometry::within(graph_.position(a), graph_.position(b),
                            graph_.radius())) {
        continue;
      }
      ++tx_independence_violations_;
      note_violation(1, slot);
      if (observation != nullptr) {
        observation->trace.record(slot, obs::EventKind::kInvariantViolation,
                                  a, b, 1, static_cast<std::int64_t>(ci));
      }
    }
  }
}

InvariantMonitor::Report InvariantMonitor::report() const {
  Report r;
  r.legality_violations = legality_violations_;
  r.tx_independence_violations = tx_independence_violations_;
  r.feasibility_violations = feasibility_violations_;
  r.conflicts_repaired = durations_.size();
  r.open_conflicts = open_.size();
  for (const radio::Slot d : durations_) {
    r.max_conflict_duration = std::max(r.max_conflict_duration, d);
  }
  r.check[0] = {legality_violations_, check_first_[0], check_last_[0]};
  r.check[1] = {tx_independence_violations_, check_first_[1], check_last_[1]};
  r.check[2] = {feasibility_violations_, check_first_[2], check_last_[2]};
  r.open_range.count = open_.size();
  for (const auto& [edge, onset] : open_) {
    if (r.open_range.first_slot < 0 || onset < r.open_range.first_slot) {
      r.open_range.first_slot = onset;
    }
    r.open_range.last_slot = std::max(r.open_range.last_slot, onset);
  }
  return r;
}

}  // namespace sinrcolor::faults
