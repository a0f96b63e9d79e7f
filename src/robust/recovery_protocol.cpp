#include "robust/recovery_protocol.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "core/verify.h"

namespace sinrcolor::robust {

RecoveryInstance::RecoveryInstance(const graph::UnitDiskGraph& g,
                                   const core::MwRunConfig& config)
    : graph_(g),
      config_(config),
      params_(core::derive_mw_params(g, config)) {
  simulator_ = std::make_unique<radio::Simulator>(
      graph_, core::make_interference_model(graph_, config_),
      core::make_wakeup_schedule(g.size(), config_.wakeup,
                                 config_.wakeup_window, config_.seed),
      config_.seed);

  const core::RecoveryOptions& rec = config_.recovery;
  std::vector<bool> is_joiner(g.size(), false);
  if (rec.join_fraction > 0.0) {
    SINRCOLOR_CHECK(rec.join_fraction <= 1.0);
    SINRCOLOR_CHECK(rec.join_at >= 0 && rec.join_window >= 0);
    common::Rng rng(common::derive_seed(config_.seed, 0x901dULL));
    std::vector<graph::NodeId> order(g.size());
    for (graph::NodeId v = 0; v < g.size(); ++v) order[v] = v;
    common::shuffle(order, rng);
    const auto arrivals = static_cast<std::size_t>(
        std::ceil(rec.join_fraction * static_cast<double>(g.size())));
    for (std::size_t k = 0; k < arrivals && k < order.size(); ++k) {
      const graph::NodeId v = order[k];
      is_joiner[v] = true;
      joiners_.push_back(v);
      simulator_->set_join_slot(
          v, rec.join_at + rng.uniform_int(0, std::max<radio::Slot>(
                                                  rec.join_window, 0)));
    }
  }
  core::schedule_random_failures(*simulator_, config_, &is_joiner);

  nodes_.reserve(g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    auto node = std::make_unique<SelfHealingNode>(v, params_, rec, is_joiner[v]);
    nodes_.push_back(node.get());
    simulator_->set_protocol(v, std::move(node));
  }
}

void RecoveryInstance::attach_observation(obs::RunObservation* observation) {
  observation_ = observation;
  simulator_->set_observation(observation);
  for (SelfHealingNode* node : nodes_) node->set_observation(observation);
}

core::MwRunResult RecoveryInstance::run() {
  obs::Profiler* const profiler =
      observation_ != nullptr ? observation_->profiler.get() : nullptr;
  SINRCOLOR_PROFILE(profiler, obs::Phase::kRun);
  const core::RecoveryOptions& rec = config_.recovery;
  radio::Slot horizon = config_.max_slots > 0 ? config_.max_slots
                                              : params_.recommended_max_slots();
  if (!joiners_.empty()) {
    // Late arrivals need room to listen, pick and confirm after the last
    // join slot, whatever the base horizon was sized for.
    const radio::Slot listen = join_listen_slots(params_);
    const radio::Slot confirm =
        rec.join_confirm_slots > 0
            ? rec.join_confirm_slots
            : static_cast<radio::Slot>(params_.window_positive);
    horizon = std::max(horizon, rec.join_at + rec.join_window + listen +
                                    8 * confirm);
  }

  core::MwRunResult result;
  result.params = params_;
  // Post-decision settle window: air time for the late-conflict watch
  // after the last decision (0 keeps the original stop-on-decided exit).
  simulator_->set_settle_slots(rec.settle_slots);
  result.metrics = simulator_->run(horizon);

  const std::size_t n = graph_.size();
  result.coloring.color.assign(n, graph::kUncolored);
  for (std::size_t v = 0; v < n; ++v) {
    result.coloring.color[v] = nodes_[v]->final_color();
    const core::MwNode* inner = nodes_[v]->inner();
    if (inner != nullptr && inner->state() == core::MwStateKind::kLeader) {
      result.leaders.push_back(static_cast<graph::NodeId>(v));
    }
  }

  // Dead nodes keep their stale color in result.coloring for inspection;
  // validity and the palette count the live nodes only.
  const core::LiveColoring live =
      core::live_coloring(graph_, result.coloring, result.metrics.death_slot);
  result.coloring_valid = live.valid;
  result.palette = live.coloring.palette_size();
  result.max_color = live.coloring.max_color();

  core::RecoveryStats& stats = result.recovery;
  stats.joined_nodes = result.metrics.joined_nodes;
  double latency_total = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const SelfHealingNode& node = *nodes_[v];
    stats.failovers += node.failovers();
    stats.join_conflicts_repaired += node.conflicts_repaired();
    stats.late_conflicts_repaired += node.late_conflicts_repaired();
    if (node.is_joiner() && node.fell_back_to_full_protocol()) {
      ++stats.join_fallbacks;
    }
    if (node.degraded()) ++stats.degraded_nodes;
    if (node.failovers() > 0 && node.decided() &&
        result.metrics.decision_slot[v] >= 0) {
      ++stats.recovered_nodes;
      const radio::Slot latency =
          result.metrics.decision_slot[v] - node.first_failover_slot();
      latency_total += static_cast<double>(latency);
      stats.max_failover_latency = std::max(stats.max_failover_latency, latency);
    }
  }
  if (stats.recovered_nodes > 0) {
    stats.mean_failover_latency =
        latency_total / static_cast<double>(stats.recovered_nodes);
  }
  if (observation_ != nullptr) {
    auto& m = observation_->metrics;
    m.counter("robust.recovered_nodes").add(stats.recovered_nodes);
    m.counter("robust.join_fallbacks").add(stats.join_fallbacks);
    m.counter("robust.join_conflicts_repaired")
        .add(stats.join_conflicts_repaired);
    m.counter("robust.late_conflicts_repaired")
        .add(stats.late_conflicts_repaired);
  }
  return result;
}

core::MwRunResult run_recovering_mw(const graph::UnitDiskGraph& g,
                                    const core::MwRunConfig& config) {
  RecoveryInstance instance(g, config);
  return instance.run();
}

}  // namespace sinrcolor::robust
