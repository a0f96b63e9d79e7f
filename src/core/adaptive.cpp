#include "core/adaptive.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "radio/interference_model.h"

namespace sinrcolor::core {
namespace {

MwParams params_for(std::size_t n, const sinr::SinrParams& phys,
                    const PracticalTuning& tuning, std::size_t delta) {
  MwConfig cfg;
  cfg.n = n;
  cfg.max_degree = std::max<std::size_t>(delta, 1);
  cfg.phys = phys;
  return MwParams::practical(cfg, tuning);
}

}  // namespace

AdaptiveMwNode::AdaptiveMwNode(graph::NodeId id, std::size_t n,
                               sinr::SinrParams phys, PracticalTuning tuning,
                               std::size_t initial_delta)
    : id_(id),
      n_(n),
      phys_(phys),
      tuning_(tuning),
      delta_hat_(std::max<std::size_t>(initial_delta, 1)),
      params_(params_for(n, phys, tuning, delta_hat_)),
      inner_(std::make_unique<MwNode>(id, params_)) {}

void AdaptiveMwNode::on_wake(radio::Slot slot) {
  SINRCOLOR_CHECK_MSG(inner_->state() == MwStateKind::kAsleep,
                      "on_wake on an already-woken adaptive node");
  inner_->on_wake(slot);
}

std::optional<radio::Message> AdaptiveMwNode::begin_slot(radio::Slot slot,
                                                         common::Rng& rng) {
  SINRCOLOR_CHECK_MSG(inner_->state() != MwStateKind::kAsleep,
                      "begin_slot on a sleeping adaptive node");
  return inner_->begin_slot(slot, rng);
}

void AdaptiveMwNode::rebuild(radio::Slot slot, std::size_t new_delta) {
  delta_hat_ = new_delta;
  ++restarts_;
  // params_ is re-assigned in place: inner_'s reference would stay valid, but
  // the restart semantics are "re-enter A_0 with fresh parameters", so the
  // state machine is recreated anyway.
  params_ = params_for(n_, phys_, tuning_, delta_hat_);
  inner_ = std::make_unique<MwNode>(id_, params_);
  inner_->on_wake(slot);
}

// The node keeps the default plan, so every delivery re-plans it.
bool AdaptiveMwNode::on_receive(radio::Slot slot, const radio::Message& msg) {
  SINRCOLOR_CHECK_MSG(inner_->state() != MwStateKind::kAsleep,
                      "delivery to a sleeping adaptive node");
  heard_.insert(msg.sender);
  if (!inner_->decided() && heard_.size() > delta_hat_) {
    // Evidence of underestimation: we have ≥ heard_ neighbors. Double past
    // the observed count for slack (X11: overestimates are safe).
    rebuild(slot, 2 * heard_.size());
  }
  inner_->on_receive(slot, msg);
  return true;
}

std::string AdaptiveRunResult::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "colors=%zu valid=%s indep_viol=%zu restarts=%llu "
                "mean_delta_hat=%.1f max_delta_hat=%zu %s",
                palette, coloring_valid ? "yes" : "NO",
                independence_violations,
                static_cast<unsigned long long>(total_restarts),
                mean_final_delta, max_final_delta, metrics.summary().c_str());
  return buf;
}

AdaptiveRunResult run_adaptive_coloring(const graph::UnitDiskGraph& g,
                                        const AdaptiveRunConfig& config) {
  const sinr::SinrParams phys = sinr::SinrParams{}.with_r_t(g.radius());

  radio::Simulator simulator(
      g, std::make_unique<radio::SinrInterferenceModel>(g, phys),
      make_wakeup_schedule(g.size(), config.wakeup, config.wakeup_window,
                           config.seed),
      config.seed);

  std::vector<AdaptiveMwNode*> nodes;
  nodes.reserve(g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    auto node = std::make_unique<AdaptiveMwNode>(
        v, g.size(), phys, config.tuning, config.initial_delta);
    nodes.push_back(node.get());
    simulator.set_protocol(v, std::move(node));
  }

  std::size_t violations = 0;
  simulator.add_observer(
      [&, known = std::vector<bool>(g.size(), false)](
          radio::Slot, std::span<const radio::TxRecord>) mutable {
        for (graph::NodeId v = 0; v < g.size(); ++v) {
          if (known[v] || !nodes[v]->decided()) continue;
          known[v] = true;
          const graph::Color mine = nodes[v]->final_color();
          for (graph::NodeId u : g.neighbors(v)) {
            if (known[u] && nodes[u]->final_color() == mine) ++violations;
          }
        }
      });

  // Horizon: restarts cost extra rounds; allow a few true-Δ horizons.
  radio::Slot horizon = config.max_slots;
  if (horizon <= 0) {
    const auto true_params = params_for(
        g.size(), phys, config.tuning, std::max<std::size_t>(g.max_degree(), 1));
    horizon = 4 * true_params.recommended_max_slots();
  }

  AdaptiveRunResult result;
  result.metrics = simulator.run(horizon);
  result.coloring.color.reserve(g.size());
  double delta_sum = 0.0;
  for (AdaptiveMwNode* node : nodes) {
    result.coloring.color.push_back(node->final_color());
    result.total_restarts += node->restarts();
    delta_sum += static_cast<double>(node->delta_estimate());
    result.max_final_delta =
        std::max(result.max_final_delta, node->delta_estimate());
  }
  result.mean_final_delta =
      g.size() > 0 ? delta_sum / static_cast<double>(g.size()) : 0.0;
  result.coloring_valid = graph::is_valid_coloring(g, result.coloring);
  result.palette = result.coloring.palette_size();
  result.independence_violations = violations;
  return result;
}

}  // namespace sinrcolor::core
