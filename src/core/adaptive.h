// Adaptive-Δ variant — a constructive take on the paper's Section-VI open
// question ("can we get rid of the knowledge of Δ?").
//
// HEURISTIC, NO PROOF: each node starts from a small local degree estimate
// Δ̂_v, derives its own protocol parameters from it, and doubles whenever it
// has decoded messages from more distinct neighbors than Δ̂_v allows
// (restarting its current color class with the new, more conservative
// parameters). The rationale is experiment X11's finding: *over*estimating Δ
// preserves correctness and costs only a linear factor — so a node only
// needs to reach Δ̂_v ≥ (its relevant competition degree) eventually, and
// decoded-neighbor counts are exactly the evidence of underestimation.
// Nodes that already decided never restart. n is still assumed known.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/mw_node.h"
#include "core/mw_params.h"
#include "core/mw_protocol.h"
#include "graph/coloring.h"
#include "radio/simulator.h"

namespace sinrcolor::core {

class AdaptiveMwNode final : public radio::Protocol {
 public:
  AdaptiveMwNode(graph::NodeId id, std::size_t n, sinr::SinrParams phys,
                 PracticalTuning tuning, std::size_t initial_delta);

  void on_wake(radio::Slot slot) override;
  std::optional<radio::Message> begin_slot(radio::Slot slot,
                                           common::Rng& rng) override;
  bool on_receive(radio::Slot slot, const radio::Message& message) override;
  bool decided() const override { return inner_->decided(); }

  graph::Color final_color() const { return inner_->final_color(); }
  MwStateKind state() const { return inner_->state(); }
  std::size_t delta_estimate() const { return delta_hat_; }
  std::size_t distinct_neighbors_heard() const { return heard_.size(); }
  std::uint32_t restarts() const { return restarts_; }

 private:
  void rebuild(radio::Slot slot, std::size_t new_delta);

  const graph::NodeId id_;
  const std::size_t n_;
  const sinr::SinrParams phys_;
  const PracticalTuning tuning_;
  std::size_t delta_hat_;
  std::uint32_t restarts_ = 0;
  // Ordered on purpose: unordered_set iteration order varies across library
  // implementations, and anything feeding restart decisions must be
  // bit-stable across same-seed runs (sinrlint R1).
  std::set<graph::NodeId> heard_;
  MwParams params_;  // owned; inner_ holds a reference to this member
  std::unique_ptr<MwNode> inner_;
};

struct AdaptiveRunConfig {
  std::uint64_t seed = 1;
  PracticalTuning tuning;
  std::size_t initial_delta = 2;
  WakeupKind wakeup = WakeupKind::kSimultaneous;
  radio::Slot wakeup_window = 0;
  radio::Slot max_slots = 0;  ///< 0 ⇒ derived from the TRUE Δ's horizon
};

struct AdaptiveRunResult {
  graph::Coloring coloring;
  radio::RunMetrics metrics;
  bool coloring_valid = false;
  std::size_t palette = 0;
  std::size_t independence_violations = 0;
  std::uint64_t total_restarts = 0;
  double mean_final_delta = 0.0;  ///< mean Δ̂_v at the end
  std::size_t max_final_delta = 0;

  std::string summary() const;
};

/// Runs the adaptive variant under the SINR medium; nodes receive NO Δ
/// knowledge (only n). Verifies Theorem-1 independence online like the
/// standard driver.
AdaptiveRunResult run_adaptive_coloring(const graph::UnitDiskGraph& g,
                                        const AdaptiveRunConfig& config = {});

}  // namespace sinrcolor::core
