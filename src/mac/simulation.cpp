#include "mac/simulation.h"

#include <algorithm>

#include "common/check.h"
#include "mac/slot_step.h"

namespace sinrcolor::mac {

ExecutionResult run_over_sinr_tdma(
    const graph::UnitDiskGraph& g, const sinr::SinrParams& phys,
    const TdmaSchedule& schedule,
    std::vector<std::unique_ptr<UniformAlgorithm>>& nodes,
    std::uint32_t max_rounds, obs::RunObservation* observation) {
  SINRCOLOR_CHECK(nodes.size() == g.size());
  const radio::SinrInterferenceModel medium(g, phys);
  FrameLoop frames(g, medium, schedule, observation);
  std::vector<std::optional<Payload>> outbox(g.size());
  auto run = run_rounds(
      nodes, max_rounds,
      [&](std::uint32_t round, ExecutionResult& result,
          std::vector<Inbox>& inbox) {
        for (graph::NodeId v = 0; v < g.size(); ++v) {
          outbox[v] = nodes[v]->round_message(round);
          if (outbox[v].has_value()) ++result.messages_sent;
        }
        // One TDMA frame: frame slot t carries the messages of class t.
        frames.run_frame(
            [&](graph::NodeId v) { return outbox[v].has_value(); },
            [&](graph::NodeId v, graph::NodeId u, bool delivered) {
              if (!delivered) return;
              inbox[u].messages.emplace_back(v, *outbox[v]);
              ++result.deliveries;
            });
      });
  frames.finish(run);
  return run;
}

ExecutionResult run_general_over_sinr_tdma(
    const graph::UnitDiskGraph& g, const sinr::SinrParams& phys,
    const TdmaSchedule& schedule,
    std::vector<std::unique_ptr<GeneralAlgorithm>>& nodes,
    std::uint32_t max_rounds, GeneralStrategy strategy,
    obs::RunObservation* observation) {
  SINRCOLOR_CHECK(nodes.size() == g.size());
  const radio::SinrInterferenceModel medium(g, phys);
  FrameLoop frames(g, medium, schedule, observation);
  std::vector<std::vector<std::pair<graph::NodeId, Payload>>> outbox(g.size());
  auto run = run_rounds(
      nodes, max_rounds,
      [&](std::uint32_t round, ExecutionResult& result,
          std::vector<Inbox>& inbox) {
        std::size_t max_out = 0;
        for (graph::NodeId v = 0; v < g.size(); ++v) {
          outbox[v] = nodes[v]->round_messages(round);
          for (const auto& entry : outbox[v]) {
            SINRCOLOR_CHECK_MSG(g.adjacent(v, entry.first),
                                "general-model message to a non-neighbor");
          }
          result.messages_sent += outbox[v].size();
          max_out = std::max(max_out, outbox[v].size());
        }
        // A receiver keeps only the entries addressed to it; a physical
        // delivery with none still counts as delivered, not missed.
        const auto keep = [&](graph::NodeId v, graph::NodeId u,
                              const std::pair<graph::NodeId, Payload>& entry) {
          if (entry.first != u) return;
          inbox[u].messages.emplace_back(v, entry.second);
          ++result.deliveries;
        };
        if (strategy == GeneralStrategy::kBundled) {
          result.max_bundle_entries =
              std::max(result.max_bundle_entries, max_out);
          // One frame; each broadcast carries the sender's whole bundle.
          frames.run_frame(
              [&](graph::NodeId v) { return !outbox[v].empty(); },
              [&](graph::NodeId v, graph::NodeId u, bool delivered) {
                if (!delivered) return;
                for (const auto& entry : outbox[v]) keep(v, u, entry);
              });
        } else {
          // One frame per outgoing-message index: sub-frame k carries every
          // node's k-th message, so a round in which no node sends runs no
          // frame and costs no slot.
          for (std::size_t k = 0; k < max_out; ++k) {
            frames.run_frame(
                [&](graph::NodeId v) { return outbox[v].size() > k; },
                [&](graph::NodeId v, graph::NodeId u, bool delivered) {
                  if (delivered) keep(v, u, outbox[v][k]);
                });
          }
        }
      });
  frames.finish(run);
  return run;
}

}  // namespace sinrcolor::mac
