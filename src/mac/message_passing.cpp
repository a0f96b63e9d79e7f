#include "mac/message_passing.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace sinrcolor::mac {

const Payload* Inbox::from(graph::NodeId sender) const {
  const auto it = std::find_if(
      messages.begin(), messages.end(),
      [sender](const auto& entry) { return entry.first == sender; });
  return it == messages.end() ? nullptr : &it->second;
}

std::string ExecutionResult::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "rounds=%u terminated=%s slots=%lld sent=%llu delivered=%llu "
                "missed=%llu bundle=%zu",
                rounds, all_terminated ? "all" : "NOT ALL",
                static_cast<long long>(slots_used),
                static_cast<unsigned long long>(messages_sent),
                static_cast<unsigned long long>(deliveries),
                static_cast<unsigned long long>(missed_deliveries),
                max_bundle_entries);
  return buf;
}

std::vector<std::unique_ptr<UniformAlgorithm>> instantiate(
    const graph::UnitDiskGraph& g, const AlgorithmFactory& factory) {
  std::vector<std::unique_ptr<UniformAlgorithm>> nodes;
  nodes.reserve(g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    auto node = factory(v, g);
    SINRCOLOR_CHECK(node != nullptr);
    nodes.push_back(std::move(node));
  }
  return nodes;
}

ExecutionResult run_reference(
    const graph::UnitDiskGraph& g,
    std::vector<std::unique_ptr<UniformAlgorithm>>& nodes,
    std::uint32_t max_rounds) {
  SINRCOLOR_CHECK(nodes.size() == g.size());
  return run_rounds(
      nodes, max_rounds,
      [&](std::uint32_t round, ExecutionResult& result,
          std::vector<Inbox>& inbox) {
        for (graph::NodeId v = 0; v < g.size(); ++v) {
          const auto message = nodes[v]->round_message(round);
          if (!message.has_value()) continue;
          ++result.messages_sent;
          for (graph::NodeId u : g.neighbors(v)) {
            inbox[u].messages.emplace_back(v, *message);
            ++result.deliveries;
          }
        }
      });
}

std::vector<std::unique_ptr<GeneralAlgorithm>> instantiate_general(
    const graph::UnitDiskGraph& g, const GeneralFactory& factory) {
  std::vector<std::unique_ptr<GeneralAlgorithm>> nodes;
  nodes.reserve(g.size());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    auto node = factory(v, g);
    SINRCOLOR_CHECK(node != nullptr);
    nodes.push_back(std::move(node));
  }
  return nodes;
}

ExecutionResult run_reference_general(
    const graph::UnitDiskGraph& g,
    std::vector<std::unique_ptr<GeneralAlgorithm>>& nodes,
    std::uint32_t max_rounds) {
  SINRCOLOR_CHECK(nodes.size() == g.size());
  return run_rounds(
      nodes, max_rounds,
      [&](std::uint32_t round, ExecutionResult& result,
          std::vector<Inbox>& inbox) {
        for (graph::NodeId v = 0; v < g.size(); ++v) {
          for (auto& [target, payload] : nodes[v]->round_messages(round)) {
            SINRCOLOR_CHECK_MSG(g.adjacent(v, target),
                                "general-model message to a non-neighbor");
            ++result.messages_sent;
            ++result.deliveries;
            inbox[target].messages.emplace_back(v, std::move(payload));
          }
        }
      });
}

}  // namespace sinrcolor::mac
