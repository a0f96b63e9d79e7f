// The classical point-to-point message-passing model (paper, Section V).
//
// Rounds: in every round each node may broadcast one message to all its
// neighbors (the *uniform* model) and receives every neighbor's message of
// that round. The paper's Corollary 1 simulates such algorithms in the SINR
// model via the coloring-based TDMA MAC; this header defines the algorithm
// interface and the *reference* executor (ideal point-to-point channels),
// whose outputs the SINR simulation must reproduce bit-for-bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/unit_disk_graph.h"
#include "radio/message.h"

namespace sinrcolor::mac {

/// Message body: a small vector of integers (the framework does not
/// interpret it). Size figures into Corollary 1's bit bounds only.
using Payload = std::vector<std::int64_t>;

/// One round's received messages, sorted by sender id (deterministic order so
/// reference and simulated executions are comparable bit-for-bit).
struct Inbox {
  std::vector<std::pair<graph::NodeId, Payload>> messages;

  const Payload* from(graph::NodeId sender) const;
};

/// A node-local algorithm in the uniform message-passing model.
class UniformAlgorithm {
 public:
  virtual ~UniformAlgorithm() = default;

  /// Message to broadcast in `round` (nullopt = stay silent).
  virtual std::optional<Payload> round_message(std::uint32_t round) = 0;

  /// All messages received in `round`, delivered at the round boundary.
  virtual void end_round(std::uint32_t round, const Inbox& inbox) = 0;

  /// True once the node's output is final (it may still relay if asked).
  virtual bool terminated() const = 0;
};

/// Constructs the per-node algorithm instances; `v` is the node id.
using AlgorithmFactory = std::function<std::unique_ptr<UniformAlgorithm>(
    graph::NodeId v, const graph::UnitDiskGraph& g)>;

/// A node-local algorithm in the *general* model (paper, Section V): in each
/// round a node may send a DIFFERENT message to each neighbor. Corollary 1
/// simulates these under SINR either by bundling all per-neighbor messages
/// into one broadcast (O(sΔ log n) bits, O(Δ(log n + τ)) slots) or by
/// serializing them (O(s log n) bits, O(Δ log n + Δ²τ) slots).
class GeneralAlgorithm {
 public:
  virtual ~GeneralAlgorithm() = default;

  /// Messages to send this round, one entry per addressed neighbor
  /// (unlisted neighbors receive nothing). Addressing a non-neighbor aborts.
  virtual std::vector<std::pair<graph::NodeId, Payload>> round_messages(
      std::uint32_t round) = 0;

  /// Messages addressed to this node this round (sorted by sender).
  virtual void end_round(std::uint32_t round, const Inbox& inbox) = 0;

  virtual bool terminated() const = 0;
};

using GeneralFactory = std::function<std::unique_ptr<GeneralAlgorithm>(
    graph::NodeId v, const graph::UnitDiskGraph& g)>;

struct ExecutionResult {
  std::uint32_t rounds = 0;          ///< rounds executed (τ)
  bool all_terminated = false;
  radio::Slot slots_used = 0;        ///< radio slots (0 for the reference run)
  std::uint64_t messages_sent = 0;
  std::uint64_t deliveries = 0;
  /// (sender, neighbor) pairs whose delivery failed — always 0 for the
  /// reference executor; 0 under SINR iff the schedule is interference-free.
  std::uint64_t missed_deliveries = 0;
  /// General model, bundled strategy: largest number of per-neighbor entries
  /// carried by one broadcast (the Corollary-1 message-size blowup factor).
  std::size_t max_bundle_entries = 0;

  std::string summary() const;
};

/// The round structure every executor shares, ideal or over a TDMA MAC:
/// until every node has terminated or `max_rounds`, round_body(round,
/// result, inbox) sends the round's messages into the cleared inboxes; each
/// node then ends the round with its inbox sorted by sender.
template <typename Node, typename RoundBody>
ExecutionResult run_rounds(std::vector<std::unique_ptr<Node>>& nodes,
                           std::uint32_t max_rounds, RoundBody&& round_body) {
  const auto all_terminated = [&nodes] {
    return std::all_of(nodes.begin(), nodes.end(),
                       [](const auto& node) { return node->terminated(); });
  };
  ExecutionResult result;
  std::vector<Inbox> inbox(nodes.size());
  for (std::uint32_t round = 0; round < max_rounds; ++round) {
    if (all_terminated()) {
      result.all_terminated = true;
      break;
    }
    result.rounds = round + 1;
    for (Inbox& box : inbox) box.messages.clear();
    round_body(round, result, inbox);
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      std::sort(inbox[v].messages.begin(), inbox[v].messages.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      nodes[v]->end_round(round, inbox[v]);
    }
  }
  if (!result.all_terminated) result.all_terminated = all_terminated();
  return result;
}

/// Builds one algorithm instance per node.
std::vector<std::unique_ptr<UniformAlgorithm>> instantiate(
    const graph::UnitDiskGraph& g, const AlgorithmFactory& factory);

/// Ideal point-to-point execution: every round message reaches every
/// neighbor. Runs until all instances terminate or `max_rounds`.
ExecutionResult run_reference(
    const graph::UnitDiskGraph& g,
    std::vector<std::unique_ptr<UniformAlgorithm>>& nodes,
    std::uint32_t max_rounds);

/// Builds one general-model algorithm instance per node.
std::vector<std::unique_ptr<GeneralAlgorithm>> instantiate_general(
    const graph::UnitDiskGraph& g, const GeneralFactory& factory);

/// Ideal point-to-point execution of a general-model algorithm.
ExecutionResult run_reference_general(
    const graph::UnitDiskGraph& g,
    std::vector<std::unique_ptr<GeneralAlgorithm>>& nodes,
    std::uint32_t max_rounds);

}  // namespace sinrcolor::mac
