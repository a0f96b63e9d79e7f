#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "radio/interference_model.h"
#include "radio/simulator.h"
#include "radio/wakeup.h"

namespace sinrcolor::radio {
namespace {

sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
}

graph::UnitDiskGraph chain(std::size_t n, double spacing = 0.9) {
  return {geometry::line_deployment(n, spacing), 1.0};
}

Message compete_msg(graph::NodeId sender, std::int64_t counter = 0) {
  Message m;
  m.kind = MessageKind::kCompete;
  m.sender = sender;
  m.counter = counter;
  return m;
}

TEST(Wakeup, Schedules) {
  EXPECT_EQ(simultaneous_wakeup(3), (WakeupSchedule{0, 0, 0}));
  EXPECT_EQ(staggered_wakeup(3, 5), (WakeupSchedule{0, 5, 10}));
  common::Rng rng(1);
  const auto uniform = uniform_wakeup(100, 50, rng);
  for (Slot s : uniform) {
    EXPECT_GE(s, 0);
    EXPECT_LE(s, 50);
  }
}

TEST(GraphModel, DeliversIffExactlyOneNeighborTransmits) {
  const auto g = chain(4);  // 0-1-2-3
  GraphInterferenceModel model(g);
  std::vector<bool> listening(4, true);
  std::vector<std::optional<Message>> deliveries(4);

  // Single transmitter 1: neighbors 0 and 2 decode.
  model.resolve(0, {{1, compete_msg(1)}}, listening, deliveries);
  EXPECT_TRUE(deliveries[0].has_value());
  EXPECT_TRUE(deliveries[2].has_value());
  EXPECT_FALSE(deliveries[1].has_value());
  EXPECT_FALSE(deliveries[3].has_value());

  // Transmitters 0 and 2: node 1 hears both → collision → nothing; node 3
  // hears only 2 → decodes.
  std::fill(deliveries.begin(), deliveries.end(), std::nullopt);
  model.resolve(0, {{0, compete_msg(0)}, {2, compete_msg(2)}}, listening,
                deliveries);
  EXPECT_FALSE(deliveries[1].has_value());
  ASSERT_TRUE(deliveries[3].has_value());
  EXPECT_EQ(deliveries[3]->sender, 2u);
}

TEST(GraphModel, TransmittersDoNotReceive) {
  const auto g = chain(2);
  GraphInterferenceModel model(g);
  // Both nodes transmit (half-duplex: neither listens); each is the other's
  // unique transmitting neighbor, yet neither may receive.
  std::vector<bool> listening{false, false};
  std::vector<std::optional<Message>> deliveries(2);
  model.resolve(0, {{0, compete_msg(0)}, {1, compete_msg(1)}}, listening,
                deliveries);
  EXPECT_FALSE(deliveries[0].has_value());
  EXPECT_FALSE(deliveries[1].has_value());
}

TEST(SinrModel, LoneTransmitterReachesNeighbors) {
  const auto g = chain(3);
  SinrInterferenceModel model(g, phys_for_radius(1.0));
  std::vector<bool> listening(3, true);
  std::vector<std::optional<Message>> deliveries(3);
  model.resolve(0, {{1, compete_msg(1, 77)}}, listening, deliveries);
  ASSERT_TRUE(deliveries[0].has_value());
  EXPECT_EQ(deliveries[0]->counter, 77);
  EXPECT_TRUE(deliveries[2].has_value());
}

TEST(SinrModel, SimultaneousNeighborsCollide) {
  // Nodes 0 and 2 transmit; node 1 sits between them: SINR ≈ 1 < β at node 1.
  const auto g = chain(3);
  SinrInterferenceModel model(g, phys_for_radius(1.0));
  std::vector<bool> listening{true, true, true};
  std::vector<std::optional<Message>> deliveries(3);
  model.resolve(0, {{0, compete_msg(0)}, {2, compete_msg(2)}}, listening,
                deliveries);
  EXPECT_FALSE(deliveries[1].has_value());
}

TEST(SinrModel, FarInterferenceAccumulates) {
  // Under the graph model a transmitter 1.1 away cannot disturb; under SINR
  // enough of them do. Receiver at origin, sender at distance 1; ring of 12
  // interferers at distance 1.5 (outside the UDG disc of the receiver).
  geometry::Deployment dep;
  dep.side = 10.0;
  dep.points = {{5.0, 5.0}, {6.0, 5.0}};
  for (int k = 0; k < 12; ++k) {
    const double angle = 2.0 * M_PI * k / 12.0;
    dep.points.push_back(
        {5.0 + 1.5 * std::cos(angle), 5.0 + 1.5 * std::sin(angle)});
  }
  graph::UnitDiskGraph g(dep, 1.0);
  SinrInterferenceModel sinr_model(g, phys_for_radius(1.0));
  GraphInterferenceModel graph_model(g);

  std::vector<TxRecord> txs{{1, compete_msg(1)}};
  for (graph::NodeId v = 2; v < dep.points.size(); ++v) {
    txs.push_back({v, compete_msg(v)});
  }
  // Listener bytes, as the simulator passes them: only the receiver listens.
  std::vector<std::uint8_t> listening(dep.points.size(), 0);
  listening[0] = 1;

  const auto receiver_decodes = [](const std::vector<Reception>& receptions) {
    return std::any_of(receptions.begin(), receptions.end(),
                       [](const Reception& r) { return r.listener == 0; });
  };
  std::vector<Reception> receptions;
  graph_model.resolve(0, txs, listening, receptions);
  ASSERT_TRUE(receiver_decodes(receptions));  // graph model: 1 neighbor txs

  sinr_model.resolve(0, txs, listening, receptions);
  EXPECT_FALSE(receiver_decodes(receptions));  // SINR: cumulative ring kills it
}

// A protocol that transmits a fixed message in a fixed slot, else listens.
class ScriptedProtocol final : public Protocol {
 public:
  ScriptedProtocol(graph::NodeId id, Slot tx_slot)
      : id_(id), tx_slot_(tx_slot) {}

  void on_wake(Slot) override { awake_ = true; }
  std::optional<Message> begin_slot(Slot slot, common::Rng&) override {
    ++slots_seen_;
    if (slot == tx_slot_) return compete_msg(id_, 42);
    return std::nullopt;
  }
  bool on_receive(Slot, const Message& m) override {
    received_.push_back(m);
    return true;
  }
  bool decided() const override { return !received_.empty(); }

  bool awake_ = false;
  int slots_seen_ = 0;
  std::vector<Message> received_;

 private:
  graph::NodeId id_;
  Slot tx_slot_;
};

TEST(Simulator, DeliversAndStopsWhenAllDecided) {
  const auto g = chain(3);
  auto model = std::make_unique<SinrInterferenceModel>(g, phys_for_radius(1.0));
  Simulator sim(g, std::move(model), simultaneous_wakeup(3), 7);
  std::vector<ScriptedProtocol*> protos;
  for (graph::NodeId v = 0; v < 3; ++v) {
    // Node 1 transmits at slot 0 (0 and 2 decide); node 0 at slot 1 (1
    // decides); node 2 would transmit at slot 2 but the run stops before.
    auto p = std::make_unique<ScriptedProtocol>(v, v == 1 ? 0 : (v == 0 ? 1 : 2));
    protos.push_back(p.get());
    sim.set_protocol(v, std::move(p));
  }
  const auto metrics = sim.run(100);
  EXPECT_TRUE(metrics.all_decided);
  EXPECT_EQ(metrics.slots_executed, 2);
  EXPECT_EQ(metrics.total_transmissions, 2u);
  // Slot 0: 0 and 2 hear node 1. Slot 1: node 1 hears... 0 and 2 collide at 1.
  ASSERT_EQ(protos[0]->received_.size(), 1u);
  EXPECT_EQ(protos[0]->received_[0].sender, 1u);
  EXPECT_EQ(protos[0]->received_[0].counter, 42);
}

TEST(Simulator, RespectsWakeupSchedule) {
  const auto g = chain(2, 2.0);  // disconnected pair
  auto model = std::make_unique<GraphInterferenceModel>(g);
  Simulator sim(g, std::move(model), WakeupSchedule{0, 5}, 7);
  std::vector<ScriptedProtocol*> protos;
  for (graph::NodeId v = 0; v < 2; ++v) {
    auto p = std::make_unique<ScriptedProtocol>(v, -1);  // never transmit
    protos.push_back(p.get());
    sim.set_protocol(v, std::move(p));
  }
  (void)sim.run(10);
  EXPECT_EQ(protos[0]->slots_seen_, 10);
  EXPECT_EQ(protos[1]->slots_seen_, 5);  // woke at slot 5
}

TEST(Simulator, ObserverSeesTransmissions) {
  const auto g = chain(2);
  auto model = std::make_unique<GraphInterferenceModel>(g);
  Simulator sim(g, std::move(model), simultaneous_wakeup(2), 7);
  for (graph::NodeId v = 0; v < 2; ++v) {
    sim.set_protocol(v, std::make_unique<ScriptedProtocol>(v, 3));
  }
  std::size_t seen = 0;
  sim.add_observer([&](Slot slot, std::span<const TxRecord> txs) {
    if (slot == 3) seen = txs.size();
  });
  (void)sim.run(5);
  EXPECT_EQ(seen, 2u);
}

TEST(Simulator, RunReportsStateBytes) {
  common::Rng rng(99);
  const graph::UnitDiskGraph g(geometry::uniform_deployment(60, 3.5, rng),
                               1.0);
  core::MwRunConfig cfg;
  cfg.seed = 515;
  const auto r = core::run_mw_coloring(g, cfg);
  // The accounting walks simulator + model + protocols + metric arrays, so
  // the footprint is at least a per-node state record for every node.
  EXPECT_GE(r.metrics.state_bytes, g.size() * sizeof(graph::NodeId));
  EXPECT_GT(r.metrics.bytes_per_node(), 0.0);
}

TEST(RunMetrics, LatencyComputation) {
  RunMetrics m;
  m.wake_slot = {0, 10};
  m.decision_slot = {5, 30};
  EXPECT_EQ(m.max_decision_latency(), 20);
  EXPECT_DOUBLE_EQ(m.mean_decision_latency(), 12.5);
  m.decision_slot = {5, -1};
  EXPECT_EQ(m.max_decision_latency(), -1);  // undecided flagged
}

}  // namespace
}  // namespace sinrcolor::radio
