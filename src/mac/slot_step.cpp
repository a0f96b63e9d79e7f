#include "mac/slot_step.h"

#include "common/check.h"

namespace sinrcolor::mac {

SlotStep::SlotStep(const graph::UnitDiskGraph& g,
                   const radio::InterferenceModel& medium)
    : medium_(medium),
      listening_(g.size(), 1),
      heard_from_(g.size(), graph::kInvalidNode) {}

void SlotStep::resolve(radio::Slot slot,
                       std::span<const graph::NodeId> senders) {
  for (const radio::Reception& r : receptions_) {
    heard_from_[r.listener] = graph::kInvalidNode;
  }
  for (const radio::TxRecord& tx : transmissions_) listening_[tx.sender] = 1;
  transmissions_.clear();
  for (graph::NodeId v : senders) {
    transmissions_.push_back({v, {}});  // the medium reads only the sender
    listening_[v] = 0;
  }
  medium_.resolve(slot, transmissions_, listening_, receptions_);
  for (const radio::Reception& r : receptions_) {
    SINRCOLOR_DCHECK(heard_from_[r.listener] == graph::kInvalidNode);
    heard_from_[r.listener] = transmissions_[r.tx].sender;
  }
}

FrameLoop::FrameLoop(const graph::UnitDiskGraph& g,
                     const radio::InterferenceModel& medium,
                     const TdmaSchedule& schedule,
                     obs::RunObservation* observation)
    : g_(g),
      schedule_(schedule),
      step_(g, medium),
      observation_(observation),
      tracer_(observation != nullptr ? &observation->trace : nullptr),
      tx_hist_(observation != nullptr
                   ? &observation->metrics.histogram(
                         "mac.concurrent_tx_per_slot",
                         {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                          256.0})
                   : nullptr) {
  SINRCOLOR_CHECK(schedule.size() == g.size());
}

void FrameLoop::finish(ExecutionResult& result) const {
  result.slots_used = slot_;
  result.missed_deliveries = missed_;
  if (observation_ == nullptr) return;
  auto& m = observation_->metrics;
  m.counter("mac.rounds").add(result.rounds);
  m.counter("mac.slots").add(static_cast<std::uint64_t>(result.slots_used));
  m.counter("mac.messages_sent").add(result.messages_sent);
  m.counter("mac.deliveries").add(result.deliveries);
  m.counter("mac.missed_deliveries").add(result.missed_deliveries);
}

}  // namespace sinrcolor::mac
