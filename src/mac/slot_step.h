// One slot of a MAC slot loop, decided by the one medium.
//
// The TDMA frames (audit, Corollary 1's round simulation, palette
// reduction) and the ALOHA/CSMA baselines keep their own slot loops rather
// than radio::Simulator protocols: a round in which no node sends costs no
// slot, CSMA arbitrates a whole slot from one shared stream, and a run with
// nothing to serve costs no slot at all. None of these is a per-node
// begin_slot decision. All of those loops resolve their slots through
// SlotStep, so one radio::InterferenceModel applies the paper's reception
// rule (Section II) everywhere.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/unit_disk_graph.h"
#include "mac/message_passing.h"
#include "mac/tdma.h"
#include "obs/observation.h"
#include "radio/interference_model.h"

namespace sinrcolor::mac {

/// Resolves one slot at a time over `medium` (which must outlive the step):
/// the slot's senders transmit, everyone else listens. Only the senders'
/// listening bytes and the decoders' marks change per slot.
class SlotStep {
 public:
  SlotStep(const graph::UnitDiskGraph& g,
           const radio::InterferenceModel& medium);

  /// Resolves a slot in which `senders` transmit, in that order (the order
  /// of the medium's interference sums). `slot` keys per-slot fades.
  void resolve(radio::Slot slot, std::span<const graph::NodeId> senders);

  /// True iff listener `u` decoded `sender` in the last resolved slot.
  bool heard(graph::NodeId u, graph::NodeId sender) const {
    return heard_from_[u] == sender;
  }

 private:
  const radio::InterferenceModel& medium_;
  std::vector<radio::TxRecord> transmissions_;
  std::vector<radio::Reception> receptions_;
  std::vector<std::uint8_t> listening_;     ///< 0 only at the last senders
  std::vector<graph::NodeId> heard_from_;   ///< last slot's decoded sender
};

/// The TDMA frame loop: frame slot t carries class t of the schedule, and
/// slot numbers run on across frames (per-slot fades vary between frames).
/// It is the one place the MAC emits its trace events and mac.* metrics
/// into an attached observation.
class FrameLoop {
 public:
  /// `medium` must outlive the loop; `observation` may be null.
  FrameLoop(const graph::UnitDiskGraph& g,
            const radio::InterferenceModel& medium,
            const TdmaSchedule& schedule,
            obs::RunObservation* observation = nullptr);

  /// Runs one frame. In slot t each member v of class t with sending(v)
  /// transmits (sending is asked in id order before the slot resolves);
  /// then on_pair(v, u, delivered) sees every (sender, neighbor) pair in
  /// sender-major order. A sending neighbor cannot receive, so its pair
  /// fails. A slot without senders still counts.
  template <typename Sending, typename OnPair>
  void run_frame(Sending&& sending, OnPair&& on_pair) {
    for (std::uint32_t t = 0; t < schedule_.frame_length(); ++t, ++slot_) {
      senders_.clear();
      for (graph::NodeId v : schedule_.members(t)) {
        if (!sending(v)) continue;
        senders_.push_back(v);
        SINRCOLOR_TRACE(tracer_, slot_, obs::EventKind::kTx, v);
      }
      if (tx_hist_ != nullptr) {
        tx_hist_->record(static_cast<double>(senders_.size()));
      }
      if (senders_.empty()) continue;
      step_.resolve(slot_, senders_);
      for (graph::NodeId v : senders_) {
        for (graph::NodeId u : g_.neighbors(v)) {
          const bool delivered = step_.heard(u, v);
          ++pairs_;
          if (delivered) {
            SINRCOLOR_TRACE(tracer_, slot_, obs::EventKind::kDelivery, u, v);
          } else {
            ++missed_;
            SINRCOLOR_TRACE(tracer_, slot_, obs::EventKind::kDrop, u, v, 1);
          }
          on_pair(v, u, delivered);
        }
      }
    }
  }

  radio::Slot slots() const { return slot_; }
  /// (sender, neighbor) pairs walked so far, and the failed ones.
  std::uint64_t pairs() const { return pairs_; }
  std::uint64_t missed() const { return missed_; }

  /// Completes a finished run's result with the loop's slot and miss
  /// counts, and adds its totals to the mac.* counters.
  void finish(ExecutionResult& result) const;

 private:
  const graph::UnitDiskGraph& g_;
  const TdmaSchedule& schedule_;
  SlotStep step_;
  obs::RunObservation* observation_;
  obs::Tracer* tracer_;
  obs::Histogram* tx_hist_;
  std::vector<graph::NodeId> senders_;
  radio::Slot slot_ = 0;
  std::uint64_t pairs_ = 0;
  std::uint64_t missed_ = 0;
};

}  // namespace sinrcolor::mac
