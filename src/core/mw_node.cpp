#include "core/mw_node.h"

#include <algorithm>

#include "common/check.h"

namespace sinrcolor::core {

const char* to_string(MwStateKind kind) {
  switch (kind) {
    case MwStateKind::kAsleep: return "asleep";
    case MwStateKind::kListening: return "listening";
    case MwStateKind::kCompeting: return "competing";
    case MwStateKind::kRequesting: return "requesting";
    case MwStateKind::kLeader: return "leader";
    case MwStateKind::kColored: return "colored";
  }
  return "?";
}

MwNode::MwNode(graph::NodeId id, const MwParams& params)
    : id_(id), params_(params) {}

void MwNode::reserve_peers(std::size_t degree) {
  competitors_.reserve(degree);
  request_queue_.reserve(degree);
}

void MwNode::set_observation(obs::RunObservation* observation) {
  observation_ = observation;
}

void MwNode::on_wake(radio::Slot slot) {
  SINRCOLOR_CHECK(state_ == MwStateKind::kAsleep);
  last_slot_ = slot;
  state_entry_slot_ = slot;
  enter_class(0);
}

void MwNode::transition_to(MwStateKind next) {
  SINRCOLOR_CHECK_MSG(mw_transition_allowed(state_, next),
                      "illegal MwStateKind transition (kMwTransitionTable)");
  const MwStateKind from = state_;
  if (observation_ != nullptr && from != MwStateKind::kAsleep) {
    static const std::vector<double> kSlotEdges{
        1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0};
    observation_->metrics
        .histogram(std::string("mw.time_in_state.") + to_string(from),
                   kSlotEdges)
        .record(static_cast<double>(last_slot_ - state_entry_slot_));
  }
  state_ = next;
  state_entry_slot_ = last_slot_;
  obs::Tracer* const tracer =
      observation_ != nullptr ? &observation_->trace : nullptr;
  SINRCOLOR_TRACE(tracer, last_slot_, obs::EventKind::kMwTransition, id_,
                  obs::kNoNode, static_cast<std::int32_t>(from),
                  static_cast<std::int64_t>(next));
  if (next == MwStateKind::kLeader) {
    SINRCOLOR_TRACE(tracer, last_slot_, obs::EventKind::kLeaderElected, id_);
  }
  if (next == MwStateKind::kLeader || next == MwStateKind::kColored) {
    SINRCOLOR_TRACE(tracer, last_slot_, obs::EventKind::kColorFinalized, id_,
                    obs::kNoNode, 0, static_cast<std::int64_t>(final_color()));
  }
}

void MwNode::enter_class(std::int32_t j) {
  transition_to(MwStateKind::kListening);
  color_class_ = j;
  competitors_.clear();
  counter_ = 0;
  listen_remaining_ = params_.listen_slots;
  retransmit_anchor_ = -1;  // any R episode is over
}

MwNode::Competitor* MwNode::find_competitor(graph::NodeId w) {
  const auto it = std::find_if(competitors_.begin(), competitors_.end(),
                               [w](const Competitor& c) { return c.id == w; });
  return it == competitors_.end() ? nullptr : &*it;
}

std::int64_t MwNode::chi(radio::Slot now) const {
  // Largest χ ≤ 0 with χ ∉ [d_v(w) − W, d_v(w) + W] for every w ∈ P_v.
  // Start at 0 and drop below each blocking interval until none blocks;
  // the candidate strictly decreases, so at most |P_v| passes happen.
  const std::int64_t window = params_.counter_window(color_class_);
  std::int64_t candidate = 0;
  bool blocked = true;
  while (blocked) {
    blocked = false;
    for (const auto& c : competitors_) {
      const std::int64_t d = c.mirror(now);
      if (candidate >= d - window && candidate <= d + window) {
        candidate = d - window - 1;
        blocked = true;
      }
    }
  }
  return std::min<std::int64_t>(candidate, 0);
}

void MwNode::catch_up(radio::Slot slot) {
  const radio::Slot skipped = slot - last_slot_;
  if (skipped <= 0) return;
  last_slot_ = slot;
  if (state_ == MwStateKind::kListening) {
    SINRCOLOR_DCHECK(skipped <= listen_remaining_);
    listen_remaining_ -= skipped;  // Fig. 1 line 3, once per skipped slot
  } else if (state_ == MwStateKind::kCompeting) {
    counter_ += skipped;  // Fig. 1 line 9, once per skipped slot
  } else if (state_ == MwStateKind::kLeader && serving_) {
    SINRCOLOR_DCHECK(skipped < serve_remaining_);
    serve_remaining_ -= skipped;  // Fig. 2 line 13, once per skipped slot
  }
}

radio::QuietPlan MwNode::quiet_plan(radio::Slot slot) const {
  switch (state_) {
    case MwStateKind::kListening:
      // Silent until the countdown runs out; that slot leaves the phase.
      return {slot + listen_remaining_ + 1};
    case MwStateKind::kCompeting:
      // The q_s coin each slot until the one the counter reaches the
      // threshold in, which decides.
      return {slot + std::max<std::int64_t>(
                         params_.counter_threshold - counter_, 1),
              params_.q_small};
    case MwStateKind::kRequesting:
      // A forced resend is due on a deadline, so a retransmit policy keeps
      // the node on every slot.
      if (retransmit_enabled()) break;
      return {radio::kNeverSlot, params_.q_small};
    case MwStateKind::kColored:
      return {radio::kNeverSlot, params_.q_small};
    case MwStateKind::kLeader:
      // Serving: the q_ℓ coin each slot until the one that ends the serve
      // window and pops the queue. Idle: the beacon coin until a request
      // arrives. A queued request starts its window in the next slot.
      if (serving_) return {slot + serve_remaining_, params_.q_leader};
      if (request_head_ == request_queue_.size()) {
        return {radio::kNeverSlot, params_.q_leader};
      }
      break;
    case MwStateKind::kAsleep:
      break;
  }
  return Protocol::quiet_plan(slot);
}

std::optional<radio::Message> MwNode::begin_slot(radio::Slot slot,
                                                 common::Rng& rng) {
  SINRCOLOR_PROFILE(observation_ != nullptr ? observation_->profiler.get()
                                            : nullptr,
                    obs::Phase::kProtocolStep);
  catch_up(slot - 1);
  last_slot_ = slot;
  switch (state_) {
    case MwStateKind::kAsleep:
      SINRCOLOR_CHECK_MSG(false, "begin_slot on a sleeping node");
      return std::nullopt;

    case MwStateKind::kListening: {
      if (listen_remaining_ > 0) {
        // Fig. 1 line 3 (mirror advance is implicit; see Competitor::mirror).
        --listen_remaining_;
        return std::nullopt;
      }
      // Fig. 1 line 6: leave the listening phase with c_v := χ(P_v) and fall
      // through to the first competition iteration in this same slot.
      transition_to(MwStateKind::kCompeting);
      counter_ = chi(slot);
      [[fallthrough]];
    }

    case MwStateKind::kCompeting: {
      // Fig. 1 lines 8–11.
      ++counter_;
      if (counter_ >= params_.counter_threshold) {
        if (color_class_ == 0) {
          transition_to(MwStateKind::kLeader);  // joins the independent set C_0
        } else {
          transition_to(MwStateKind::kColored);
        }
        return std::nullopt;
      }
      if (rng.bernoulli(params_.q_small)) {
        radio::Message m;
        m.kind = radio::MessageKind::kCompete;
        m.sender = id_;
        m.color_class = color_class_;
        m.counter = counter_;
        return m;
      }
      return std::nullopt;
    }

    case MwStateKind::kRequesting: {
      // Robustness hardening: a deterministic forced M_R once the backoff
      // deadline passes, so a request lost to injected drops/jamming is
      // retried in bounded time instead of relying on the q_s coin alone.
      // Inert (and RNG-stream neutral) while the policy is disabled.
      if (retransmit_enabled()) {
        if (retransmit_anchor_ < 0) {  // first R slot of this episode
          retransmit_anchor_ = slot;
          retransmit_wait_ = retransmit_->initial_wait;
          retries_used_ = 0;
        }
        if (retries_used_ < retransmit_->max_retries &&
            slot - retransmit_anchor_ >= retransmit_wait_) {
          retransmit_anchor_ = slot;
          retransmit_wait_ *= 2;  // initial_wait ≥ 1, so the wait grows
          ++retries_used_;
          ++forced_retransmissions_;
          radio::Message m;
          m.kind = radio::MessageKind::kRequest;
          m.sender = id_;
          m.target = leader_;
          return m;
        }
      }
      // Fig. 3 line 2.
      if (rng.bernoulli(params_.q_small)) {
        radio::Message m;
        m.kind = radio::MessageKind::kRequest;
        m.sender = id_;
        m.target = leader_;
        return m;
      }
      return std::nullopt;
    }

    case MwStateKind::kLeader:
      return leader_slot(rng);

    case MwStateKind::kColored: {
      // Fig. 2 line 3: beacon the final color with probability q_s.
      if (rng.bernoulli(params_.q_small)) {
        radio::Message m;
        m.kind = radio::MessageKind::kColorBeacon;
        m.sender = id_;
        m.color_class = color_class_;
        return m;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<radio::Message> MwNode::leader_slot(common::Rng& rng) {
  // Fig. 2 lines 5–14 (i = 0).
  if (!serving_ && request_head_ < request_queue_.size()) {
    ++next_cluster_color_;  // tc := tc + 1
    serving_ = true;
    serve_remaining_ = params_.assign_slots;
  }
  if (serving_) {
    // Fig. 2 line 13: address the front of the queue for ⌈μ ln n⌉ slots.
    std::optional<radio::Message> tx;
    if (rng.bernoulli(params_.q_leader)) {
      radio::Message m;
      m.kind = radio::MessageKind::kColorAssign;
      m.sender = id_;
      m.target = request_queue_[request_head_];
      m.color_class = 0;
      m.tc = next_cluster_color_;
      tx = m;
    }
    if (--serve_remaining_ == 0) {
      ++request_head_;  // Fig. 2 line 14 (pop front)
      if (request_head_ == request_queue_.size()) {
        // Empty: rewind so the buffer's capacity is reused, not regrown.
        request_queue_.clear();
        request_head_ = 0;
      }
      serving_ = false;
    }
    return tx;
  }
  // Fig. 2 line 9: idle beacon.
  if (rng.bernoulli(params_.q_leader)) {
    radio::Message m;
    m.kind = radio::MessageKind::kColorBeacon;
    m.sender = id_;
    m.color_class = 0;
    return m;
  }
  return std::nullopt;
}

// Returns true exactly where the delivery can move the quiet plan: a state
// change, a counter reset, or a request that wakes an idle leader. Every
// other delivery leaves the plan's absolute end and probability as they
// were, because the countdown, the counter and the serve window all run on
// the slot number. decided() changes only with the state.
bool MwNode::on_receive(radio::Slot slot, const radio::Message& msg) {
  catch_up(slot);
  last_slot_ = slot;
  switch (state_) {
    case MwStateKind::kAsleep:
      SINRCOLOR_CHECK_MSG(false, "delivery to a sleeping node");
      return true;

    case MwStateKind::kListening:
    case MwStateKind::kCompeting: {
      const bool class_zero = color_class_ == 0;
      // "M_C^i received": a class-i color beacon, or — for class 0 — any
      // leader transmission (assignments M_C^0(v,w,tc) equally prove that a
      // leader covers us; Fig. 1 line 5 / line 12).
      const bool leader_signal =
          (msg.kind == radio::MessageKind::kColorBeacon &&
           msg.color_class == color_class_) ||
          (class_zero && msg.kind == radio::MessageKind::kColorAssign);
      if (leader_signal) {
        if (class_zero) {
          leader_ = msg.sender;  // L(v) := w; state := R
          transition_to(MwStateKind::kRequesting);
        } else {
          enter_class(color_class_ + 1);  // state := A_{i+1}
        }
        return true;
      }
      if (msg.kind == radio::MessageKind::kCompete &&
          msg.color_class == color_class_) {
        // Fig. 1 lines 4 / 13–15.
        if (Competitor* known = find_competitor(msg.sender)) {
          known->base = msg.counter;
          known->recorded_slot = slot;
        } else {
          competitors_.push_back({msg.sender, msg.counter, slot});
        }
        if (state_ == MwStateKind::kCompeting) {
          const std::int64_t window = params_.counter_window(color_class_);
          if (std::llabs(counter_ - msg.counter) <= window) {
            counter_ = chi(slot);
            ++resets_;
            return true;
          }
        }
      }
      return false;
    }

    case MwStateKind::kRequesting: {
      // Fig. 3 line 3: only our leader's assignment addressed to us counts.
      if (msg.kind == radio::MessageKind::kColorAssign && msg.sender == leader_ &&
          msg.target == id_) {
        const std::int32_t base =
            msg.tc * (params_.phi_2rt + 1);  // A_{tc(φ(2R_T)+1)}
        enter_class(base);
        return true;
      }
      return false;
    }

    case MwStateKind::kLeader: {
      // Fig. 2 line 7.
      if (msg.kind == radio::MessageKind::kRequest && msg.target == id_) {
        // Dedup over the live entries only — a node served and popped
        // earlier may legitimately re-request.
        const bool queued =
            std::find(request_queue_.begin() +
                          static_cast<std::ptrdiff_t>(request_head_),
                      request_queue_.end(), msg.sender) != request_queue_.end();
        if (!queued) {
          request_queue_.push_back(msg.sender);
          // A serving leader reaches the new entry when its window ends.
          return !serving_;
        }
      }
      return false;
    }

    case MwStateKind::kColored:
      return false;  // final; ignores all traffic
  }
  return true;
}

void MwNode::restart_election() {
  SINRCOLOR_CHECK_MSG(state_ == MwStateKind::kListening ||
                          state_ == MwStateKind::kCompeting ||
                          state_ == MwStateKind::kRequesting,
                      "restart_election requires an awake, undecided node");
  leader_ = graph::kInvalidNode;
  request_queue_.clear();
  request_head_ = 0;
  serving_ = false;
  enter_class(0);
}

std::size_t MwNode::prune_competitors_older_than(radio::Slot now,
                                                 radio::Slot max_age) {
  const auto stale = [&](const Competitor& c) {
    return now - c.recorded_slot > max_age;
  };
  const auto it = std::remove_if(competitors_.begin(), competitors_.end(), stale);
  const auto pruned = static_cast<std::size_t>(competitors_.end() - it);
  competitors_.erase(it, competitors_.end());
  return pruned;
}

graph::Color MwNode::final_color() const {
  if (state_ == MwStateKind::kLeader) return 0;
  if (state_ == MwStateKind::kColored) return color_class_;
  return graph::kUncolored;
}

double MwNode::tx_probability() const {
  switch (state_) {
    case MwStateKind::kAsleep:
    case MwStateKind::kListening:
      return 0.0;
    case MwStateKind::kCompeting:
    case MwStateKind::kRequesting:
    case MwStateKind::kColored:
      return params_.q_small;
    case MwStateKind::kLeader:
      return params_.q_leader;
  }
  return 0.0;
}

}  // namespace sinrcolor::core
