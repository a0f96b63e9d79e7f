#include "robust/self_healing_node.h"

#include <algorithm>

#include "common/check.h"

namespace sinrcolor::robust {
namespace {

// Worst legitimate wait in state R: the leader may serve every other cluster
// member first ((Δ+1)·assign_slots) and our own request still needs to get
// through (2·window⁺ covers a q_s sender w.h.p. by the κ·ln n coupling).
radio::Slot default_suspect_timeout(const core::MwParams& p) {
  return static_cast<radio::Slot>(p.max_degree + 1) * p.assign_slots +
         2 * static_cast<radio::Slot>(p.window_positive);
}

}  // namespace

radio::Slot join_listen_slots(const core::MwParams& params) {
  return 2 * static_cast<radio::Slot>(params.window_positive);
}

SelfHealingNode::SelfHealingNode(graph::NodeId id, const core::MwParams& params,
                                 const core::RecoveryOptions& options,
                                 bool joiner)
    : id_(id), params_(params), options_(options), joiner_(joiner) {
  suspect_timeout_ = default_suspect_timeout(params_);
  SINRCOLOR_CHECK(suspect_timeout_ > 0);
}

void SelfHealingNode::set_observation(obs::RunObservation* observation) {
  observation_ = observation;
  profiler_ = observation != nullptr ? observation->profiler.get() : nullptr;
  if (inner_ != nullptr) inner_->set_observation(observation);
}

void SelfHealingNode::transition_to(JoinPhase next) {
  SINRCOLOR_CHECK_MSG(join_transition_allowed(join_phase_, next),
                      "illegal JoinPhase transition (kJoinTransitionTable)");
  const JoinPhase from = join_phase_;
  join_phase_ = next;
  // Skip the no-op kInactive -> kInactive edge every non-joiner wake takes.
  if (from == JoinPhase::kInactive && next == JoinPhase::kInactive) return;
  if (observation_ != nullptr) {
    observation_->trace.record(last_slot_, obs::EventKind::kJoinTransition,
                               id_, obs::kNoNode,
                               static_cast<std::int32_t>(from),
                               static_cast<std::int64_t>(next));
  }
}

void SelfHealingNode::start_inner(radio::Slot slot) {
  inner_ = std::make_unique<core::MwNode>(id_, params_);
  inner_->set_retransmit_policy(options_.retransmit);
  inner_->set_observation(observation_);
  inner_->on_wake(slot);
  requesting_since_ = -1;
  last_leader_heard_ = -1;
}

void SelfHealingNode::on_wake(radio::Slot slot) {
  SINRCOLOR_CHECK_MSG(slot >= 0, "on_wake with a negative slot");
  last_slot_ = slot;
  // A second on_wake is a revival (join slot after a failure slot): the node
  // restarts from scratch, forgetting any pre-crash protocol state.
  transition_to(JoinPhase::kInactive);
  join_fallback_ = false;
  degraded_ = false;
  confirmed_once_ = false;
  join_color_ = graph::kUncolored;
  heard_colors_.clear();
  heard_beacon_ = false;
  heard_contention_ = false;
  inner_.reset();
  if (joiner_) {
    transition_to(JoinPhase::kListening);
    join_listen_remaining_ = join_listen_slots(params_);
  } else {
    start_inner(slot);
  }
}

void SelfHealingNode::fail_over(radio::Slot slot) {
  ++failovers_;
  if (first_failover_slot_ < 0) first_failover_slot_ = slot;
  if (observation_ != nullptr) {
    observation_->trace.record(slot, obs::EventKind::kFailover, id_,
                               inner_->leader(),
                               static_cast<std::int32_t>(failovers_));
    observation_->metrics.counter("robust.failovers").add();
  }
  suspect_timeout_ *= 2;
  inner_->restart_election();
  requesting_since_ = -1;
  last_leader_heard_ = -1;
}

void SelfHealingNode::degrade(radio::Slot slot) {
  // The leader keeps vanishing (or is jammed beyond reach) and the failover
  // budget is spent: stop stalling, pick a provisional color from the
  // beacons overheard so far and confirm it on the fast-join path — its
  // collision watch and local repair keep the provisional color legal.
  SINRCOLOR_CHECK(!degraded_ && options_.degrade_to_provisional);
  degraded_ = true;
  inner_.reset();
  join_color_ = pick_free_color();
  transition_to(JoinPhase::kConfirming);  // kInactive → kConfirming edge
  confirm_remaining_ =
      options_.join_confirm_slots > 0
          ? options_.join_confirm_slots
          : static_cast<radio::Slot>(params_.window_positive);
  if (observation_ != nullptr) {
    observation_->trace.record(slot, obs::EventKind::kFailover, id_,
                               obs::kNoNode,
                               static_cast<std::int32_t>(failovers_),
                               static_cast<std::int64_t>(join_color_));
    observation_->metrics.counter("robust.degraded").add();
  }
}

void SelfHealingNode::repair_collision(radio::Slot slot) {
  SINRCOLOR_CHECK(inner_ != nullptr && inner_->decided());
  ++late_conflicts_repaired_;
  // The conflicting color is already in heard_colors_ (the palette update
  // runs before the watch), so pick_free_color avoids it; any further
  // collision the stale palette causes is caught by the confirm-phase
  // watch and repaired the same way.
  inner_.reset();
  join_color_ = pick_free_color();
  confirmed_once_ = true;  // the repair is local; the node stays decided
  transition_to(JoinPhase::kConfirming);  // kInactive → kConfirming edge
  confirm_remaining_ =
      options_.join_confirm_slots > 0
          ? options_.join_confirm_slots
          : static_cast<radio::Slot>(params_.window_positive);
  if (observation_ != nullptr) {
    observation_->trace.record(slot, obs::EventKind::kColorFinalized, id_,
                               obs::kNoNode, 1,
                               static_cast<std::int64_t>(join_color_));
  }
}

std::optional<radio::Message> SelfHealingNode::begin_slot(radio::Slot slot,
                                                          common::Rng& rng) {
  // kRecovery wraps the whole robust slot (join machine, failure detection
  // and the inner step); the inner MwNode nests kProtocolStep under it.
  SINRCOLOR_PROFILE(profiler_, obs::Phase::kRecovery);
  SINRCOLOR_CHECK_MSG(join_phase_ != JoinPhase::kInactive || inner_ != nullptr,
                      "begin_slot on a sleeping self-healing node");
  last_slot_ = slot;
  if (join_phase_ != JoinPhase::kInactive) return join_begin_slot(slot, rng);

  // Failure detection: a requester whose leader has been silent past the
  // suspect timeout declares it dead and re-enters leader election.
  if (options_.enabled && inner_->state() == core::MwStateKind::kRequesting) {
    if (requesting_since_ < 0) requesting_since_ = slot;
    const radio::Slot last_signal = std::max(requesting_since_, last_leader_heard_);
    if (slot - last_signal > suspect_timeout_) {
      if (failovers_ < options_.max_failovers) {
        fail_over(slot);
      } else if (options_.degrade_to_provisional) {
        degrade(slot);
        return join_begin_slot(slot, rng);
      }
    }
  } else {
    requesting_since_ = -1;
  }
  // Competitor mirrors advance one per slot without any traffic; prune the
  // ones silent past the same timeout so a crashed competitor cannot keep
  // depressing χ(P_v).
  if (options_.enabled &&
      (inner_->state() == core::MwStateKind::kListening ||
       inner_->state() == core::MwStateKind::kCompeting)) {
    inner_->prune_competitors_older_than(slot, suspect_timeout_);
  }
  return inner_->begin_slot(slot, rng);
}

// The node keeps the default plan, so every delivery re-plans it.
bool SelfHealingNode::on_receive(radio::Slot slot, const radio::Message& msg) {
  SINRCOLOR_CHECK_MSG(join_phase_ != JoinPhase::kInactive || inner_ != nullptr,
                      "delivery to a sleeping self-healing node");
  last_slot_ = slot;
  if (join_phase_ != JoinPhase::kInactive) {
    join_receive(msg);
    return true;
  }
  if (msg.sender == inner_->leader()) last_leader_heard_ = slot;
  if (options_.enabled || options_.degrade_to_provisional) {
    // Keep the overheard palette current so degrade() and the late-conflict
    // repair have colors to avoid. Opt-in: the set insert allocates, which
    // the plain protocol's zero-allocation slot loop must not
    // (docs/PERFORMANCE.md); recovery runs sit outside that gate.
    switch (msg.kind) {
      case radio::MessageKind::kColorBeacon:
      case radio::MessageKind::kJoinBeacon:
        note_heard_color(msg.color_class);
        break;
      case radio::MessageKind::kColorAssign:
        note_heard_color(0);  // the sender is a leader
        break;
      case radio::MessageKind::kCompete:
      case radio::MessageKind::kRequest:
        break;
    }
  }
  // Post-decision conflict watch: two established nodes holding the same
  // color is a safety violation that injected message loss can let through
  // (each missed the other's traffic while deciding). The perpetual q_s
  // color beacons expose it; on hearing our own color from a LOWER-id
  // neighbor we yield and re-pick locally, so exactly one side of any
  // conflicting pair moves. Leaders are exempt: color 0 carries cluster
  // duties, and leader independence is the MIS invariant, not locally
  // repairable.
  if (options_.enabled && inner_->state() == core::MwStateKind::kColored &&
      msg.kind == radio::MessageKind::kColorBeacon &&
      msg.color_class == inner_->final_color() && msg.sender < id_) {
    repair_collision(slot);
    return true;
  }
  inner_->on_receive(slot, msg);
  return true;
}

bool SelfHealingNode::decided() const {
  if (confirmed_once_) return true;
  return inner_ != nullptr && inner_->decided();
}

graph::Color SelfHealingNode::final_color() const {
  if (confirmed_once_) return join_color_;
  return inner_ != nullptr ? inner_->final_color() : graph::kUncolored;
}

void SelfHealingNode::note_heard_color(graph::Color color) {
  heard_colors_.insert(color);
}

graph::Color SelfHealingNode::pick_free_color() const {
  // Smallest free color ≥ 1: color 0 carries leader duties a fast joiner
  // does not take on, and any color absent from the neighborhood keeps the
  // (1,·)-coloring valid.
  graph::Color c = 1;
  while (heard_colors_.count(c) > 0) ++c;
  return c;
}

std::optional<radio::Message> SelfHealingNode::join_begin_slot(
    radio::Slot slot, common::Rng& rng) {
  switch (join_phase_) {
    case JoinPhase::kInactive:
      return std::nullopt;  // unreachable; kept for switch completeness

    case JoinPhase::kListening: {
      if (--join_listen_remaining_ > 0) return std::nullopt;
      if (heard_contention_ || !heard_beacon_) {
        // The neighborhood is still converging (or empty): the fast path's
        // premise fails, so run the full MW protocol from this slot on.
        join_fallback_ = true;
        transition_to(JoinPhase::kInactive);
        start_inner(slot);
        return inner_->begin_slot(slot, rng);
      }
      join_color_ = pick_free_color();
      transition_to(JoinPhase::kConfirming);
      confirm_remaining_ =
          options_.join_confirm_slots > 0
              ? options_.join_confirm_slots
              : static_cast<radio::Slot>(params_.window_positive);
      return std::nullopt;
    }

    case JoinPhase::kConfirming:
    case JoinPhase::kConfirmed: {
      if (join_phase_ == JoinPhase::kConfirming && --confirm_remaining_ <= 0) {
        transition_to(JoinPhase::kConfirmed);
        confirmed_once_ = true;
        if (observation_ != nullptr) {
          observation_->trace.record(slot, obs::EventKind::kColorFinalized,
                                     id_, obs::kNoNode, 0,
                                     static_cast<std::int64_t>(join_color_));
        }
      }
      // Beacon the (tentative or held) color like a colored node; the M_J
      // kind keeps it distinguishable from a settled M_C so joiner/joiner
      // ties stay resolvable.
      if (rng.bernoulli(params_.q_small)) {
        radio::Message m;
        m.kind = radio::MessageKind::kJoinBeacon;
        m.sender = id_;
        m.color_class = join_color_;
        return m;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void SelfHealingNode::join_receive(const radio::Message& msg) {
  if (join_phase_ == JoinPhase::kListening) {
    switch (msg.kind) {
      case radio::MessageKind::kColorBeacon:
      case radio::MessageKind::kJoinBeacon:
        heard_beacon_ = true;
        note_heard_color(msg.color_class);
        return;
      case radio::MessageKind::kColorAssign:
        heard_beacon_ = true;
        note_heard_color(0);  // the sender is a leader
        return;
      case radio::MessageKind::kCompete:
      case radio::MessageKind::kRequest:
        heard_contention_ = true;
        return;
    }
    return;
  }

  // Confirming / confirmed: keep absorbing the neighborhood palette and
  // watch for collisions with our own color.
  bool conflict = false;
  switch (msg.kind) {
    case radio::MessageKind::kColorBeacon:
      // An established node owns this color outright; we always yield.
      conflict = msg.color_class == join_color_;
      note_heard_color(msg.color_class);
      break;
    case radio::MessageKind::kJoinBeacon:
      // Joiner/joiner tie: the lower id keeps the color, the higher yields.
      if (msg.color_class == join_color_ && msg.sender < id_) {
        conflict = true;
        note_heard_color(msg.color_class);
      } else if (msg.color_class != join_color_) {
        note_heard_color(msg.color_class);
      }
      break;
    case radio::MessageKind::kColorAssign:
      note_heard_color(0);
      break;
    case radio::MessageKind::kCompete:
    case radio::MessageKind::kRequest:
      break;  // a neighbor is re-electing (failover); not our concern
  }
  if (conflict) {
    join_color_ = pick_free_color();
    ++conflicts_repaired_;
    // Re-run the confirmation window for the new color; an already-confirmed
    // joiner stays "decided" (the repair is local and the final extraction
    // reads the repaired color).
    transition_to(JoinPhase::kConfirming);
    confirm_remaining_ =
        options_.join_confirm_slots > 0
            ? options_.join_confirm_slots
            : static_cast<radio::Slot>(params_.window_positive);
  }
}

}  // namespace sinrcolor::robust
