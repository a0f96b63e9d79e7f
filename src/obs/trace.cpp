#include "obs/trace.h"

#include <algorithm>

#include "common/check.h"

namespace sinrcolor::obs {

namespace {

constexpr const char* kEventKindNames[kEventKindCount] = {
    "wake",           "join",           "revival",
    "failure",        "tx",             "delivery",
    "drop",           "mw_transition",  "join_transition",
    "leader_elected", "color_finalized", "failover",
    "independence_violation", "fault_drop", "invariant_violation",
    "conflict_repaired",
};

constexpr const char* kMwStateNames[kMwStateCount] = {
    "asleep", "listening", "competing", "requesting", "leader", "colored"};

constexpr const char* kJoinPhaseNames[kJoinPhaseCount] = {
    "inactive", "listening", "confirming", "confirmed"};

}  // namespace

const char* to_string(EventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kEventKindCount ? kEventKindNames[i] : "?";
}

bool event_kind_from_string(const std::string& name, EventKind& out) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    if (name == kEventKindNames[i]) {
      out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

const char* mw_state_name(std::int64_t state) {
  return state >= 0 && state < kMwStateCount ? kMwStateNames[state] : "?";
}

const char* join_phase_name(std::int64_t phase) {
  return phase >= 0 && phase < kJoinPhaseCount ? kJoinPhaseNames[phase] : "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  SINRCOLOR_CHECK_MSG(capacity_ > 0, "Tracer needs a positive capacity");
  ring_.reserve(std::min<std::size_t>(capacity_, std::size_t{1} << 16));
}

void Tracer::record(const TraceEvent& event) {
  common::MutexLock lock(mutex_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Ring is full: overwrite the oldest event.
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> Tracer::events() const {
  common::MutexLock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

std::size_t Tracer::size() const {
  common::MutexLock lock(mutex_);
  return ring_.size();
}

std::uint64_t Tracer::recorded() const {
  common::MutexLock lock(mutex_);
  return recorded_;
}

std::uint64_t Tracer::dropped() const {
  common::MutexLock lock(mutex_);
  return recorded_ - static_cast<std::uint64_t>(ring_.size());
}

void Tracer::clear() {
  common::MutexLock lock(mutex_);
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
}

}  // namespace sinrcolor::obs
