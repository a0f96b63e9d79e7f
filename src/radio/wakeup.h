// Wake-up schedules. The paper's model lets nodes wake up asynchronously and
// spontaneously; experiments exercise simultaneous storms, uniform windows
// and staggered patterns.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "radio/message.h"

namespace sinrcolor::radio {

/// wake[v] = slot in which node v wakes up (first slot it participates in).
using WakeupSchedule = std::vector<Slot>;

/// All nodes wake in slot 0 (synchronized storm; worst case for contention).
WakeupSchedule simultaneous_wakeup(std::size_t n);

/// Each node wakes uniformly at random in [0, window].
WakeupSchedule uniform_wakeup(std::size_t n, Slot window, common::Rng& rng);

/// Node v wakes at slot v * interval (deterministic stagger).
WakeupSchedule staggered_wakeup(std::size_t n, Slot interval);

}  // namespace sinrcolor::radio
