#include "radio/wakeup.h"

#include "common/check.h"

namespace sinrcolor::radio {

WakeupSchedule simultaneous_wakeup(std::size_t n) {
  return WakeupSchedule(n, 0);
}

WakeupSchedule uniform_wakeup(std::size_t n, Slot window, common::Rng& rng) {
  SINRCOLOR_CHECK(window >= 0);
  WakeupSchedule schedule(n);
  for (auto& slot : schedule) slot = rng.uniform_int(0, window);
  return schedule;
}

WakeupSchedule staggered_wakeup(std::size_t n, Slot interval) {
  SINRCOLOR_CHECK(interval >= 0);
  WakeupSchedule schedule(n);
  for (std::size_t v = 0; v < n; ++v) {
    schedule[v] = static_cast<Slot>(v) * interval;
  }
  return schedule;
}

}  // namespace sinrcolor::radio
