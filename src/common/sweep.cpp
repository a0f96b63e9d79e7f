#include "common/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/check.h"
#include "common/cli.h"
#include "common/rng.h"

namespace sinrcolor::common {

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial_index) {
  // Domain tag "trial\0\0\0" separates sweep-level streams from the per-node
  // streams derive_seed(seed, node_id) hands out inside each trial: even if a
  // trial index collides numerically with a node id, the tagged base differs,
  // so the two splitmix walks are unrelated.
  constexpr std::uint64_t kTrialDomain = 0x0000006c61697274ULL;  // "trial"
  return derive_seed(base_seed ^ kTrialDomain, trial_index);
}

std::uint64_t SweepTiming::sum_us() const {
  std::uint64_t sum = 0;
  for (std::uint64_t us : trial_us) sum += us;
  return sum;
}

double SweepTiming::mean_us() const {
  if (trial_us.empty()) return 0.0;
  return static_cast<double>(sum_us()) / static_cast<double>(trial_us.size());
}

std::uint64_t SweepTiming::quantile_us(double q) const {
  if (trial_us.empty()) return 0;
  SINRCOLOR_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<std::uint64_t> sorted = trial_us;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

std::uint64_t SweepTiming::max_us() const {
  if (trial_us.empty()) return 0;
  return *std::max_element(trial_us.begin(), trial_us.end());
}

std::size_t sweep_threads(const Cli& cli) {
  return static_cast<std::size_t>(
      cli.get_int_in_range("threads", 1, 1, kMaxSweepThreads));
}

std::size_t sweep_trials(const Cli& cli, const std::string& name,
                         std::int64_t default_value) {
  return static_cast<std::size_t>(
      cli.get_int_in_range(name, default_value, 1, kMaxSweepTrials));
}

SweepEngine::SweepEngine(std::size_t threads)
    : threads_(std::max<std::size_t>(threads, 1)) {}

void SweepEngine::run_trials(std::size_t count,
                             const std::function<void(std::size_t)>& fn) const {
  const std::size_t width = std::min(threads_, count);
  if (width <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto claim_trials = [&] {
    for (std::size_t i = next++; i < count; i = next++) fn(i);
  };
  // A jthread joins when destroyed, so every worker is joined before this
  // returns, on every path.
  std::vector<std::jthread> workers;
  workers.reserve(width - 1);
  for (std::size_t t = 1; t < width; ++t) workers.emplace_back(claim_trials);
  claim_trials();
}

}  // namespace sinrcolor::common
