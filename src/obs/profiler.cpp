#include "obs/profiler.h"

#include <algorithm>
#include <string>

#include "common/json.h"

namespace sinrcolor::obs {
namespace {

// Log-spaced microsecond bucket edges shared by every phase: 1us .. ~0.5s
// doubling per bucket, plus the implicit overflow bucket. Coarse quantiles
// at near-zero record cost — the same Histogram machinery MetricsRegistry
// hands out.
std::vector<double> phase_bucket_edges() {
  std::vector<double> edges;
  edges.reserve(20);
  for (double e = 1.0; e <= 524288.0; e *= 2.0) edges.push_back(e);
  return edges;
}

constexpr const char* kPhaseNames[kPhaseCount] = {
    "trial",         // kTrial
    "run",           // kRun
    "slot",          // kSlot
    "fault_inject",  // kFaultInject
    "tx_decide",     // kTxDecide
    "resolve",       // kResolve
    "field_accum",   // kFieldAccum
    "naive_resolve", // kNaiveResolve
    "deliver",       // kDeliver
    "protocol_step", // kProtocolStep
    "recovery",      // kRecovery
    "end_slot",      // kEndSlot
};

}  // namespace

const char* to_string(Phase phase) {
  const auto i = static_cast<std::size_t>(phase);
  return i < kPhaseCount ? kPhaseNames[i] : "?";
}

Profiler::PhaseStats::PhaseStats() : hist(phase_bucket_edges()) {}

Profiler::Profiler() = default;

void Profiler::record(Phase phase, std::uint64_t total_ns,
                      std::uint64_t self_ns) {
  common::MutexLock lock(mutex_);
  PhaseStats& stats = phases_[static_cast<std::size_t>(phase)];
  ++stats.count;
  stats.total_ns += total_ns;
  stats.self_ns += self_ns;
  stats.max_ns = std::max(stats.max_ns, total_ns);
  stats.hist.record(static_cast<double>(total_ns) / 1000.0);
}

Profiler::Snapshot Profiler::stats(Phase phase) const {
  common::MutexLock lock(mutex_);
  const PhaseStats& stats = phases_[static_cast<std::size_t>(phase)];
  Snapshot snap;
  snap.count = stats.count;
  snap.total_us = stats.total_ns / 1000;
  snap.self_us = stats.self_ns / 1000;
  snap.max_us = stats.max_ns / 1000;
  snap.p50_us = stats.hist.quantile_upper_bound(0.50);
  snap.p95_us = stats.hist.quantile_upper_bound(0.95);
  return snap;
}

std::uint64_t Profiler::recorded() const {
  common::MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const PhaseStats& stats : phases_) total += stats.count;
  return total;
}

void Profiler::write_json(common::JsonWriter& json) const {
  common::MutexLock lock(mutex_);
  json.begin_object();
  json.key("phases");
  json.begin_object();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseStats& stats = phases_[i];
    if (stats.count == 0) continue;
    json.key(to_string(static_cast<Phase>(i)));
    json.begin_object();
    json.field("count", stats.count);
    json.field("total_us", stats.total_ns / 1000);
    json.field("self_us", stats.self_ns / 1000);
    json.field("max_us", stats.max_ns / 1000);
    json.field("p50_us", stats.hist.quantile_upper_bound(0.50));
    json.field("p95_us", stats.hist.quantile_upper_bound(0.95));
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

std::string Profiler::to_json() const {
  common::JsonWriter json;
  write_json(json);
  return json.str();
}

}  // namespace sinrcolor::obs
