// Shared helpers for the experiment harnesses (bench/x*).
//
// Every harness prints the experiment id, the claim it reproduces, a table of
// measured rows, and a PASS/FAIL verdict for the claim's shape, so
// `for b in build/bench/*; do $b; done` yields a self-contained report.
// Passing `--metrics-out=PATH` to a wired harness additionally attaches an
// obs::RunObservation to its runs and writes the accumulated metrics
// registry (counters + histograms across every run of the sweep) as a JSON
// sidecar — machine-readable ground truth next to the human-readable table.
#pragma once

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/sweep.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "obs/observation.h"
#include "sinr/params.h"

// Baked in by bench/CMakeLists.txt (git rev-parse at configure time);
// "unknown" outside a git checkout or a non-CMake compile.
#ifndef SINRCOLOR_GIT_SHA
#define SINRCOLOR_GIT_SHA "unknown"
#endif

namespace sinrcolor::bench {

/// Every machine-readable bench artifact (`--metrics-out`, `--chaos-out`,
/// `--sweep-bench-out`, ...) is wrapped in this envelope so a directory of
/// BENCH_*.json files from different PRs/hosts is diffable by
/// tools/bench_report.py and validated by tools/lint/bench_schema_check.py:
///
///   {"schema":"sinrcolor.bench.v1","experiment":...,"git_sha":...,
///    "host":{"name":...,"cores":...},"threads":N,"payload":{...}}
///
/// The payload keeps each harness's own shape; provenance lives only in the
/// envelope. Wall times inside payloads are reporting-only and excluded from
/// byte-identity comparisons (compare payloads minus *_us keys, or whole
/// payloads across thread counts — see .github/workflows/ci.yml).
inline constexpr const char* kBenchSchema = "sinrcolor.bench.v1";

inline std::string host_fingerprint() {
  char name[256] = {0};
  if (gethostname(name, sizeof(name) - 1) != 0) return "unknown";
  return name[0] != '\0' ? std::string(name) : std::string("unknown");
}

/// Opens the envelope (object + provenance fields) and leaves the writer
/// expecting the `payload` value; the caller writes its payload object, then
/// calls end_bench_envelope.
inline void begin_bench_envelope(common::JsonWriter& json,
                                 const char* experiment, std::size_t threads) {
  json.begin_object();
  json.field("schema", kBenchSchema);
  json.field("experiment", experiment);
  json.field("git_sha", SINRCOLOR_GIT_SHA);
  json.key("host");
  json.begin_object();
  json.field("name", host_fingerprint());
  json.field("cores",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.end_object();
  json.field("threads", static_cast<std::uint64_t>(threads));
  json.key("payload");
}

inline void end_bench_envelope(common::JsonWriter& json) { json.end_object(); }

/// Atomic publish shared by every bench artifact: write to a sibling tmp
/// file, then rename over the target, so a crash (or a concurrent reader)
/// never observes a truncated file — rename(2) is atomic within a
/// filesystem. Prints "`what` written to PATH" on success.
inline bool write_atomic(const std::string& path, const std::string& content,
                         const char* what) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      std::printf("cannot write %s %s\n", what, tmp.c_str());
      return false;
    }
    out << content << '\n';
    out.flush();
    if (!out) {
      std::printf("cannot write %s %s\n", what, tmp.c_str());
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::printf("cannot rename %s %s -> %s\n", what, tmp.c_str(),
                path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

/// Physical layer whose transmission range R_T equals `r_t` with the library
/// default α, β, ρ (noise solved from the R_T definition).
inline sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
}

/// Uniform deployment with expected average degree ≈ `avg_degree`
/// (side chosen so n·π·R_T²/side² = avg_degree; R_T = 1).
inline graph::UnitDiskGraph uniform_graph_with_density(std::size_t n,
                                                       double avg_degree,
                                                       std::uint64_t seed) {
  const double side =
      std::sqrt(static_cast<double>(n) * M_PI / avg_degree);
  common::Rng rng(seed);
  return {geometry::uniform_deployment(n, side, rng), 1.0};
}

inline void print_experiment_header(const char* id, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", id);
  std::printf("claim: %s\n", claim);
  std::printf("================================================================\n");
}

inline int print_verdict(bool pass, const std::string& detail) {
  std::printf("verdict: %s — %s\n", pass ? "PASS" : "FAIL", detail.c_str());
  return pass ? 0 : 1;
}

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status), or 0 when unavailable. A process-lifetime high-water
/// mark: meaningful for single-configuration scale runs (x20's memory
/// trajectory), monotone across rows within one invocation.
inline std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu", &kb) == 1) {
      return static_cast<std::uint64_t>(kb) * 1024;
    }
    return 0;
  }
  return 0;
}

/// Monotonic wall-clock stopwatch for before/after speedup tables.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  /// Microseconds elapsed since construction or the last reset().
  std::uint64_t elapsed_us() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Opt-in metrics sidecar, driven by `--metrics-out=PATH`. When the flag is
/// absent, observation() is null and the harness runs exactly as before
/// (emission sites see a null sink). When present, attach observation() to
/// each run and call write() once at the end; every run of the sweep
/// accumulates into the same registry. The trace ring is kept small — the
/// sidecar is about aggregate metrics, not event-level replay.
///
/// `--profile=true` (requires --metrics-out) additionally installs the
/// slot-phase profiler on the observation; write() then emits its per-phase
/// stats as a `profile` block. The sidecar is a sinrcolor.bench.v1 envelope:
/// provenance (git sha, host, threads) wraps the {trace, trials, metrics,
/// profile} payload. Call set_threads() with the harness's worker count so
/// the envelope records it (defaults to 1).
class MetricsSidecar {
 public:
  explicit MetricsSidecar(const common::Cli& cli)
      : path_(cli.get("metrics-out", "")) {
    if (!path_.empty()) {
      observation_ =
          std::make_unique<obs::RunObservation>(std::size_t{1} << 12);
    }
    if (cli.get_bool("profile", false)) {
      if (observation_ == nullptr) {
        std::printf("--profile requires --metrics-out=PATH\n");
        std::exit(2);
      }
      observation_->enable_profiler();
    }
  }

  obs::RunObservation* observation() { return observation_.get(); }

  /// Worker-thread count recorded in the envelope (resolve or sweep threads,
  /// whichever the harness varies).
  void set_threads(std::size_t threads) { threads_ = threads; }

  /// Accumulates a sweep's per-trial wall times into the sidecar; write()
  /// then reports trial count, mean, p50 and p95 (in microseconds). Wall
  /// time lives ONLY here and on stdout — never in the byte-compared CSV/
  /// JSON result artifacts. No-op when the sidecar is off. With the profiler
  /// installed, each trial also lands as one kTrial scope (SweepEngine lives
  /// in common and cannot see obs, so the trial phase is fed here).
  void record_trials(const common::SweepTiming& timing) {
    if (observation_ == nullptr) return;
    trial_timing_.trial_us.insert(trial_timing_.trial_us.end(),
                                  timing.trial_us.begin(),
                                  timing.trial_us.end());
    trial_timing_.total_us += timing.total_us;
    if (observation_->profiler != nullptr) {
      for (const std::uint64_t us : timing.trial_us) {
        observation_->profiler->record(obs::Phase::kTrial, us * 1000,
                                       us * 1000);
      }
    }
  }

  /// Writes the envelope with payload {trace totals, per-trial timing,
  /// metrics registry, profile}; no-op when the flag was absent. Returns
  /// false on I/O failure (after printing).
  bool write(const char* experiment_id) const {
    if (observation_ == nullptr) return true;
    common::JsonWriter json;
    begin_bench_envelope(json, experiment_id, threads_);
    json.begin_object();
    json.key("trace");
    json.begin_object();
    json.field("recorded", observation_->trace.recorded());
    json.field("dropped", observation_->trace.dropped());
    json.end_object();
    if (!trial_timing_.trial_us.empty()) {
      json.key("trials");
      json.begin_object();
      json.field("count", trial_timing_.trial_us.size());
      json.field("total_us", trial_timing_.total_us);
      json.field("mean_us", trial_timing_.mean_us());
      json.field("p50_us", trial_timing_.p50_us());
      json.field("p95_us", trial_timing_.p95_us());
      json.field("max_us", trial_timing_.max_us());
      json.end_object();
    }
    json.key("metrics");
    observation_->metrics.write_json(json);
    if (observation_->profiler != nullptr &&
        observation_->profiler->recorded() > 0) {
      json.key("profile");
      observation_->profiler->write_json(json);
    }
    json.end_object();
    end_bench_envelope(json);
    return write_atomic(path_, json.str(), "metrics sidecar");
  }

 private:
  std::string path_;
  std::size_t threads_ = 1;
  std::unique_ptr<obs::RunObservation> observation_;
  common::SweepTiming trial_timing_;
};

}  // namespace sinrcolor::bench
