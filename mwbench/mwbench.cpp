// mwbench — end-to-end benchmark of full Derbel–Talbi MW coloring runs.
//
//   mwbench --workload=sinr_sync|fading_sync|graph_uniform [--seed=1]
//           [--seconds=10] [--trace=0|1] [--n=..]
//
// One invocation runs one workload as a closed loop with one client: full
// protocol executions (geometry::uniform_deployment → graph::UnitDiskGraph →
// core::MwInstance → run()), one at a time, on one thread, through the public
// library API only. It prints one JSON object on stdout; mwbench/run.py turns
// it into the benchmark's metrics and correctness verdict (README.md).
//
// The seed yields a sequence of inputs (deployments). Input 0 first runs once
// as an untimed warm-up. --trace=0 then runs the first
// ⌊--seconds / nominal run time⌋ inputs (at least two) untraced; --trace=1
// runs input 0 untraced and then traced. Every run of input 0 must report
// the warm-up's digest. The traced run is timed from outside: spans sit between the
// simulator's public slot / end-of-slot observer hooks, and every
// transmitting slot is replayed through shadow interference models built by
// core::make_interference_model, one per ResolveKind, whose resolve calls are
// timed. Both modes first time the set-up of input 0 (deployment, UDG,
// MwInstance) 51 times and report every sample.
//
// --n shrinks a workload at the same density (and no pinned Δ) for the smoke
// test.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/rng.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "radio/interference_model.h"
#include "radio/simulator.h"

namespace {

using namespace sinrcolor;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t n;
  double side;
  /// Max degree every accepted deployment must have (0 = any). Theorem 2's
  /// parameters are a function of (n, Δ), so pinning Δ keeps the protocol's
  /// slot budget fixed across inputs while the geometry varies.
  std::size_t delta;
  bool fading;
  bool graph_model;
  radio::Slot wakeup_window;  ///< 0 = simultaneous wake-up
  /// Wall time of one run on the reference host (README.md). --seconds is
  /// turned into a run count with it, so a seed's inputs do not depend on
  /// how fast the host happens to be.
  double nominal_run_s;
};

// Every workload keeps the density of the n = 1000, side 9 operating point
// (side ∝ √n) and pins the modal Δ of its size. n is scaled down so one
// --seconds window holds several independent runs: a single run's slot count
// is bimodal across inputs (README.md), so only a mean over runs is steady.
constexpr std::array<Workload, 3> kWorkloads{{
    {"sinr_sync", 250, 4.5, 50, false, false, 0, 2.0},
    {"fading_sync", 150, 3.4857, 46, true, false, 0, 2.2},
    {"graph_uniform", 250, 4.5, 50, false, true, 2000, 1.0},
}};

/// The run configuration: MwRunConfig{} defaults (resolve kind and protocol
/// seed included) except the workload's medium / wake-up and the
/// single-thread settings. The workload seed reaches the program only through
/// the deployment.
core::MwRunConfig config_for(const Workload& w) {
  core::MwRunConfig cfg;
  cfg.threads = 1;
  cfg.slot_threads = 1;
  cfg.check_independence = true;
  cfg.graph_model = w.graph_model;
  if (w.fading) cfg.fading.kind = sinr::FadingKind::kLogNormal;
  if (w.wakeup_window > 0) {
    cfg.wakeup = core::WakeupKind::kUniform;
    cfg.wakeup_window = w.wakeup_window;
  }
  return cfg;
}

/// The deployment stream of the seed's k-th input: the first stream derived
/// from (seed, k) whose UDG has the workload's Δ (the first one when Δ is not
/// pinned). Returns 0 when none of the first 4096 streams qualifies.
std::uint64_t input_stream(const Workload& w, std::uint64_t seed,
                           std::uint64_t k) {
  const std::uint64_t input_seed = common::derive_seed(seed, k);
  for (std::uint64_t j = 0; j < 4096; ++j) {
    const std::uint64_t stream = common::derive_seed(input_seed, j);
    if (w.delta == 0) return stream;
    common::Rng rng(stream);
    const graph::UnitDiskGraph g(geometry::uniform_deployment(w.n, w.side, rng),
                                 1.0);
    if (g.max_degree() == w.delta) return stream;
  }
  return 0;
}

// --- set-up ----------------------------------------------------------------

struct SetupTimes {
  double deploy_s = 0.0;
  double graph_s = 0.0;
  double instance_s = 0.0;
};

/// Deployment, UDG and MwInstance of one run, each step timed.
struct Prepared {
  std::unique_ptr<graph::UnitDiskGraph> graph;
  std::unique_ptr<core::MwInstance> instance;
  SetupTimes times;
};

Prepared prepare(const Workload& w, std::uint64_t stream,
                 const core::MwRunConfig& cfg) {
  Prepared p;
  auto t = Clock::now();
  common::Rng rng(stream);
  geometry::Deployment dep = geometry::uniform_deployment(w.n, w.side, rng);
  p.times.deploy_s = seconds_since(t);
  t = Clock::now();
  p.graph = std::make_unique<graph::UnitDiskGraph>(std::move(dep), 1.0);
  p.times.graph_s = seconds_since(t);
  t = Clock::now();
  p.instance = std::make_unique<core::MwInstance>(*p.graph, cfg);
  p.times.instance_s = seconds_since(t);
  return p;
}

// --- spans -----------------------------------------------------------------

/// In-memory spans, aggregated per name on exit: count, total, self (total
/// minus the part its child spans cover) and p50 / p99 of single spans.
class Spans {
 public:
  /// Registers a span name under its parent ("" for a root) and returns the
  /// list its durations (seconds) are appended to. std::map keeps the
  /// reference valid while later names are declared.
  std::vector<double>& declare(const std::string& name,
                               const std::string& parent) {
    Entry& e = entries_[name];
    e.parent = parent;
    return e.samples;
  }

  double total(const std::string& name) const {
    double sum = 0.0;
    for (double s : entries_.at(name).samples) sum += s;
    return sum;
  }

  double self(const std::string& name) const {
    double children = 0.0;
    for (const auto& [child, e] : entries_) {
      if (e.parent == name) children += total(child);
    }
    return total(name) - children;
  }

  /// Nearest-rank percentile of the named span's durations, in seconds.
  double percentile(const std::string& name, double q) const {
    std::vector<double> sorted = entries_.at(name).samples;
    if (sorted.empty()) return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
  }

  std::string to_json() const {
    std::ostringstream out;
    out << '{';
    bool first = true;
    for (const auto& [name, e] : entries_) {
      if (!first) out << ',';
      first = false;
      out << '"' << name << "\":{\"parent\":\"" << e.parent
          << "\",\"count\":" << e.samples.size()
          << ",\"total_s\":" << num(total(name))
          << ",\"self_s\":" << num(self(name))
          << ",\"p50_s\":" << num(percentile(name, 0.50))
          << ",\"p99_s\":" << num(percentile(name, 0.99)) << '}';
    }
    out << '}';
    return out.str();
  }

  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }

 private:
  struct Entry {
    std::string parent;
    std::vector<double> samples;
  };
  std::map<std::string, Entry> entries_;
};

// --- runs --------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct RunRecord {
  std::uint64_t input = 0;  ///< index of the seed's input it ran
  bool repeat = false;      ///< untimed run of an input, for the digest check
  bool traced = false;
  double run_s = 0.0;
  core::MwRunResult result;
  std::uint64_t digest = 0;
};

RunRecord finish(bool traced, double run_s, core::MwRunResult result) {
  RunRecord r;
  r.traced = traced;
  r.run_s = run_s;
  r.digest = fnv1a(core::to_json(result));
  r.result = std::move(result);
  return r;
}

RunRecord run_untraced(const Workload& w, std::uint64_t stream,
                       const core::MwRunConfig& cfg) {
  Prepared p = prepare(w, stream, cfg);
  const auto t = Clock::now();
  core::MwRunResult result = p.instance->run();
  return finish(false, seconds_since(t), std::move(result));
}

constexpr std::array<sinr::ResolveKind, 3> kKinds{
    sinr::ResolveKind::kNaive, sinr::ResolveKind::kField,
    sinr::ResolveKind::kSimd};

/// Outside-in layer split of one run (see the file comment). Spans:
///   core.run          run() as a whole
///   radio.tx_phase    previous end-of-slot observer → slot observer
///   radio.rx_phase    slot observer → end-of-slot observer
///   sinr.resolve      the default kind's shadow resolve of the slot, the
///                     stand-in for the real resolve inside radio.rx_phase
///   trace.shadow      all shadow work (listener set, resolves, counts)
///   sinr.resolve.<k>  shadow resolve per ResolveKind
struct TraceReport {
  RunRecord run;
  Spans spans;
  std::size_t graph_bytes = 0;
  std::size_t model_bytes = 0;
  std::size_t state_bytes = 0;
  std::uint64_t resolve_calls = 0;
  std::uint64_t tx_total = 0;
  std::uint64_t tx_max = 0;
  std::uint64_t covered_pairs = 0;
  std::array<std::uint64_t, kKinds.size()> decodes{};
  std::uint64_t kind_mismatch_slots = 0;
};

TraceReport run_traced(const Workload& w, std::uint64_t stream,
                       const core::MwRunConfig& cfg) {
  TraceReport rep;
  Prepared p = prepare(w, stream, cfg);
  const graph::UnitDiskGraph& g = *p.graph;
  radio::Simulator& sim = p.instance->simulator();
  const std::size_t n = g.size();

  std::array<std::unique_ptr<radio::InterferenceModel>, kKinds.size()> shadows;
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    core::MwRunConfig shadow_cfg = cfg;
    shadow_cfg.resolve = kKinds[k];
    shadows[k] = core::make_interference_model(g, shadow_cfg);
  }
  const std::size_t default_k = static_cast<std::size_t>(
      std::find(kKinds.begin(), kKinds.end(), cfg.resolve) - kKinds.begin());
  SINRCOLOR_CHECK_MSG(default_k < kKinds.size(),
                      "default ResolveKind missing from mwbench's kKinds");

  Spans& spans = rep.spans;
  auto& run_spans = spans.declare("core.run", "");
  auto& tx_spans = spans.declare("radio.tx_phase", "core.run");
  auto& rx_spans = spans.declare("radio.rx_phase", "core.run");
  auto& resolve_spans = spans.declare("sinr.resolve", "radio.rx_phase");
  auto& shadow_spans = spans.declare("trace.shadow", "core.run");
  std::array<std::vector<double>*, kKinds.size()> kind_spans{};
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    kind_spans[k] = &spans.declare(
        std::string("sinr.resolve.") + sinr::to_string(kKinds[k]),
        "trace.shadow");
  }

  std::vector<radio::TxRecord> txs;
  std::vector<bool> listening(n, false);
  std::vector<std::optional<radio::Message>> deliveries(n);
  Clock::time_point boundary;  // end of the previous phase
  sim.add_observer([&](radio::Slot slot, std::span<const radio::TxRecord> tx) {
    const auto now = Clock::now();
    tx_spans.push_back(std::chrono::duration<double>(now - boundary).count());
    if (!tx.empty()) {
      txs.assign(tx.begin(), tx.end());
      for (std::size_t v = 0; v < n; ++v) {
        listening[v] = sim.node_awake(static_cast<graph::NodeId>(v));
      }
      for (const radio::TxRecord& t : txs) listening[t.sender] = false;
      for (const radio::TxRecord& t : txs) {
        for (graph::NodeId u : g.neighbors(t.sender)) {
          if (listening[u]) ++rep.covered_pairs;
        }
      }
      ++rep.resolve_calls;
      rep.tx_total += txs.size();
      rep.tx_max = std::max<std::uint64_t>(rep.tx_max, txs.size());
      std::uint64_t reference = 0;
      for (std::size_t k = 0; k < kKinds.size(); ++k) {
        std::fill(deliveries.begin(), deliveries.end(), std::nullopt);
        const auto t0 = Clock::now();
        shadows[k]->resolve(slot, txs, listening, deliveries);
        kind_spans[k]->push_back(seconds_since(t0));
        // Order-sensitive signature of who decoded whom, for the cross-kind
        // equality check.
        std::uint64_t signature = 0xcbf29ce484222325ULL;
        for (std::size_t u = 0; u < n; ++u) {
          if (!deliveries[u].has_value()) continue;
          ++rep.decodes[k];
          signature = (signature ^ (u << 32 | deliveries[u]->sender)) *
                      0x100000001b3ULL;
        }
        if (k == 0) {
          reference = signature;
        } else if (signature != reference) {
          ++rep.kind_mismatch_slots;
        }
      }
      resolve_spans.push_back(kind_spans[default_k]->back());
    }
    boundary = Clock::now();
    shadow_spans.push_back(
        std::chrono::duration<double>(boundary - now).count());
  });
  sim.add_end_observer([&](radio::Slot) {
    const auto now = Clock::now();
    rx_spans.push_back(std::chrono::duration<double>(now - boundary).count());
    boundary = now;
  });

  const auto start = Clock::now();
  boundary = start;
  core::MwRunResult result = p.instance->run();
  const double run_s = seconds_since(start);
  run_spans.push_back(run_s);

  rep.graph_bytes = g.memory_bytes();
  rep.model_bytes = sim.model().memory_bytes();
  rep.state_bytes = sim.memory_bytes();
  rep.run = finish(true, run_s, std::move(result));
  return rep;
}

// --- host ------------------------------------------------------------------

/// Effective parallelism: the same fixed spin on one thread, then on every
/// hardware thread at once; nproc · t(1) / t(nproc). An idle host with nproc
/// real cores gives nproc.
double parallelism_probe(unsigned nproc) {
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 4'000'000; ++i) x = common::splitmix64(x);
    sink.fetch_xor(x, std::memory_order_relaxed);
  };
  const auto timed = [&](unsigned threads) {
    const auto t = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(spin);
    for (auto& th : pool) th.join();
    return seconds_since(t);
  };
  std::vector<double> ratios;
  for (int trial = 0; trial < 3; ++trial) {
    ratios.push_back(static_cast<double>(nproc) * timed(1) / timed(nproc));
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[1];
}

long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// --- output ------------------------------------------------------------------

std::string run_json(const RunRecord& r) {
  const radio::RunMetrics& m = r.result.metrics;
  std::ostringstream out;
  out << "{\"input\":" << r.input
      << ",\"repeat\":" << (r.repeat ? "true" : "false")
      << ",\"traced\":" << (r.traced ? "true" : "false")
      << ",\"run_s\":" << Spans::num(r.run_s)
      << ",\"slots\":" << m.slots_executed
      << ",\"palette\":" << r.result.palette
      << ",\"bytes_per_node\":" << Spans::num(m.bytes_per_node())
      << ",\"deliveries\":" << m.total_deliveries
      << ",\"digest\":\"" << std::hex << r.digest << std::dec << '"'
      << ",\"coloring_valid\":" << (r.result.coloring_valid ? "true" : "false")
      << ",\"all_decided\":" << (m.all_decided ? "true" : "false")
      << ",\"independence_violations\":" << r.result.independence_violations
      << '}';
  return out.str();
}

std::string trace_json(const TraceReport& t) {
  std::uint64_t awake_node_slots = 0;
  for (std::uint64_t a : t.run.result.metrics.awake_slots) awake_node_slots += a;
  std::ostringstream out;
  out << "{\"spans\":" << t.spans.to_json()
      << ",\"graph_bytes\":" << t.graph_bytes
      << ",\"model_bytes\":" << t.model_bytes
      << ",\"state_bytes\":" << t.state_bytes
      << ",\"awake_node_slots\":" << awake_node_slots
      << ",\"resolve_calls\":" << t.resolve_calls
      << ",\"tx_total\":" << t.tx_total << ",\"tx_max\":" << t.tx_max
      << ",\"covered_pairs\":" << t.covered_pairs
      << ",\"kind_mismatch_slots\":" << t.kind_mismatch_slots
      << ",\"decodes\":{";
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    out << (k ? "," : "") << '"' << sinr::to_string(kKinds[k])
        << "\":" << t.decodes[k];
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const std::string name = cli.get("workload", "sinr_sync");
  const std::uint64_t seed = cli.get_seed("seed", 1);
  const double budget_s = cli.get_double_at_least("seconds", 10.0, 0.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const auto n_override = cli.get_int_at_least("n", 0, 0);
  cli.reject_unknown();

  const auto it = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                               [&](const Workload& w) { return name == w.name; });
  if (it == kWorkloads.end()) {
    std::fprintf(stderr, "unknown --workload=%s\n", name.c_str());
    return 2;
  }
  Workload w = *it;
  if (n_override > 0) {
    const auto n = static_cast<std::size_t>(n_override);
    w.side *= std::sqrt(static_cast<double>(n) / static_cast<double>(w.n));
    w.n = n;
    w.delta = 0;
  }
  // Untraced: one timed run of each of the seed's first `inputs` inputs.
  // Traced: input 0 untraced, then input 0 traced.
  const std::uint64_t inputs =
      trace ? 1
            : std::max<std::uint64_t>(
                  2, static_cast<std::uint64_t>(budget_s / w.nominal_run_s));
  std::vector<std::uint64_t> streams;
  for (std::uint64_t k = 0; k < inputs; ++k) {
    streams.push_back(input_stream(w, seed, k));
    if (streams.back() == 0) {
      std::fprintf(stderr, "no deployment with Delta=%zu for seed %llu\n",
                   w.delta, static_cast<unsigned long long>(seed));
      return 1;
    }
  }
  const core::MwRunConfig cfg = config_for(w);

  // Set-up is under a millisecond: sample it back to back, warm, many times.
  std::vector<SetupTimes> setups;
  for (int i = 0; i < 51; ++i) {
    setups.push_back(prepare(w, streams[0], cfg).times);
  }

  // Input 0 runs first as an untimed warm-up (caches, page faults) whose
  // digest the later runs of input 0 must reproduce.
  std::vector<RunRecord> runs;
  runs.push_back(run_untraced(w, streams[0], cfg));
  runs.back().repeat = true;
  for (std::uint64_t k = 0; k < inputs; ++k) {
    runs.push_back(run_untraced(w, streams[k], cfg));
    runs.back().input = k;
  }
  std::optional<TraceReport> traced;
  if (trace) {
    traced = run_traced(w, streams[0], cfg);
    runs.push_back(traced->run);
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double parallelism = parallelism_probe(nproc);

  std::ostringstream out;
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
      << ",\"n\":" << w.n << ",\"side\":" << Spans::num(w.side)
      << ",\"delta\":" << runs.front().result.params.max_degree
      << ",\"medium\":\""
      << (w.graph_model ? "graph" : (w.fading ? "sinr+fading" : "sinr"))
      << "\",\"resolve\":\"" << sinr::to_string(cfg.resolve)
      << "\",\"host\":{\"nproc\":" << nproc
      << ",\"effective_parallelism\":" << Spans::num(parallelism)
      << ",\"compiler\":\"" << compiler() << "\",\"build_type\":\""
      << MWBENCH_BUILD_TYPE << "\",\"native\":"
      << (MWBENCH_NATIVE ? "true" : "false") << "},\"setups\":[";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    out << (i ? "," : "") << '[' << Spans::num(setups[i].deploy_s) << ','
        << Spans::num(setups[i].graph_s) << ','
        << Spans::num(setups[i].instance_s) << ']';
  }
  out << "],\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << (i ? "," : "") << run_json(runs[i]);
  }
  out << ']';
  if (traced) out << ",\"trace\":" << trace_json(*traced);
  out << ",\"peak_rss_kb\":" << peak_rss_kb() << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
