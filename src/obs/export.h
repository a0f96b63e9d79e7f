// Trace exporters and analyzers.
//
//   JSONL        — one flat JSON object per line, first line a meta header;
//                  lossless (read_jsonl round-trips every event bit-exactly),
//                  greppable, and validated in CI by
//                  tools/lint/trace_schema_check.py.
//   Chrome trace — the chrome://tracing / Perfetto "trace event" format: one
//                  thread per node whose track shows the node's state
//                  intervals (wake -> listening -> ... -> colored) with
//                  tx/delivery/drop/failure instants overlaid.
//   Digest       — per-node lifecycle summary (wake, decision, color, death,
//                  traffic counts) reconstructed purely from the event
//                  stream; decision slots match radio::RunMetrics exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace sinrcolor::obs {

/// Run-level header written as the first JSONL line.
struct TraceMeta {
  std::string schema = "sinrcolor.trace.v1";
  std::uint64_t node_count = 0;
  std::uint64_t seed = 0;
  std::string scenario;        ///< free-form ("color", "recover", ...)
  std::uint64_t recorded = 0;  ///< events emitted (survivors + dropped)
  std::uint64_t dropped = 0;   ///< events lost to ring-buffer overflow

  bool operator==(const TraceMeta&) const = default;
};

void write_jsonl(const TraceMeta& meta, std::span<const TraceEvent> events,
                 std::ostream& out);

/// Parses a JSONL trace (header + events). Returns false and sets `error`
/// (when non-null) on malformed input; `meta`/`events` are then unspecified.
bool read_jsonl(std::istream& in, TraceMeta& meta,
                std::vector<TraceEvent>& events, std::string* error = nullptr);

class Profiler;

/// Chrome trace-event JSON ({"traceEvents":[...]}): open in chrome://tracing
/// or https://ui.perfetto.dev. One slot maps to one microsecond of trace
/// time; pid 0 is the run, tid v is node v. A non-null `profiler` adds a
/// second process (pid 1) with one track per recorded phase: an aggregate
/// slice carrying count/total/self/p50/p95 in its args plus a counter track
/// of the phase's total microseconds.
void write_chrome_trace(const TraceMeta& meta,
                        std::span<const TraceEvent> events, std::ostream& out,
                        const Profiler* profiler = nullptr);

/// Per-node lifecycle reconstructed from the event stream alone.
struct NodeDigest {
  NodeId node = kNoNode;
  Slot first_wake = -1;      ///< first wake/join/revival, -1 if never woke
  Slot last_wake = -1;       ///< last wake/join/revival (revivals move it)
  Slot decision_slot = -1;   ///< first color_finalized at/after last_wake
  std::int64_t final_color = -1;  ///< last finalized color, -1 if undecided
  Slot death_slot = -1;      ///< last failure not followed by a revival
  bool leader = false;
  std::uint64_t tx_count = 0;
  std::uint64_t delivery_count = 0;
  std::uint64_t drop_count = 0;
  std::uint64_t transition_count = 0;  ///< MW + join automaton edges
  std::uint64_t failover_count = 0;
  std::int64_t last_mw_state = -1;     ///< MwStateKind value, -1 if none seen
  std::int64_t last_join_phase = -1;   ///< JoinPhase value, -1 if none seen
};

/// One row per node 0..m, where m is the largest node id any event names
/// (a lower node without events keeps an empty row); every event must name
/// a node < node_count. Nodes m + 1..node_count − 1 have no events and no
/// rows, so a caller that prints the table counts them.
std::vector<NodeDigest> build_digest(std::span<const TraceEvent> events,
                                     std::size_t node_count);

/// Human-readable digest table (one row per node; `only_node` filters to a
/// single node when >= 0).
std::string render_digest(const std::vector<NodeDigest>& digest,
                          std::int64_t only_node = -1);

}  // namespace sinrcolor::obs
