#include "obs/export.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/json.h"
#include "common/table.h"
#include "obs/profiler.h"

namespace sinrcolor::obs {

namespace {

void write_event_line(common::JsonWriter& json, const TraceEvent& e) {
  json.begin_object();
  json.field("slot", static_cast<std::int64_t>(e.slot));
  json.field("kind", to_string(e.kind));
  json.field("node", static_cast<std::uint64_t>(e.node));
  json.field("peer", static_cast<std::uint64_t>(e.peer));
  json.field("a", static_cast<std::int64_t>(e.a));
  json.field("b", e.b);
  json.end_object();
}

/// Parses one flat JSON object ({"k":v,...}, no nesting) into raw key/value
/// strings. String values are unescaped (the subset JsonWriter::escape
/// emits); numeric values keep their literal text.
bool parse_flat_object(const std::string& line,
                       std::map<std::string, std::string>& kv,
                       std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::size_t i = 0;
  const std::size_t n = line.size();
  const auto skip_ws = [&] {
    while (i < n && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto parse_string = [&](std::string& out) {
    if (i >= n || line[i] != '"') return false;
    ++i;
    out.clear();
    while (i < n && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < n) {
        ++i;
        switch (line[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          default: out += line[i]; break;
        }
      } else {
        out += line[i];
      }
      ++i;
    }
    if (i >= n) return false;
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= n || line[i] != '{') return fail("expected '{'");
  ++i;
  skip_ws();
  if (i < n && line[i] == '}') return true;  // empty object
  while (true) {
    skip_ws();
    std::string key;
    if (!parse_string(key)) return fail("expected a quoted key");
    skip_ws();
    if (i >= n || line[i] != ':') return fail("expected ':' after key");
    ++i;
    skip_ws();
    std::string value;
    if (i < n && line[i] == '"') {
      if (!parse_string(value)) return fail("unterminated string value");
    } else {
      const std::size_t start = i;
      while (i < n && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
        value.pop_back();
      }
      if (value.empty()) return fail("empty value");
    }
    kv[key] = value;
    skip_ws();
    if (i < n && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < n && line[i] == '}') return true;
    return fail("expected ',' or '}'");
  }
}

/// Reads `key` as a decimal integer of type T, exactly: digits with a
/// leading '-' only for a signed T, no overflow, nothing after them.
template <typename T>
bool get_integer(const std::map<std::string, std::string>& kv,
                 const std::string& key, T& out) {
  const auto it = kv.find(key);
  if (it == kv.end()) return false;
  const char* end = it->second.data() + it->second.size();
  const auto [ptr, ec] = std::from_chars(it->second.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// The first sinrcolor.trace.v1 rule `e` breaks (tools/lint/
/// trace_schema_check.py states the same ones), or "" if it keeps them all.
/// `a` is checked in its wire width before it is narrowed into the event.
std::string event_violation(const TraceEvent& e, std::int64_t a,
                            std::uint64_t node_count, Slot previous_slot) {
  if (e.slot < 0) return "negative slot " + std::to_string(e.slot);
  if (e.slot < previous_slot) {
    return "slot " + std::to_string(e.slot) + " < previous slot " +
           std::to_string(previous_slot);
  }
  const std::string range = " out of range [0, " +
                            std::to_string(node_count) + ")";
  if (e.node >= node_count) return "node " + std::to_string(e.node) + range;
  if (e.peer != kNoNode && e.peer >= node_count) {
    return "peer " + std::to_string(e.peer) + range + " and not kNoNode";
  }
  if (a < INT32_MIN || a > INT32_MAX) {
    return "a " + std::to_string(a) + " exceeds 32 bits";
  }
  const std::int64_t states = e.kind == EventKind::kMwTransition ? kMwStateCount
                              : e.kind == EventKind::kJoinTransition
                                  ? kJoinPhaseCount
                                  : 0;
  if (states > 0 && (a < 0 || a >= states || e.b < 0 || e.b >= states)) {
    return std::string(to_string(e.kind)) + " payload (" + std::to_string(a) +
           ", " + std::to_string(e.b) + ") outside 0.." +
           std::to_string(states - 1);
  }
  return "";
}

}  // namespace

void write_jsonl(const TraceMeta& meta, std::span<const TraceEvent> events,
                 std::ostream& out) {
  {
    common::JsonWriter json;
    json.begin_object();
    json.field("schema", meta.schema);
    json.field("n", meta.node_count);
    json.field("seed", meta.seed);
    json.field("scenario", meta.scenario);
    json.field("recorded", meta.recorded);
    json.field("dropped", meta.dropped);
    json.end_object();
    out << json.str() << '\n';
  }
  for (const TraceEvent& e : events) {
    common::JsonWriter json;
    write_event_line(json, e);
    out << json.str() << '\n';
  }
}

bool read_jsonl(std::istream& in, TraceMeta& meta,
                std::vector<TraceEvent>& events, std::string* error) {
  const auto fail = [&](std::size_t lineno, const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  };
  events.clear();
  std::string line;
  std::size_t lineno = 0;
  bool have_meta = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::map<std::string, std::string> kv;
    std::string parse_error;
    if (!parse_flat_object(line, kv, &parse_error)) {
      return fail(lineno, parse_error);
    }
    if (!have_meta) {
      if (kv.find("schema") == kv.end()) {
        return fail(lineno, "first line must be the trace meta header");
      }
      meta.schema = kv["schema"];
      if (meta.schema != "sinrcolor.trace.v1") {
        return fail(lineno, "unknown schema '" + meta.schema + "'");
      }
      meta.scenario = kv.count("scenario") != 0 ? kv["scenario"] : "";
      if (!get_integer(kv, "n", meta.node_count) ||
          !get_integer(kv, "seed", meta.seed) ||
          !get_integer(kv, "recorded", meta.recorded) ||
          !get_integer(kv, "dropped", meta.dropped)) {
        return fail(lineno,
                    "meta header needs integers n/seed/recorded/dropped >= 0");
      }
      if (meta.node_count > kNoNode) {
        return fail(lineno, "n " + std::to_string(meta.node_count) +
                                " exceeds the node id range");
      }
      have_meta = true;
      continue;
    }
    TraceEvent e;
    std::int64_t a = 0;
    const auto kind_it = kv.find("kind");
    if (kind_it == kv.end() ||
        !event_kind_from_string(kind_it->second, e.kind)) {
      return fail(lineno, "missing or unknown event kind");
    }
    if (!get_integer(kv, "slot", e.slot) || !get_integer(kv, "node", e.node) ||
        !get_integer(kv, "peer", e.peer) || !get_integer(kv, "a", a) ||
        !get_integer(kv, "b", e.b)) {
      return fail(lineno, "event needs integers slot/node/peer/a/b, "
                          "node and peer in 0..2^32 - 1");
    }
    const std::string violation = event_violation(
        e, a, meta.node_count, events.empty() ? 0 : events.back().slot);
    if (!violation.empty()) return fail(lineno, violation);
    e.a = static_cast<std::int32_t>(a);
    events.push_back(e);
  }
  if (!have_meta) return fail(lineno, "empty trace (no meta header)");
  return true;
}

void write_chrome_trace(const TraceMeta& meta,
                        std::span<const TraceEvent> events, std::ostream& out,
                        const Profiler* profiler) {
  common::JsonWriter json;
  json.begin_object();
  json.field("displayTimeUnit", "ms");
  json.key("traceEvents");
  json.begin_array();

  const auto metadata = [&](const char* what, std::uint64_t tid,
                            const std::string& name) {
    json.begin_object();
    json.field("name", what);
    json.field("ph", "M");
    json.field("pid", 0);
    json.field("tid", tid);
    json.key("args");
    json.begin_object();
    json.field("name", name);
    json.end_object();
    json.end_object();
  };
  metadata("process_name", 0,
           "sinrcolor " + meta.scenario + " (n=" +
               std::to_string(meta.node_count) + ", seed=" +
               std::to_string(meta.seed) + ")");

  // Only nodes that appear in the trace get a named track (a 10^5-node run
  // with a ring-buffered tail should not emit 10^5 empty threads).
  std::vector<bool> seen(meta.node_count, false);
  for (const TraceEvent& e : events) {
    if (e.node < seen.size() && !seen[e.node]) {
      seen[e.node] = true;
      metadata("thread_name", e.node, "node " + std::to_string(e.node));
    }
  }

  const auto complete = [&](NodeId tid, const std::string& name, Slot start,
                            Slot end) {
    if (end <= start) return;
    json.begin_object();
    json.field("name", name);
    json.field("ph", "X");
    json.field("ts", static_cast<std::int64_t>(start));
    json.field("dur", static_cast<std::int64_t>(end - start));
    json.field("pid", 0);
    json.field("tid", static_cast<std::uint64_t>(tid));
    json.end_object();
  };
  const auto instant = [&](NodeId tid, const char* name, Slot ts,
                           const TraceEvent& e, bool with_payload) {
    json.begin_object();
    json.field("name", name);
    json.field("ph", "i");
    json.field("s", "t");
    json.field("ts", static_cast<std::int64_t>(ts));
    json.field("pid", 0);
    json.field("tid", static_cast<std::uint64_t>(tid));
    if (with_payload) {
      json.key("args");
      json.begin_object();
      json.field("peer", static_cast<std::uint64_t>(e.peer));
      json.field("a", static_cast<std::int64_t>(e.a));
      json.field("b", e.b);
      json.end_object();
    }
    json.end_object();
  };

  // Per-node open state interval, closed by the next automaton edge (or the
  // end of the trace).
  struct Open {
    std::string name;
    Slot start = 0;
  };
  std::map<NodeId, Open> open;
  Slot max_slot = 0;
  const auto close_open = [&](NodeId v, Slot at) {
    const auto it = open.find(v);
    if (it == open.end()) return;
    complete(v, it->second.name, it->second.start, at);
    open.erase(it);
  };

  for (const TraceEvent& e : events) {
    max_slot = std::max(max_slot, e.slot);
    switch (e.kind) {
      case EventKind::kMwTransition:
        close_open(e.node, e.slot);
        if (mw_state_name(e.b) != std::string("asleep")) {
          open[e.node] = {mw_state_name(e.b), e.slot};
        }
        break;
      case EventKind::kJoinTransition:
        close_open(e.node, e.slot);
        if (e.b != 0) {  // JoinPhase::kInactive opens nothing
          open[e.node] = {std::string("join:") + join_phase_name(e.b), e.slot};
        }
        break;
      case EventKind::kFailure:
        close_open(e.node, e.slot);
        open[e.node] = {"dead", e.slot};
        instant(e.node, "failure", e.slot, e, false);
        break;
      case EventKind::kWake:
      case EventKind::kJoin:
      case EventKind::kRevival:
        close_open(e.node, e.slot);
        instant(e.node, to_string(e.kind), e.slot, e, false);
        break;
      case EventKind::kTx:
        instant(e.node, "tx", e.slot, e, true);
        break;
      case EventKind::kDelivery:
        instant(e.node, "rx", e.slot, e, true);
        break;
      case EventKind::kDrop:
        instant(e.node, "drop", e.slot, e, true);
        break;
      case EventKind::kLeaderElected:
        instant(e.node, "leader_elected", e.slot, e, false);
        break;
      case EventKind::kColorFinalized:
        instant(e.node, "color_finalized", e.slot, e, true);
        break;
      case EventKind::kFailover:
        instant(e.node, "failover", e.slot, e, true);
        break;
      case EventKind::kIndependenceViolation:
        instant(e.node, "independence_violation", e.slot, e, true);
        break;
      case EventKind::kFaultDrop:
        instant(e.node, "fault_drop", e.slot, e, true);
        break;
      case EventKind::kInvariantViolation:
        instant(e.node, "invariant_violation", e.slot, e, true);
        break;
      case EventKind::kConflictRepaired:
        instant(e.node, "conflict_repaired", e.slot, e, true);
        break;
    }
  }
  // Close every interval one slot past the last event so terminal states
  // (leader/colored/dead) stay visible.
  for (const auto& [v, interval] : std::map<NodeId, Open>(open)) {
    complete(v, interval.name, interval.start, max_slot + 1);
  }

  // Profiler tracks: a second process (pid 1) so phase timing never
  // interleaves with the slot-time node tracks (real microseconds vs the
  // slot==microsecond convention above). One tid per recorded phase: an
  // aggregate "X" slice carrying the stats and a "C" counter of total_us.
  if (profiler != nullptr && profiler->recorded() > 0) {
    json.begin_object();
    json.field("name", "process_name");
    json.field("ph", "M");
    json.field("pid", 1);
    json.field("tid", 0);
    json.key("args");
    json.begin_object();
    json.field("name", "profiler (phase totals, us)");
    json.end_object();
    json.end_object();
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const Phase phase = static_cast<Phase>(i);
      const Profiler::Snapshot snap = profiler->stats(phase);
      if (snap.count == 0) continue;
      const std::string name = to_string(phase);
      json.begin_object();
      json.field("name", "thread_name");
      json.field("ph", "M");
      json.field("pid", 1);
      json.field("tid", static_cast<std::uint64_t>(i));
      json.key("args");
      json.begin_object();
      json.field("name", "phase " + name);
      json.end_object();
      json.end_object();
      json.begin_object();
      json.field("name", name);
      json.field("ph", "X");
      json.field("ts", 0);
      json.field("dur", snap.total_us);
      json.field("pid", 1);
      json.field("tid", static_cast<std::uint64_t>(i));
      json.key("args");
      json.begin_object();
      json.field("count", snap.count);
      json.field("total_us", snap.total_us);
      json.field("self_us", snap.self_us);
      json.field("max_us", snap.max_us);
      json.field("p50_us", snap.p50_us);
      json.field("p95_us", snap.p95_us);
      json.end_object();
      json.end_object();
      json.begin_object();
      json.field("name", "phase_total_us:" + name);
      json.field("ph", "C");
      json.field("ts", 0);
      json.field("pid", 1);
      json.field("tid", static_cast<std::uint64_t>(i));
      json.key("args");
      json.begin_object();
      json.field("total_us", snap.total_us);
      json.end_object();
      json.end_object();
    }
  }

  json.end_array();
  json.end_object();
  out << json.str() << '\n';
}

std::vector<NodeDigest> build_digest(std::span<const TraceEvent> events,
                                     std::size_t node_count) {
  // Sized by the events, not the header: a header may declare up to 2^32 − 1
  // nodes, and the nodes past the last one any event names have no row.
  std::size_t rows = 0;
  for (const TraceEvent& e : events) {
    SINRCOLOR_CHECK_MSG(e.node < node_count,
                        "trace event for a node beyond node_count");
    rows = std::max<std::size_t>(rows, std::size_t{e.node} + 1);
  }
  std::vector<NodeDigest> digest(rows);
  for (std::size_t v = 0; v < rows; ++v) {
    digest[v].node = static_cast<NodeId>(v);
  }
  for (const TraceEvent& e : events) {
    NodeDigest& d = digest[e.node];
    switch (e.kind) {
      case EventKind::kWake:
      case EventKind::kJoin:
      case EventKind::kRevival:
        if (d.first_wake < 0) d.first_wake = e.slot;
        d.last_wake = e.slot;
        // A revival voids any pre-crash decision (the simulator resets the
        // node's decision slot the same way).
        d.decision_slot = -1;
        d.final_color = -1;
        d.death_slot = -1;
        d.leader = false;
        break;
      case EventKind::kFailure:
        d.death_slot = e.slot;
        break;
      case EventKind::kTx:
        ++d.tx_count;
        break;
      case EventKind::kDelivery:
        ++d.delivery_count;
        break;
      case EventKind::kDrop:
        ++d.drop_count;
        break;
      case EventKind::kMwTransition:
        ++d.transition_count;
        d.last_mw_state = e.b;
        break;
      case EventKind::kJoinTransition:
        ++d.transition_count;
        d.last_join_phase = e.b;
        break;
      case EventKind::kLeaderElected:
        d.leader = true;
        break;
      case EventKind::kColorFinalized:
        if (d.decision_slot < 0) d.decision_slot = e.slot;
        d.final_color = e.b;
        break;
      case EventKind::kFailover:
        ++d.failover_count;
        break;
      case EventKind::kIndependenceViolation:
        break;
      case EventKind::kFaultDrop:
        ++d.drop_count;  // lost delivery, whatever the cause
        break;
      case EventKind::kInvariantViolation:
      case EventKind::kConflictRepaired:
        break;
    }
  }
  return digest;
}

std::string render_digest(const std::vector<NodeDigest>& digest,
                          std::int64_t only_node) {
  common::Table table({"node", "wake", "decided", "latency", "color", "state",
                       "death", "tx", "rx", "drops", "failovers"});
  const auto slot_str = [](Slot s) {
    return s < 0 ? std::string("-")
                 : std::to_string(static_cast<long long>(s));
  };
  for (const NodeDigest& d : digest) {
    if (only_node >= 0 && d.node != static_cast<NodeId>(only_node)) continue;
    std::string state = "-";
    if (d.death_slot >= 0) {
      state = "dead";
    } else if (d.last_mw_state >= 0 &&
               (d.last_join_phase <= 0 || d.last_mw_state > 0)) {
      state = mw_state_name(d.last_mw_state);
      if (d.leader) state = "leader";
    } else if (d.last_join_phase >= 0) {
      state = std::string("join:") + join_phase_name(d.last_join_phase);
    }
    const Slot latency = d.decision_slot >= 0 && d.last_wake >= 0
                             ? d.decision_slot - d.last_wake
                             : -1;
    table.add_row(
        {std::to_string(d.node), slot_str(d.first_wake),
         slot_str(d.decision_slot), slot_str(latency),
         d.final_color < 0 ? "-" : std::to_string(d.final_color), state,
         slot_str(d.death_slot), std::to_string(d.tx_count),
         std::to_string(d.delivery_count), std::to_string(d.drop_count),
         std::to_string(d.failover_count)});
  }
  std::ostringstream out;
  table.print(out);
  return out.str();
}

}  // namespace sinrcolor::obs
