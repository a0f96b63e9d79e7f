#include "faults/fault_plan.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace sinrcolor::faults {
namespace {

using common::JsonValue;

constexpr const char* kSchema = "sinrcolor.faults.v1";

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string at(const char* section, std::size_t index) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s[%zu]", section, index);
  return buf;
}

/// Strict-key check: a typo'd key must fail loudly, not silently disable a
/// fault.
bool only_keys(const JsonValue& object,
               std::initializer_list<const char*> allowed,
               const std::string& where, std::string* error) {
  for (const auto& [key, value] : object.as_object()) {
    bool known = false;
    for (const char* k : allowed) {
      if (key == k) {
        known = true;
        break;
      }
    }
    if (!known) return fail(error, where + ": unknown key \"" + key + "\"");
  }
  return true;
}

bool read_double(const JsonValue& object, const char* key, double& out,
                 bool required, const std::string& where, std::string* error) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) {
    return required ? fail(error, where + ": missing \"" + key + "\"") : true;
  }
  if (!v->is_number()) {
    return fail(error, where + ": \"" + key + "\" must be a number");
  }
  out = v->as_double();
  return true;
}

bool read_int(const JsonValue& object, const char* key, std::int64_t& out,
              bool required, const std::string& where, std::string* error) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) {
    return required ? fail(error, where + ": missing \"" + key + "\"") : true;
  }
  if (!v->is_number()) {
    return fail(error, where + ": \"" + key + "\" must be a number");
  }
  // Checked before the cast, which is undefined beyond the int64 range.
  const double d = v->as_double();
  if (!(std::abs(d) <= static_cast<double>(FaultPlan::kMaxExactInt)) ||
      d != std::trunc(d)) {
    return fail(error, where + ": \"" + key +
                           "\" must be an integer of magnitude at most "
                           "2^53 - 1");
  }
  out = static_cast<std::int64_t>(d);
  return true;
}

/// A node id narrows to graph::NodeId without wrapping, and is not the
/// kInvalidNode sentinel.
bool node_id_in_range(std::int64_t node) {
  return node >= 0 && node < std::int64_t{graph::kInvalidNode};
}

/// Fetches section `key` as an array of objects; absent ⇒ empty (ok).
bool read_section(const JsonValue& doc, const char* key,
                  const JsonValue*& out, std::string* error) {
  out = doc.find(key);
  if (out == nullptr) return true;
  if (!out->is_array()) {
    return fail(error, std::string(key) + " must be an array");
  }
  for (std::size_t i = 0; i < out->as_array().size(); ++i) {
    if (!out->as_array()[i].is_object()) {
      return fail(error, at(key, i) + " must be an object");
    }
  }
  return true;
}

}  // namespace

std::string FaultPlan::validate(
    std::size_t n, std::span<const geometry::Point> positions) const {
  char buf[160];
  const auto bad = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    return std::string(buf);
  };
  const auto node_ok = [n](graph::NodeId v) {
    return v != graph::kInvalidNode && static_cast<std::size_t>(v) < n;
  };
  const auto window_ok = [](radio::Slot from, radio::Slot to) {
    return from >= 0 && (to == -1 || to >= from);
  };
  if (seed_salt > kMaxExactInt) return "seed_salt: must be at most 2^53 - 1";
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const CrashEvent& c = crashes[i];
    if (!node_ok(c.node))
      return bad("crashes[%zu]: node %u out of range (n=%zu)", i, c.node, n);
    if (c.slot < 0) return bad("crashes[%zu]: negative slot", i);
    if (c.restart != -1 && c.restart < c.slot)
      return bad("crashes[%zu]: restart before the crash slot", i);
  }
  for (std::size_t i = 0; i < deafness.size(); ++i) {
    const DeafnessWindow& d = deafness[i];
    if (!node_ok(d.node))
      return bad("deafness[%zu]: node %u out of range (n=%zu)", i, d.node, n);
    if (!window_ok(d.from, d.to)) return bad("deafness[%zu]: bad window", i);
  }
  for (std::size_t i = 0; i < jammers.size(); ++i) {
    const JammerSpec& j = jammers[i];
    if (!window_ok(j.from, j.to)) return bad("jammers[%zu]: bad window", i);
    if (!(j.power > 0.0) || !std::isfinite(j.power))
      return bad("jammers[%zu]: power must be finite and > 0", i);
    if (j.period < 0 || j.duty < 0 || (j.period > 0 && j.duty > j.period))
      return bad("jammers[%zu]: need 0 <= duty <= period", i);
    if (j.radius < 0.0 || !std::isfinite(j.radius))
      return bad("jammers[%zu]: radius must be finite and >= 0", i);
    if (!std::isfinite(j.position.x) || !std::isfinite(j.position.y))
      return bad("jammers[%zu]: non-finite position", i);
    for (std::size_t v = 0; v < positions.size(); ++v) {
      if (geometry::distance_sq(j.position, positions[v]) == 0.0)
        return bad("jammers[%zu]: coincides with node %zu", i, v);
    }
  }
  for (std::size_t i = 0; i < noise.size(); ++i) {
    const NoiseWindow& w = noise[i];
    if (!window_ok(w.from, w.to)) return bad("noise[%zu]: bad window", i);
    if (!(w.factor > 0.0) || !std::isfinite(w.factor))
      return bad("noise[%zu]: factor must be finite and > 0", i);
  }
  for (std::size_t i = 0; i < drops.size(); ++i) {
    const DropWindow& w = drops[i];
    if (!window_ok(w.from, w.to)) return bad("drops[%zu]: bad window", i);
    if (!(w.probability >= 0.0 && w.probability <= 1.0))
      return bad("drops[%zu]: probability must be in [0, 1]", i);
  }
  return "";
}

bool FaultPlan::from_json(const JsonValue& doc, FaultPlan& out,
                          std::string* error) {
  if (!doc.is_object()) return fail(error, "fault plan must be an object");
  if (!only_keys(doc,
                 {"schema", "seed_salt", "crashes", "deafness", "jammers",
                  "noise", "drops"},
                 "fault plan", error)) {
    return false;
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    return fail(error,
                std::string("fault plan: \"schema\" must be \"") + kSchema +
                    "\"");
  }

  FaultPlan plan;
  std::int64_t salt = 0;
  if (!read_int(doc, "seed_salt", salt, false, "fault plan", error)) {
    return false;
  }
  if (salt < 0) return fail(error, "fault plan: \"seed_salt\" must be >= 0");
  plan.seed_salt = static_cast<std::uint64_t>(salt);

  const JsonValue* section = nullptr;
  if (!read_section(doc, "crashes", section, error)) return false;
  if (section != nullptr) {
    for (std::size_t i = 0; i < section->as_array().size(); ++i) {
      const JsonValue& entry = section->as_array()[i];
      const std::string where = at("crashes", i);
      if (!only_keys(entry, {"node", "slot", "restart"}, where, error)) {
        return false;
      }
      CrashEvent c;
      std::int64_t node = 0, slot = 0, restart = -1;
      if (!read_int(entry, "node", node, true, where, error) ||
          !read_int(entry, "slot", slot, true, where, error) ||
          !read_int(entry, "restart", restart, false, where, error)) {
        return false;
      }
      if (!node_id_in_range(node)) {
        return fail(error, where + ": node outside the node id range");
      }
      c.node = static_cast<graph::NodeId>(node);
      c.slot = slot;
      c.restart = restart;
      plan.crashes.push_back(c);
    }
  }

  if (!read_section(doc, "deafness", section, error)) return false;
  if (section != nullptr) {
    for (std::size_t i = 0; i < section->as_array().size(); ++i) {
      const JsonValue& entry = section->as_array()[i];
      const std::string where = at("deafness", i);
      if (!only_keys(entry, {"node", "from", "to"}, where, error)) {
        return false;
      }
      DeafnessWindow d;
      std::int64_t node = 0, from = 0, to = -1;
      if (!read_int(entry, "node", node, true, where, error) ||
          !read_int(entry, "from", from, true, where, error) ||
          !read_int(entry, "to", to, false, where, error)) {
        return false;
      }
      if (!node_id_in_range(node)) {
        return fail(error, where + ": node outside the node id range");
      }
      d.node = static_cast<graph::NodeId>(node);
      d.from = from;
      d.to = to;
      plan.deafness.push_back(d);
    }
  }

  if (!read_section(doc, "jammers", section, error)) return false;
  if (section != nullptr) {
    for (std::size_t i = 0; i < section->as_array().size(); ++i) {
      const JsonValue& entry = section->as_array()[i];
      const std::string where = at("jammers", i);
      if (!only_keys(entry,
                     {"x", "y", "from", "to", "power", "period", "duty",
                      "radius"},
                     where, error)) {
        return false;
      }
      JammerSpec j;
      std::int64_t from = 0, to = -1, period = 0, duty = 0;
      if (!read_double(entry, "x", j.position.x, true, where, error) ||
          !read_double(entry, "y", j.position.y, true, where, error) ||
          !read_int(entry, "from", from, true, where, error) ||
          !read_int(entry, "to", to, false, where, error) ||
          !read_double(entry, "power", j.power, false, where, error) ||
          !read_int(entry, "period", period, false, where, error) ||
          !read_int(entry, "duty", duty, false, where, error) ||
          !read_double(entry, "radius", j.radius, false, where, error)) {
        return false;
      }
      j.from = from;
      j.to = to;
      j.period = period;
      j.duty = duty;
      plan.jammers.push_back(j);
    }
  }

  if (!read_section(doc, "noise", section, error)) return false;
  if (section != nullptr) {
    for (std::size_t i = 0; i < section->as_array().size(); ++i) {
      const JsonValue& entry = section->as_array()[i];
      const std::string where = at("noise", i);
      if (!only_keys(entry, {"from", "to", "factor"}, where, error)) {
        return false;
      }
      NoiseWindow w;
      std::int64_t from = 0, to = -1;
      if (!read_int(entry, "from", from, true, where, error) ||
          !read_int(entry, "to", to, false, where, error) ||
          !read_double(entry, "factor", w.factor, true, where, error)) {
        return false;
      }
      w.from = from;
      w.to = to;
      plan.noise.push_back(w);
    }
  }

  if (!read_section(doc, "drops", section, error)) return false;
  if (section != nullptr) {
    for (std::size_t i = 0; i < section->as_array().size(); ++i) {
      const JsonValue& entry = section->as_array()[i];
      const std::string where = at("drops", i);
      if (!only_keys(entry, {"from", "to", "probability"}, where, error)) {
        return false;
      }
      DropWindow w;
      std::int64_t from = 0, to = -1;
      if (!read_int(entry, "from", from, true, where, error) ||
          !read_int(entry, "to", to, false, where, error) ||
          !read_double(entry, "probability", w.probability, true, where,
                       error)) {
        return false;
      }
      w.from = from;
      w.to = to;
      plan.drops.push_back(w);
    }
  }

  out = std::move(plan);
  return true;
}

bool FaultPlan::from_string(const std::string& text, FaultPlan& out,
                            std::string* error) {
  JsonValue doc;
  if (!common::parse_json(text, doc, error)) return false;
  return from_json(doc, out, error);
}

bool FaultPlan::load(const std::string& path, FaultPlan& out,
                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "cannot open fault plan \"" + path + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  return from_string(text.str(), out, error);
}

std::string FaultPlan::to_json() const {
  common::JsonWriter json;
  json.begin_object();
  json.field("schema", kSchema);
  if (seed_salt != 0) json.field("seed_salt", seed_salt);
  json.key("crashes");
  json.begin_array();
  for (const CrashEvent& c : crashes) {
    json.begin_object();
    json.field("node", static_cast<std::int64_t>(c.node));
    json.field("slot", c.slot);
    if (c.restart != -1) json.field("restart", c.restart);
    json.end_object();
  }
  json.end_array();
  json.key("deafness");
  json.begin_array();
  for (const DeafnessWindow& d : deafness) {
    json.begin_object();
    json.field("node", static_cast<std::int64_t>(d.node));
    json.field("from", d.from);
    json.field("to", d.to);
    json.end_object();
  }
  json.end_array();
  json.key("jammers");
  json.begin_array();
  for (const JammerSpec& j : jammers) {
    json.begin_object();
    json.field("x", j.position.x);
    json.field("y", j.position.y);
    json.field("from", j.from);
    json.field("to", j.to);
    json.field("power", j.power);
    if (j.period > 0) {
      json.field("period", j.period);
      json.field("duty", j.duty);
    }
    if (j.radius > 0.0) json.field("radius", j.radius);
    json.end_object();
  }
  json.end_array();
  json.key("noise");
  json.begin_array();
  for (const NoiseWindow& w : noise) {
    json.begin_object();
    json.field("from", w.from);
    json.field("to", w.to);
    json.field("factor", w.factor);
    json.end_object();
  }
  json.end_array();
  json.key("drops");
  json.begin_array();
  for (const DropWindow& w : drops) {
    json.begin_object();
    json.field("from", w.from);
    json.field("to", w.to);
    json.field("probability", w.probability);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace sinrcolor::faults
