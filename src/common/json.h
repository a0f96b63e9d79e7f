// Minimal JSON support: a streaming writer (experiment and run results are
// exported for downstream tooling) and a small recursive-descent parser
// (declarative inputs such as fault plans are read back in). The writer
// emits valid RFC-8259 documents; numbers are finite doubles/integers,
// strings are escaped. The parser accepts strict RFC-8259 (no comments, no
// trailing commas) and reports errors with a byte offset instead of
// aborting, so malformed user-supplied files fail with a message.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sinrcolor::common {

/// Streaming JSON builder. Usage:
///   JsonWriter json;
///   json.begin_object();
///   json.key("n"); json.value(42);
///   json.key("colors"); json.begin_array(); json.value(1); ... json.end_array();
///   json.end_object();
///   std::string doc = json.str();
/// Nesting is validated with asserts; values/keys must alternate correctly.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object key; must be followed by exactly one value/container.
  void key(const std::string& name);

  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();

  /// Convenience: key + value.
  template <typename T>
  void field(const std::string& name, T&& v) {
    key(name);
    value(std::forward<T>(v));
  }

  /// The finished document; only valid once all containers are closed.
  const std::string& str() const;

  static std::string escape(const std::string& raw);

 private:
  enum class Frame : std::uint8_t { kObject, kArray };

  void prefix_for_value();

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool expecting_value_ = false;  // a key was just written
};

/// Parsed JSON document node. Objects keep their members in a sorted map
/// (key order is irrelevant to every consumer; iteration is deterministic).
/// All numbers are held as double — the integer accessors round-trip exactly
/// up to 2^53, far beyond any slot count or node id this repo handles.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; each aborts (CHECK) when the kind does not match —
  /// callers validate kinds first (FaultPlan::from_json does).
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; null when absent or when this is not an object.
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(Array v);
  static JsonValue make_object(Object v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Indirection keeps JsonValue movable/copyable without recursive layout.
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses one JSON document (with optional surrounding whitespace). Returns
/// false and fills `error` (when non-null) with "offset N: message" on
/// malformed input; `out` is untouched in that case.
bool parse_json(const std::string& text, JsonValue& out, std::string* error);

}  // namespace sinrcolor::common
