#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace sinrcolor::common {

void JsonWriter::prefix_for_value() {
  if (expecting_value_) {
    expecting_value_ = false;
    return;  // value follows "key":
  }
  if (!stack_.empty()) {
    SINRCOLOR_CHECK_MSG(stack_.back() == Frame::kArray,
                        "object members need a key() first");
    if (!first_in_frame_.back()) out_ += ',';
    first_in_frame_.back() = false;
  }
}

void JsonWriter::begin_object() {
  prefix_for_value();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  first_in_frame_.push_back(true);
}

void JsonWriter::end_object() {
  SINRCOLOR_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  SINRCOLOR_CHECK_MSG(!expecting_value_, "dangling key");
  out_ += '}';
  stack_.pop_back();
  first_in_frame_.pop_back();
}

void JsonWriter::begin_array() {
  prefix_for_value();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  first_in_frame_.push_back(true);
}

void JsonWriter::end_array() {
  SINRCOLOR_CHECK(!stack_.empty() && stack_.back() == Frame::kArray);
  out_ += ']';
  stack_.pop_back();
  first_in_frame_.pop_back();
}

void JsonWriter::key(const std::string& name) {
  SINRCOLOR_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  SINRCOLOR_CHECK_MSG(!expecting_value_, "two keys in a row");
  if (!first_in_frame_.back()) out_ += ',';
  first_in_frame_.back() = false;
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  expecting_value_ = true;
}

void JsonWriter::value(const std::string& v) {
  prefix_for_value();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(double v) {
  prefix_for_value();
  SINRCOLOR_CHECK_MSG(std::isfinite(v), "JSON numbers must be finite");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
}

void JsonWriter::value(std::int64_t v) {
  prefix_for_value();
  out_ += std::to_string(v);
}

void JsonWriter::value(std::uint64_t v) {
  prefix_for_value();
  out_ += std::to_string(v);
}

void JsonWriter::value(bool v) {
  prefix_for_value();
  out_ += v ? "true" : "false";
}

void JsonWriter::null() {
  prefix_for_value();
  out_ += "null";
}

const std::string& JsonWriter::str() const {
  SINRCOLOR_CHECK_MSG(stack_.empty(), "unclosed JSON containers");
  return out_;
}

std::string JsonWriter::escape(const std::string& raw) {
  std::string escaped;
  escaped.reserve(raw.size());
  for (const char raw_ch : raw) {
    const auto ch = static_cast<unsigned char>(raw_ch);
    switch (ch) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (ch < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          escaped += buf;
        } else {
          escaped += static_cast<char>(ch);
        }
    }
  }
  return escaped;
}

// --- JsonValue ---

bool JsonValue::as_bool() const {
  SINRCOLOR_CHECK_MSG(kind_ == Kind::kBool, "JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  SINRCOLOR_CHECK_MSG(kind_ == Kind::kNumber, "JsonValue: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  SINRCOLOR_CHECK_MSG(kind_ == Kind::kString, "JsonValue: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  SINRCOLOR_CHECK_MSG(kind_ == Kind::kArray, "JsonValue: not an array");
  return *array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  SINRCOLOR_CHECK_MSG(kind_ == Kind::kObject, "JsonValue: not an object");
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

JsonValue JsonValue::make_bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_array(Array v) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::make_shared<Array>(std::move(v));
  return out;
}

JsonValue JsonValue::make_object(Object v) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::make_shared<Object>(std::move(v));
  return out;
}

// --- parser ---

namespace {

/// Recursive-descent RFC-8259 parser over a string view. Errors carry the
/// byte offset so a CLI user can locate the problem in their file.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    skip_ws();
    JsonValue value;
    if (!parse_value(value)) {
      if (error != nullptr) *error = error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = at() + "trailing characters after the document";
      }
      return false;
    }
    out = std::move(value);
    return true;
  }

 private:
  std::string at() const { return "offset " + std::to_string(pos_) + ": "; }

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = at() + message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return fail(std::string("expected '") + expected + "'");
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue::make_string(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = JsonValue::make_bool(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = JsonValue();
        return true;
      default: return parse_number(out);
    }
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) {
      return fail(std::string("invalid literal (expected ") + word + ")");
    }
    pos_ += len;
    return true;
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    JsonValue::Object members;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out = JsonValue::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      members[std::move(key)] = std::move(value);
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!consume('}')) return false;
      out = JsonValue::make_object(std::move(members));
      return true;
    }
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    JsonValue::Array items;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out = JsonValue::make_array(std::move(items));
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      items.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!consume(']')) return false;
      out = JsonValue::make_array(std::move(items));
      return true;
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected a string");
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are rejected:
          // no plan field legitimately needs astral characters).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return fail("surrogate escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      pos_ = start;
      return fail("invalid number '" + token + "'");
    }
    out = JsonValue::make_number(v);
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, std::string* error) {
  return JsonParser(text).parse(out, error);
}

}  // namespace sinrcolor::common
