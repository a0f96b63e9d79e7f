#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sinrcolor::common {

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "program";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      usage_error("positional arguments are not supported: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  consumed_[name] = true;
  return values_.count(name) != 0;
}

std::string Cli::get(const std::string& name, const std::string& default_value) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t default_value) const {
  const std::string raw = get(name, "");
  if (raw.empty()) return default_value;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    usage_error("flag --" + name + " expects an integer, got '" + raw + "'");
  }
  if (errno == ERANGE) {
    usage_error("flag --" + name +
                " is outside the 64-bit integer range, got '" + raw + "'");
  }
  return v;
}

double Cli::get_double(const std::string& name, double default_value) const {
  const std::string raw = get(name, "");
  if (raw.empty()) return default_value;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
    usage_error("flag --" + name + " expects a finite number, got '" + raw +
                "'");
  }
  return v;
}

std::int64_t Cli::get_int_at_least(const std::string& name,
                                   std::int64_t default_value,
                                   std::int64_t min) const {
  return get_int_in_range(name, default_value, min,
                          std::numeric_limits<std::int64_t>::max());
}

std::int64_t Cli::get_int_in_range(const std::string& name,
                                   std::int64_t default_value,
                                   std::int64_t min, std::int64_t max) const {
  const std::int64_t v = get_int(name, default_value);
  if (has(name) && (v < min || v > max)) {
    usage_error("flag --" + name + " must be at " +
                (v < min ? "least " + std::to_string(min)
                         : "most " + std::to_string(max)) +
                ", got " + std::to_string(v));
  }
  return v;
}

double Cli::get_double_at_least(const std::string& name, double default_value,
                                double min) const {
  const double v = get_double(name, default_value);
  if (has(name) && v < min) {
    char msg[128];
    std::snprintf(msg, sizeof msg, "flag --%s must be at least %g, got %g",
                  name.c_str(), min, v);
    usage_error(msg);
  }
  return v;
}

double Cli::get_probability(const std::string& name, double default_value,
                            bool allow_one) const {
  const double v = get_double(name, default_value);
  if (has(name) && !(v > 0.0 && (allow_one ? v <= 1.0 : v < 1.0))) {
    char msg[128];
    std::snprintf(msg, sizeof msg, "flag --%s must be in (0, 1%s, got %g",
                  name.c_str(), allow_one ? "]" : ")", v);
    usage_error(msg);
  }
  return v;
}

double Cli::get_fraction(const std::string& name, double default_value) const {
  const double v = get_double(name, default_value);
  if (has(name) && !(v >= 0.0 && v <= 1.0)) {
    char msg[128];
    std::snprintf(msg, sizeof msg, "flag --%s must be in [0, 1], got %g",
                  name.c_str(), v);
    usage_error(msg);
  }
  return v;
}

std::vector<std::uint64_t> Cli::get_count_list(const std::string& name,
                                               const std::string& default_value,
                                               std::uint64_t max) const {
  const std::string raw = get(name, default_value);
  std::vector<std::uint64_t> counts;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = raw.find(',', pos);
    const std::string entry = raw.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    // Digits only: strtoull alone would wrap "-5" to a huge count.
    const bool digits = !entry.empty() &&
                        entry.find_first_not_of("0123456789") ==
                            std::string::npos;
    const unsigned long long v =
        digits ? std::strtoull(entry.c_str(), nullptr, 10) : 0;
    if (v == 0 || v > max) {
      usage_error("bad --" + name + " entry '" + entry +
                  "' (want a count in [1, " + std::to_string(max) + "])");
    }
    counts.push_back(v);
    if (comma == std::string::npos) return counts;
    pos = comma + 1;
  }
}

bool Cli::get_bool(const std::string& name, bool default_value) const {
  const std::string raw = get(name, "");
  if (raw.empty()) return default_value;
  if (raw == "true" || raw == "1" || raw == "yes") return true;
  if (raw == "false" || raw == "0" || raw == "no") return false;
  usage_error("flag --" + name + " expects a boolean, got '" + raw + "'");
}

std::uint64_t Cli::get_seed(const std::string& name, std::uint64_t default_value) const {
  const std::string raw = get(name, "");
  if (raw.empty()) return default_value;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, 0);
  // strtoull negates a '-' value into a huge seed; refuse it, and overflow.
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      raw.find('-') != std::string::npos) {
    usage_error("flag --" + name + " expects a seed in [0, 2^64 - 1], got '" +
                raw + "'");
  }
  return v;
}

void Cli::usage_error(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
  std::exit(2);
}

void Cli::reject_unknown() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (consumed_.find(name) == consumed_.end()) {
      usage_error("unknown flag --" + name);
    }
  }
}

}  // namespace sinrcolor::common
