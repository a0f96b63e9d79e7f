// Tiny command-line flag parser used by examples and experiment binaries.
// Supports "--name=value" and "--name value"; unknown flags are an error so
// typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sinrcolor::common {

class Cli {
 public:
  /// Parses argv; aborts with a usage message on malformed input.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& default_value) const;
  std::int64_t get_int(const std::string& name, std::int64_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  /// get_int / get_double with a validated lower bound: a value below `min`
  /// (e.g. "--threads 0", a negative slot count) exits with the usage error
  /// instead of misbehaving deep inside a run. The default itself is not
  /// checked — callers pass defaults that satisfy their own bound.
  std::int64_t get_int_at_least(const std::string& name,
                                std::int64_t default_value,
                                std::int64_t min) const;
  /// get_int_at_least with an upper bound too: above `max` exits with the
  /// usage error "flag --x must be at most MAX".
  std::int64_t get_int_in_range(const std::string& name,
                                std::int64_t default_value, std::int64_t min,
                                std::int64_t max) const;
  double get_double_at_least(const std::string& name, double default_value,
                             double min) const;
  /// get_double for a probability flag: the value must lie in (0, 1], or in
  /// the open (0, 1) when `allow_one` is false. Anything else (NaN
  /// included) exits with the usage error.
  double get_probability(const std::string& name, double default_value,
                         bool allow_one) const;
  /// get_double for a fraction flag: the value must lie in [0, 1].
  /// Anything else (NaN included) exits with the usage error.
  double get_fraction(const std::string& name, double default_value) const;
  /// A comma-separated list of counts ("64,128,256"), each in [1, max]. An
  /// entry that is empty, not a decimal number, zero or above `max` exits
  /// with the usage error "bad --x entry '<entry>'".
  std::vector<std::uint64_t> get_count_list(const std::string& name,
                                            const std::string& default_value,
                                            std::uint64_t max) const;
  bool get_bool(const std::string& name, bool default_value) const;
  std::uint64_t get_seed(const std::string& name, std::uint64_t default_value) const;

  /// Names consumed via get*(); call after all reads to reject unknown flags.
  void reject_unknown() const;

  /// Prints "<program>: <message>" to stderr and exits 2 — the usage-error
  /// path for a value the front end validates itself (e.g. the first
  /// violated rule of sinr::SinrParams::violation()).
  [[noreturn]] void usage_error(const std::string& message) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace sinrcolor::common
