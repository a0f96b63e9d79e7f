// Console table rendering for experiment harnesses. Benches print the same
// rows/series the paper's claims describe; this keeps them aligned/readable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sinrcolor::common {

/// A simple right-aligned text table. Usage:
///   Table t({"n", "Delta", "slots"});
///   t.add_row({"64", "12", "5321"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  std::size_t rows() const { return rows_.size(); }
  void print(std::ostream& os) const;

  /// Writes header + rows as CSV (for plotting); returns false on I/O error.
  bool write_csv(const std::string& path) const;

  /// Formatting helpers for cells.
  static std::string num(double v, int precision = 3);
  static std::string integer(long long v);
  static std::string percent(double fraction, int precision = 1);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sinrcolor::common
