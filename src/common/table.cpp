#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/check.h"
#include "common/csv.h"

namespace sinrcolor::common {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  SINRCOLOR_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  SINRCOLOR_CHECK_MSG(cells.size() == header_.size(),
                      "row width must match header width");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << std::string(widths[c] - row[c].size(), ' ') << row[c];
    }
    os << " |\n";
  };

  auto print_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << (c == 0 ? "+-" : "-+-") << std::string(widths[c], '-');
    }
    os << "-+\n";
  };

  print_rule();
  print_row(header_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

bool Table::write_csv(const std::string& path) const {
  CsvWriter csv(path, header_);
  if (!csv.ok()) return false;
  for (const auto& row : rows_) csv.add_row(row);
  return true;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::integer(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

std::string Table::percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

}  // namespace sinrcolor::common
