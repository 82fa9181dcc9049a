#include "src/common/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace msprint {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::Num(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string TextTable::Pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << (fraction * 100.0)
     << "%";
  return os.str();
}

void TextTable::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << "\n";
  };
  print_row(header_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string TextTable::ToString() const {
  std::ostringstream os;
  Print(os);
  return os.str();
}

void PrintBanner(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

}  // namespace msprint
