// A small text-table writer used by the bench binaries to print the paper's
// tables and figure series in a consistent, diff-friendly format.

#ifndef MSPRINT_SRC_COMMON_TABLE_H_
#define MSPRINT_SRC_COMMON_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace msprint {

// Accumulates rows of strings and renders them with aligned columns.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  // Appends a row; pads or truncates to the header width.
  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  static std::string Num(double value, int precision = 2);
  static std::string Pct(double fraction, int precision = 1);

  void Print(std::ostream& os) const;
  std::string ToString() const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section banner like "== Fig 7: ... ==" so bench output is easy
// to scan and grep.
void PrintBanner(std::ostream& os, const std::string& title);

}  // namespace msprint

#endif  // MSPRINT_SRC_COMMON_TABLE_H_
