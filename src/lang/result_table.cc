#include "lang/result_table.h"

#include <algorithm>
#include <sstream>

#include "util/table_printer.h"

namespace egocensus {

ResultTable::ResultTable(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void ResultTable::AddRow(std::vector<AttributeValue> row) {
  row.resize(columns_.size(), std::int64_t{0});
  rows_.push_back(std::move(row));
}

void ResultTable::SortByColumns(
    const std::vector<std::pair<std::size_t, bool>>& keys) {
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&keys](const auto& a, const auto& b) {
                     for (const auto& [col, descending] : keys) {
                       auto cmp = CompareAttributeValues(a[col], b[col]);
                       if (!cmp.has_value() || *cmp == 0) continue;
                       return descending ? *cmp > 0 : *cmp < 0;
                     }
                     return false;
                   });
}

void ResultTable::Truncate(std::size_t n) {
  if (rows_.size() > n) rows_.resize(n);
}

std::string ResultTable::ToString(std::size_t max_rows) const {
  TablePrinter printer(columns_);
  for (std::size_t r = 0; r < rows_.size() && r < max_rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (const auto& v : rows_[r]) cells.push_back(AttributeValueToString(v));
    printer.AddRow(std::move(cells));
  }
  std::ostringstream os;
  printer.PrintText(os);
  if (rows_.size() > max_rows) {
    os << "... (" << rows_.size() - max_rows << " more rows)\n";
  }
  return os.str();
}

void ResultTable::WriteCsv(std::ostream& os) const {
  TablePrinter printer(columns_);
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (const auto& v : row) cells.push_back(AttributeValueToString(v));
    printer.AddRow(std::move(cells));
  }
  printer.PrintCsv(os);
}

}  // namespace egocensus
