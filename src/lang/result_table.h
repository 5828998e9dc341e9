#ifndef EGOCENSUS_LANG_RESULT_TABLE_H_
#define EGOCENSUS_LANG_RESULT_TABLE_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "graph/attributes.h"

namespace egocensus {

/// Tabular result of a pattern census query: named columns, rows of
/// dynamically typed values.
class ResultTable {
 public:
  explicit ResultTable(std::vector<std::string> columns = {});

  const std::vector<std::string>& columns() const { return columns_; }
  std::size_t NumRows() const { return rows_.size(); }
  std::size_t NumColumns() const { return columns_.size(); }

  void AddRow(std::vector<AttributeValue> row);

  const AttributeValue& At(std::size_t row, std::size_t col) const {
    return rows_[row][col];
  }

  /// Stable-sorts rows by multiple (column, descending) keys, first key
  /// highest priority.
  void SortByColumns(const std::vector<std::pair<std::size_t, bool>>& keys);

  /// Keeps only the first `n` rows.
  void Truncate(std::size_t n);

  /// Renders up to `max_rows` rows as an aligned text table.
  std::string ToString(std::size_t max_rows = 20) const;

  void WriteCsv(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<AttributeValue>> rows_;
};

}  // namespace egocensus

#endif  // EGOCENSUS_LANG_RESULT_TABLE_H_
