// A batch of rows stored column-wise: the unit of work of the vectorized
// engine kernels. Columns are shared_ptrs, so projection is a pointer
// swizzle and a filtered batch whose selection kept every row reuses its
// input's columns without copying.

#ifndef OPD_STORAGE_ROW_BATCH_H_
#define OPD_STORAGE_ROW_BATCH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/column_vector.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace opd::storage {

/// \brief A fixed-row-count group of columns.
class RowBatch {
 public:
  /// Rows per batch that `Table::AppendRow` and the grouping operators
  /// build.
  /// Small enough that a batch's working set stays cache-resident, large
  /// enough to amortize per-batch dispatch.
  static constexpr size_t kDefaultRows = 1024;

  RowBatch() = default;
  RowBatch(std::vector<ColumnVectorPtr> columns, size_t num_rows)
      : columns_(std::move(columns)), num_rows_(num_rows) {}

  /// Builds a batch from rows [begin, end) of `rows` under `schema`. Its
  /// string columns own their dictionaries, so batches can be built
  /// concurrently (`ColumnVector::MergeDictInto` then shares them).
  static RowBatch FromRows(const Schema& schema, const std::vector<Row>& rows,
                           size_t begin, size_t end);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnVector& column(size_t c) const { return *columns_[c]; }
  const ColumnVectorPtr& column_ptr(size_t c) const { return columns_[c]; }

  /// Reconstructs row `i` — the exact cells that were appended.
  Row RowAt(size_t i) const;

  /// Hash of the full row at `i`, equal to `RowHash()(RowAt(i))`.
  uint64_t HashRowAt(size_t i) const;

  /// Hash of the key row built from `cols` at row `i`, equal to
  /// `RowHash()` over that key row.
  uint64_t HashKeysAt(size_t i, const std::vector<size_t>& cols) const;

  /// Appends `row`'s cells to this batch's columns (one cell per column).
  /// For builders only: the columns must not be shared with another batch.
  void Append(const Row& row);

  /// Zero-copy column swizzle: the returned batch shares this batch's
  /// column vectors, reordered/subset per `cols`.
  RowBatch Project(const std::vector<size_t>& cols) const;

  /// Gathers the rows named by selection vector `sel` (ascending row
  /// indices) into a new batch. A full selection returns a zero-copy view.
  RowBatch Gather(const std::vector<uint32_t>& sel) const;

  /// Rows [begin, end) as a batch: the whole batch is a zero-copy view,
  /// any other range a gathered copy (dictionaries stay shared).
  RowBatch Slice(size_t begin, size_t end) const;

  /// Sum of all cells' serialized widths (row-representation-identical).
  size_t ByteSize() const;

 private:
  std::vector<ColumnVectorPtr> columns_;
  size_t num_rows_ = 0;
};

/// One row of a list of batches: batch ordinal + row ordinal in the batch.
struct RowRef {
  uint32_t batch = 0;
  uint32_t idx = 0;
};

/// \brief Builds one batch of rows straight into columns.
///
/// Cells are appended column by column; a row is complete once every
/// column has its cell. Each cell's serialized width is summed as it is
/// appended. Cells copied from another column keep their type, and a
/// string cell's code is translated once per source dictionary.
class BatchBuilder {
 public:
  explicit BatchBuilder(const Schema& schema, size_t reserve = 0);
  BatchBuilder(BatchBuilder&&) = default;
  BatchBuilder& operator=(BatchBuilder&&) = default;

  size_t num_columns() const { return columns_.size(); }
  /// Cells in column 0: the complete rows, once every column has its cell.
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0]->size(); }
  /// Sum of the appended cells' serialized widths.
  uint64_t bytes() const { return bytes_; }
  const ColumnVector& column(size_t c) const { return *columns_[c]; }

  /// Appends `v` to column `c` (throws std::out_of_range past the last
  /// column, so a user reduce function's bad index fails its job).
  void Append(size_t c, const Value& v);
  /// Appends cell `i` of `src` to column `c` (as `Append(src.GetValue(i))`
  /// would, without boxing).
  void AppendFrom(size_t c, const ColumnVector& src, size_t i);

  /// The built batch of `num_rows()` rows; the builder must not be used
  /// afterwards.
  RowBatch Finish();

 private:
  std::vector<ColumnVectorPtr> columns_;
  // Per column, the code translation from each source dictionary.
  std::vector<std::unordered_map<const Dictionary*, DictRemap>> remaps_;
  uint64_t bytes_ = 0;
};

}  // namespace opd::storage

#endif  // OPD_STORAGE_ROW_BATCH_H_
