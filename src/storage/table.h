// In-memory table: schema plus column batches. The unit of data the MR
// simulator reads, shuffles, and materializes.
//
// A table's payload is a vector of `RowBatch`es and nothing else. Builders
// append rows straight into the tail batch's columns (`AppendRow`) or wrap
// batches built elsewhere (`FromBatches`). Row-built tables (`AppendRow`)
// hold one table-wide dictionary per string column. Readers walk
// the batches (`ToBatches`, `batch_offsets`); `ToRows` rebuilds a row copy
// for tests and tools and caches nothing.

#ifndef OPD_STORAGE_TABLE_H_
#define OPD_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace opd::storage {

/// \brief A named, schema-ful collection of rows, held as column batches.
///
/// A table is built by one owner and immutable once shared: producers build
/// it with AppendRow or FromBatches and then store it.
class Table {
 public:
  Table() : Table("", Schema()) {}
  /// An empty table: one empty batch, which AppendRow fills first.
  Table(std::string name, Schema schema);

  /// Wraps `batches` as the table's payload.
  static Table FromBatches(std::string name, Schema schema,
                           std::vector<RowBatch> batches);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return row_count_; }

  /// Always true: the payload is columnar. Kept only because the
  /// benchmark's harness test calls it; the benchmark change planned in
  /// ROADMAP item 3 can drop it.
  bool columnar() const { return true; }

  /// The stored batches (never null, zero cost).
  std::shared_ptr<const std::vector<RowBatch>> ToBatches() const {
    return batches_;
  }

  /// Global row index of each batch's first row, one entry per batch.
  const std::vector<size_t>& batch_offsets() const { return offsets_; }

  /// A row copy of the whole table, rebuilt on every call.
  std::vector<Row> ToRows() const;

  /// Appends a row to the tail batch's columns. A new tail batch opens every
  /// `RowBatch::kDefaultRows` rows; its string columns intern into the
  /// earlier batches' dictionaries, so every batch shares one table-wide
  /// dictionary per column. Fails if the arity does not match the schema,
  /// on a FromBatches table, and once the batch vector is shared
  /// (a copy of the table or a held ToBatches() result). Batches gathered
  /// from this table must not be read on another thread while it grows.
  Status AppendRow(const Row& row);

  /// Total approximate serialized size of all rows, in bytes (summed as the
  /// table is built).
  size_t ByteSize() const { return bytes_; }

  /// Average row width in bytes (0 when empty).
  double AvgRowBytes() const;

  /// Cell accessor by column name; fails on missing column or row index.
  Result<Value> Get(size_t row_idx, const std::string& column) const;

 private:
  /// Opens an empty tail batch on the table's dictionaries.
  void OpenBatch();

  std::string name_;
  Schema schema_;
  std::shared_ptr<std::vector<RowBatch>> batches_;
  std::vector<size_t> offsets_;  // start row of each batch
  size_t row_count_ = 0;
  size_t bytes_ = 0;
  bool sealed_ = false;  // built from batches: AppendRow fails
};

using TablePtr = std::shared_ptr<const Table>;

/// A contiguous [begin, end) slice of row indices — one map-task input split.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits `num_rows` rows of average width `avg_row_bytes` into contiguous
/// ranges of roughly `block_size_bytes` each — the Hadoop rule that one map
/// task processes one DFS block. Always returns at least one range covering
/// all rows (an empty input yields a single empty range so map-only jobs
/// still run their setup/teardown once).
std::vector<RowRange> SplitRowsByBlockSize(size_t num_rows,
                                           double avg_row_bytes,
                                           uint64_t block_size_bytes);

}  // namespace opd::storage

#endif  // OPD_STORAGE_TABLE_H_
