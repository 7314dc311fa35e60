#include "storage/table.h"

#include <algorithm>

namespace opd::storage {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      batches_(std::make_shared<std::vector<RowBatch>>()) {
  OpenBatch();
}

Table Table::FromBatches(std::string name, Schema schema,
                         std::vector<RowBatch> batches) {
  Table t;
  t.name_ = std::move(name);
  t.schema_ = std::move(schema);
  std::vector<size_t> offsets;
  offsets.reserve(batches.size());
  for (const RowBatch& b : batches) {
    offsets.push_back(t.row_count_);
    t.row_count_ += b.num_rows();
    t.bytes_ += b.ByteSize();
  }
  t.offsets_ = std::move(offsets);
  t.batches_ = std::make_shared<std::vector<RowBatch>>(std::move(batches));
  t.sealed_ = true;
  return t;
}

void Table::OpenBatch() {
  RowBatch batch = RowBatch::FromRows(schema_, {}, 0, 0);
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (schema_.column(c).type != DataType::kString) continue;
    // Continue the latest dictionary (a column that fell back to the
    // variant lane has none).
    DictionaryPtr dict;
    for (auto b = batches_->rbegin(); b != batches_->rend() && !dict; ++b) {
      dict = b->column(c).dict();
    }
    batch.column_ptr(c)->MergeDictInto(
        dict != nullptr ? dict : std::make_shared<Dictionary>());
  }
  offsets_.push_back(row_count_);
  batches_->push_back(std::move(batch));
}

std::vector<Row> Table::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(row_count_);
  for (const RowBatch& b : *batches_) {
    for (size_t r = 0; r < b.num_rows(); ++r) rows.push_back(b.RowAt(r));
  }
  return rows;
}

Status Table::AppendRow(const Row& row) {
  if (sealed_ || batches_.use_count() > 1) {
    return Status::InvalidArgument(
        "AppendRow on table " + name_ +
        ": tables built from batches, or whose batches are shared, are "
        "sealed");
  }
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  if (batches_->back().num_rows() >= RowBatch::kDefaultRows) OpenBatch();
  batches_->back().Append(row);
  ++row_count_;
  bytes_ += RowByteSize(row);
  return Status::OK();
}

double Table::AvgRowBytes() const {
  if (row_count_ == 0) return 0.0;
  return static_cast<double>(bytes_) / static_cast<double>(row_count_);
}

Result<Value> Table::Get(size_t row_idx, const std::string& column) const {
  if (row_idx >= row_count_) {
    return Status::OutOfRange("row index out of range");
  }
  auto idx = schema_.IndexOf(column);
  if (!idx) return Status::NotFound("no such column: " + column);
  // Locate the batch covering row_idx (offsets are ascending).
  auto it = std::upper_bound(offsets_.begin(), offsets_.end(), row_idx);
  const size_t b = static_cast<size_t>(it - offsets_.begin()) - 1;
  return (*batches_)[b].column(*idx).GetValue(row_idx - offsets_[b]);
}

std::vector<RowRange> SplitRowsByBlockSize(size_t num_rows,
                                           double avg_row_bytes,
                                           uint64_t block_size_bytes) {
  size_t split_rows = num_rows;
  if (avg_row_bytes > 0 && block_size_bytes > 0) {
    const double per_block =
        static_cast<double>(block_size_bytes) / avg_row_bytes;
    split_rows = per_block < 1.0 ? 1 : static_cast<size_t>(per_block);
  }
  if (split_rows == 0) split_rows = 1;

  std::vector<RowRange> splits;
  if (num_rows == 0) {
    splits.push_back(RowRange{0, 0});
    return splits;
  }
  splits.reserve(num_rows / split_rows + 1);
  for (size_t begin = 0; begin < num_rows; begin += split_rows) {
    splits.push_back(RowRange{begin, std::min(begin + split_rows,
                                              num_rows)});
  }
  return splits;
}

}  // namespace opd::storage
