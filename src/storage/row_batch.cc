#include "storage/row_batch.h"

#include <numeric>

#include "common/hash.h"

namespace opd::storage {

RowBatch RowBatch::FromRows(const Schema& schema, const std::vector<Row>& rows,
                            size_t begin, size_t end) {
  std::vector<ColumnVectorPtr> columns;
  columns.reserve(schema.num_columns());
  for (const Column& col : schema.columns()) {
    columns.push_back(std::make_shared<ColumnVector>(col.type));
    columns.back()->Reserve(end - begin);
  }
  for (size_t r = begin; r < end; ++r) {
    const Row& row = rows[r];
    for (size_t c = 0; c < columns.size(); ++c) columns[c]->Append(row[c]);
  }
  return RowBatch(std::move(columns), end - begin);
}

Row RowBatch::RowAt(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const ColumnVectorPtr& col : columns_) row.push_back(col->GetValue(i));
  return row;
}

uint64_t RowBatch::HashRowAt(size_t i) const {
  uint64_t h = 0xcbf29ce484222325ULL;  // RowHash seed
  for (const ColumnVectorPtr& col : columns_) HashCombine(&h, col->HashAt(i));
  return h;
}

uint64_t RowBatch::HashKeysAt(size_t i, const std::vector<size_t>& cols) const {
  uint64_t h = 0xcbf29ce484222325ULL;  // RowHash seed
  for (size_t c : cols) HashCombine(&h, columns_[c]->HashAt(i));
  return h;
}

void RowBatch::Append(const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c]->Append(row[c]);
  ++num_rows_;
}

RowBatch RowBatch::Project(const std::vector<size_t>& cols) const {
  std::vector<ColumnVectorPtr> out;
  out.reserve(cols.size());
  for (size_t c : cols) out.push_back(columns_[c]);
  return RowBatch(std::move(out), num_rows_);
}

RowBatch RowBatch::Gather(const std::vector<uint32_t>& sel) const {
  if (sel.size() == num_rows_) return *this;  // shares columns, no copy
  std::vector<ColumnVectorPtr> out;
  out.reserve(columns_.size());
  for (const ColumnVectorPtr& src : columns_) {
    out.push_back(src->GatherTo(sel.data(), sel.size()));
  }
  return RowBatch(std::move(out), sel.size());
}

RowBatch RowBatch::Slice(size_t begin, size_t end) const {
  if (begin == 0 && end == num_rows_) return *this;
  std::vector<uint32_t> sel(end - begin);
  std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(begin));
  return Gather(sel);
}

size_t RowBatch::ByteSize() const {
  size_t total = 0;
  for (const ColumnVectorPtr& col : columns_) total += col->ByteSize();
  return total;
}

BatchBuilder::BatchBuilder(const Schema& schema, size_t reserve)
    : remaps_(schema.num_columns()) {
  columns_.reserve(schema.num_columns());
  for (const Column& col : schema.columns()) {
    columns_.push_back(std::make_shared<ColumnVector>(col.type));
    columns_.back()->Reserve(reserve);
  }
}

void BatchBuilder::Append(size_t c, const Value& v) {
  ColumnVector& col = *columns_.at(c);
  col.Append(v);
  bytes_ += col.CellByteSize(col.size() - 1);
}

void BatchBuilder::AppendFrom(size_t c, const ColumnVector& src, size_t i) {
  ColumnVector& col = *columns_.at(c);
  DictRemap* remap = nullptr;
  if (src.dict() != nullptr && src.dict() != col.dict()) {
    remap = &remaps_[c][src.dict().get()];
  }
  col.AppendFrom(src, i, remap);
  bytes_ += col.CellByteSize(col.size() - 1);
}

RowBatch BatchBuilder::Finish() {
  const size_t n = num_rows();
  return RowBatch(std::move(columns_), n);
}

}  // namespace opd::storage
