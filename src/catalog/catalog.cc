#include "catalog/catalog.h"

#include <set>

namespace opd::catalog {

double TableStats::DistinctOr(const std::string& column,
                              double fallback) const {
  auto it = distinct.find(column);
  return it == distinct.end() ? fallback : it->second;
}

double TableStats::ColBytesOr(const std::string& column,
                              double fallback) const {
  auto it = col_bytes.find(column);
  return it == col_bytes.end() ? fallback : it->second;
}

TableStats ComputeExactStats(const storage::Table& table) {
  TableStats stats;
  stats.rows = static_cast<double>(table.num_rows());
  stats.avg_row_bytes = table.AvgRowBytes();
  const auto& schema = table.schema();
  const auto batches = table.ToBatches();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    // HashAt / CellByteSize equal Value::Hash / ByteSize of the cell.
    std::set<uint64_t> hashes;
    size_t width = 0;
    for (const storage::RowBatch& batch : *batches) {
      const storage::ColumnVector& col = batch.column(c);
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        hashes.insert(col.HashAt(r));
        width += col.CellByteSize(r);
      }
    }
    const std::string& name = schema.column(c).name;
    stats.distinct[name] = static_cast<double>(hashes.size());
    stats.col_bytes[name] =
        table.num_rows() == 0
            ? 0.0
            : static_cast<double>(width) / static_cast<double>(table.num_rows());
  }
  return stats;
}

Status Catalog::RegisterBase(const storage::TablePtr& table,
                             const std::vector<std::string>& key_columns,
                             storage::Dfs* dfs) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  const std::string& name = table->name();
  if (name.empty()) return Status::InvalidArgument("table has no name");
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("base table exists: " + name);
  }
  for (const std::string& k : key_columns) {
    if (!table->schema().Has(k)) {
      return Status::InvalidArgument("key column " + k + " not in schema of " +
                                     name);
    }
  }
  BaseTableEntry entry;
  entry.name = name;
  entry.schema = table->schema();
  for (const auto& col : entry.schema.columns()) {
    entry.attrs.push_back(afk::Attribute::Base(name, col.name, col.type));
  }
  entry.afk = afk::Afk::ForBaseRelation(name, entry.attrs, key_columns);
  entry.dfs_path = "base/" + name;
  entry.stats = ComputeExactStats(*table);
  OPD_RETURN_NOT_OK(dfs->Write(entry.dfs_path, table));
  tables_.emplace(name, std::move(entry));
  return Status::OK();
}

Result<const BaseTableEntry*> Catalog::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such base table: " + name);
  }
  return &it->second;
}

bool Catalog::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Catalog::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace opd::catalog
