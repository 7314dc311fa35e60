#include "exec/stats_collector.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/rng.h"

namespace opd::exec {

catalog::TableStats StatsCollector::Collect(const storage::Table& table,
                                            ThreadPool* pool) const {
  catalog::TableStats stats;
  // Exact from job counters.
  stats.rows = static_cast<double>(table.num_rows());
  stats.avg_row_bytes = table.AvgRowBytes();
  if (table.num_rows() == 0) return stats;

  // Draw the sample serially from the seeded RNG, in row order: the sampled
  // set is a function of (seed, table) only, never of threading. Only the
  // sampled rows are built from the batches.
  Rng rng(seed_ ^ table.num_rows());
  std::vector<storage::Row> sample;
  sample.reserve(static_cast<size_t>(
      fraction_ * static_cast<double>(table.num_rows()) + 1));
  for (const storage::RowBatch& batch : *table.ToBatches()) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      if (rng.Bernoulli(fraction_)) sample.push_back(batch.RowAt(r));
    }
  }
  if (sample.empty()) {
    // Degenerate sample: fall back to scanning the first row only.
    storage::Row first;
    for (const storage::Column& col : table.schema().columns()) {
      first.push_back(*table.Get(0, col.name));
    }
    sample.push_back(std::move(first));
  }
  const size_t sampled = sample.size();

  // Per-column sketches are independent — one task per column.
  const auto& schema = table.schema();
  std::vector<std::set<uint64_t>> hashes(schema.num_columns());
  std::vector<double> widths(schema.num_columns(), 0);
  Status st = ParallelFor(pool, schema.num_columns(), [&](size_t c) {
    for (const storage::Row& row : sample) {
      hashes[c].insert(row[c].Hash());
      widths[c] += static_cast<double>(row[c].ByteSize());
    }
    return Status::OK();
  });
  (void)st;  // the column tasks cannot fail
  const double n = stats.rows;
  const double sn = static_cast<double>(sampled);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const std::string& name = schema.column(c).name;
    const double ds = static_cast<double>(hashes[c].size());
    // Saturation heuristic: if the sample looks mostly-unique, scale to the
    // full table; if it saturated at few values, take it as the cardinality.
    double est = ds >= 0.6 * sn ? ds * (n / sn) : ds;
    stats.distinct[name] = std::min(est, n);
    stats.col_bytes[name] = widths[c] / sn;
  }
  return stats;
}

double StatsCollector::JobTime(const storage::Table& table,
                               const optimizer::CostModel& model) const {
  // A map-only pass over the sampled fraction of the data; no shuffle, a
  // metadata-sized output. As a lightweight piggybacked task it pays only a
  // fraction of a full MR job's startup latency.
  const double bytes = static_cast<double>(table.ByteSize()) * fraction_;
  plan::JobCostInfo cost = model.JobCost(bytes, 0.0, 1024.0, 1.0, 1.0, false);
  return cost.total_s - 0.875 * cost.latency_s;
}

}  // namespace opd::exec
