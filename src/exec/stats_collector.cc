#include "exec/stats_collector.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace opd::exec {

catalog::TableStats StatsCollector::Collect(
    const storage::Table& table) const {
  catalog::TableStats stats;
  // Exact from job counters.
  stats.rows = static_cast<double>(table.num_rows());
  stats.avg_row_bytes = table.AvgRowBytes();
  if (table.num_rows() == 0) return stats;

  // Draw the sample serially from the seeded RNG, in row order: the sampled
  // set is a function of (seed, table) only, never of threading. The sample
  // is (batch, row) positions; the sketches read the columns there.
  Rng rng(seed_ ^ table.num_rows());
  const auto batches = table.ToBatches();
  std::vector<std::pair<uint32_t, uint32_t>> sample;
  sample.reserve(static_cast<size_t>(
      fraction_ * static_cast<double>(table.num_rows()) + 1));
  for (size_t b = 0; b < batches->size(); ++b) {
    for (size_t r = 0; r < (*batches)[b].num_rows(); ++r) {
      if (rng.Bernoulli(fraction_)) {
        sample.emplace_back(static_cast<uint32_t>(b), static_cast<uint32_t>(r));
      }
    }
  }
  if (sample.empty()) {
    // Degenerate sample: fall back to scanning the first row only.
    size_t b = 0;
    while ((*batches)[b].num_rows() == 0) ++b;
    sample.emplace_back(static_cast<uint32_t>(b), 0);
  }
  const size_t sampled = sample.size();

  // Per column: distinct cell hashes (sort + unique) and the width sum, in
  // sample order. HashAt / CellByteSize equal Value::Hash / ByteSize.
  const auto& schema = table.schema();
  const double n = stats.rows;
  const double sn = static_cast<double>(sampled);
  std::vector<uint64_t> hashes(sampled);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    double width = 0;
    for (size_t k = 0; k < sampled; ++k) {
      const auto [b, r] = sample[k];
      const storage::ColumnVector& col = (*batches)[b].column(c);
      hashes[k] = col.HashAt(r);
      width += static_cast<double>(col.CellByteSize(r));
    }
    std::sort(hashes.begin(), hashes.end());
    const double ds = static_cast<double>(
        std::unique(hashes.begin(), hashes.end()) - hashes.begin());
    // Saturation heuristic: if the sample looks mostly-unique, scale to the
    // full table; if it saturated at few values, take it as the cardinality.
    double est = ds >= 0.6 * sn ? ds * (n / sn) : ds;
    const std::string& name = schema.column(c).name;
    stats.distinct[name] = std::min(est, n);
    stats.col_bytes[name] = width / sn;
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
