// Statistics collection for materialized views (Section 2.1): "for each view
// stored, we collect statistics by running a lightweight Map job that samples
// the view's data".

#ifndef OPD_EXEC_STATS_COLLECTOR_H_
#define OPD_EXEC_STATS_COLLECTOR_H_

#include "catalog/catalog.h"
#include "optimizer/cost_model.h"
#include "storage/table.h"

namespace opd::exec {

/// \brief Samples a table and estimates its statistics.
class StatsCollector {
 public:
  /// \param sample_fraction fraction of rows sampled by the stats Map job
  explicit StatsCollector(double sample_fraction = 0.05, uint64_t seed = 42)
      : fraction_(sample_fraction), seed_(seed) {}

  /// Estimates stats from a deterministic sample. The row count and byte
  /// size come from job counters (exact); per-column distincts and widths are
  /// estimated from the sample, drawn serially from the seeded RNG. The
  /// sketches read the sampled cells' hashes and widths from the columns.
  catalog::TableStats Collect(const storage::Table& table) const;

  /// Modeled time of the sampling Map job under `model`.
  double JobTime(const storage::Table& table,
                 const optimizer::CostModel& model) const;

  double fraction() const { return fraction_; }

 private:
  double fraction_;
  uint64_t seed_;
};

}  // namespace opd::exec

#endif  // OPD_EXEC_STATS_COLLECTOR_H_
