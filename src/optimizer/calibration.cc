#include "optimizer/calibration.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"
#include "exec/udf_exec.h"

namespace opd::optimizer {

storage::Table SampleTable(const storage::Table& table, double fraction,
                           uint64_t seed) {
  storage::Table sample(table.name() + "_sample", table.schema());
  Rng rng(seed);
  const auto batches = table.ToBatches();
  for (const storage::RowBatch& batch : *batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      if (rng.Bernoulli(fraction)) (void)sample.AppendRow(batch.RowAt(r));
    }
  }
  // Guarantee a non-empty sample for tiny inputs: the first rows.
  if (sample.num_rows() == 0) {
    size_t take = std::min<size_t>(table.num_rows(), 16);
    for (const storage::RowBatch& batch : *batches) {
      for (size_t r = 0; r < batch.num_rows() && take > 0; ++r, --take) {
        (void)sample.AppendRow(batch.RowAt(r));
      }
    }
  }
  return sample;
}

double MeasureBaselineThroughput(const storage::Table& table) {
  auto start = std::chrono::steady_clock::now();
  uint64_t bytes = 0;
  // A trivial type-1 operation: copy rows and tally widths.
  for (const storage::RowBatch& batch : *table.ToBatches()) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      bytes += storage::RowByteSize(batch.RowAt(r));
    }
  }
  auto end = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(end - start).count();
  if (secs <= 0) secs = 1e-9;
  return static_cast<double>(std::max<uint64_t>(bytes, 1)) / secs;
}

Status CalibrateUdf(udf::UdfDefinition* udf, const storage::Table& input,
                    const udf::Params& params,
                    const CalibrationOptions& options) {
  storage::Table sample =
      SampleTable(input, options.sample_fraction, options.seed);
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("cannot calibrate on empty input: " +
                                   udf->name);
  }
  const double baseline_bps = MeasureBaselineThroughput(sample);

  storage::Table out;
  std::vector<exec::LfStageRun> stages;
  OPD_RETURN_NOT_OK(
      exec::RunLocalFunctions(*udf, sample, params, &out, &stages));

  auto clamp = [&](double s) {
    return std::clamp(s, options.min_scalar, options.max_scalar);
  };

  double map_seconds = 0, reduce_seconds = 0;
  uint64_t map_bytes = 0, reduce_bytes = 0;
  for (const exec::LfStageRun& run : stages) {
    if (run.kind == udf::LfKind::kMap) {
      map_seconds += run.wall_seconds;
      map_bytes += run.in_bytes;
    } else {
      reduce_seconds += run.wall_seconds;
      reduce_bytes += run.in_bytes;
    }
  }
  if (map_bytes > 0 && map_seconds > 0) {
    double udf_bps = static_cast<double>(map_bytes) / map_seconds;
    udf->map_scalar = clamp(baseline_bps / udf_bps);
  } else {
    udf->map_scalar = 1.0;
  }
  if (reduce_bytes > 0 && reduce_seconds > 0) {
    double udf_bps = static_cast<double>(reduce_bytes) / reduce_seconds;
    udf->reduce_scalar = clamp(baseline_bps / udf_bps);
  } else {
    udf->reduce_scalar = 1.0;
  }
  udf->calibrated_expansion =
      static_cast<double>(out.num_rows()) /
      static_cast<double>(std::max<size_t>(sample.num_rows(), 1));
  return Status::OK();
}

}  // namespace opd::optimizer
