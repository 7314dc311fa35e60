// Executes a UDF's local-function pipeline over real data, mirroring the MR
// runtime: map functions run over the column batches of each map task's
// split; reduce stages group through GROUP BY's shuffle, and each reduce
// function receives one key group of rows at a time.

#ifndef OPD_EXEC_UDF_EXEC_H_
#define OPD_EXEC_UDF_EXEC_H_

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "udf/udf.h"

namespace opd::exec {

/// Per-stage execution record (used for calibration and shuffle accounting).
struct LfStageRun {
  std::string lf_name;
  udf::LfKind kind = udf::LfKind::kMap;
  uint64_t in_bytes = 0;
  uint64_t out_bytes = 0;
  uint64_t in_rows = 0;
  uint64_t out_rows = 0;
  double wall_seconds = 0;  // real CPU wall time of the user code
  double max_task_seconds = 0;  // slowest task of this stage's wave
};

/// How a local-function pipeline is parallelized. The defaults (null pool)
/// run serially; the engine passes its pool and the DFS block size. Every
/// run of consecutive map stages fuses into one task per split that passes
/// the split's batch slices through each stage in turn, and a reduce stage
/// runs as a partition wave and then a reduce wave (RunGroupingShuffle).
/// Task granularity never changes results — stage outputs are merged in a
/// deterministic order.
struct UdfExecOptions {
  ThreadPool* pool = nullptr;     // null => run tasks inline
  uint64_t block_size_bytes = 64 * 1024;  // map split size (Dfs default)
  int num_reduce_tasks = 0;       // 0 => derived from stage input size
  /// Tracing hooks (see obs/trace.h): each fused map run and each reduce
  /// stage opens a "stage:<name>" span under `parent_span`, with phase and
  /// task spans. Null trace = no overhead.
  obs::Trace* trace = nullptr;
  uint64_t parent_span = 0;
  /// Optional accumulator for the number of tasks launched across stages.
  size_t* tasks = nullptr;
};

/// \brief Runs all local functions of `udf` over `input`.
///
/// When the last stage is a map, `output` is the map tasks' batches in
/// input order: pass-through columns shared with (or gathered from) `input`,
/// which is never modified, and each newly built string column on one
/// dictionary. After a reduce stage it is built from the reduce's rows.
///
/// \param[out] output  the final stage's output table (named later by caller)
/// \param[out] stages  optional per-stage accounting
Status RunLocalFunctions(const udf::UdfDefinition& udf,
                         const storage::Table& input,
                         const udf::Params& params, storage::Table* output,
                         std::vector<LfStageRun>* stages = nullptr,
                         const UdfExecOptions& exec_options = {});

}  // namespace opd::exec

#endif  // OPD_EXEC_UDF_EXEC_H_
