// Shuffle execution as MapReduce task waves (DESIGN.md "Parallel execution
// model").
//
// A shuffle runs as two waves: fused producer tasks (scan -> operator ->
// partition in a single loop over an input split, writing into a
// storage::PartitionBuffer), then, once every producer has finished, one
// consumer task per shuffle bucket. That is Hadoop's map -> reduce barrier:
// any producer may write to any bucket, so no bucket is complete before the
// last producer finishes.
//
// Determinism contract: every task of a wave runs to completion, the
// lowest-index failure wins (producers before consumers), and trace span
// ids are allocated serially before each wave starts, so the span
// structure is identical at every thread count.

#ifndef OPD_EXEC_PIPELINE_H_
#define OPD_EXEC_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "storage/value.h"

namespace opd::exec {

/// Execution context for the task waves of one job or UDF stage: the task
/// pool plus the observability hooks. A null trace makes all span work
/// vanish; under a trace every task gets its own span.
struct PipelineCtx {
  ThreadPool* pool = nullptr;  // null => run every task inline
  obs::Trace* trace = nullptr;
  uint64_t parent_span = 0;  // job (or UDF stage) span
  size_t* tasks = nullptr;  // accumulates producer + consumer task counts
};

/// Lexicographic order on rows (shorter rows first on a common prefix): the
/// key order in which shuffles merge their groups, so outputs do not depend
/// on bucket or thread counts.
struct RowLess {
  bool operator()(const storage::Row& a, const storage::Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  }
};

/// Reduce tasks (shuffle buckets) of one shuffle: `requested` when positive,
/// else one per block of shuffle input — the map-side split rule — capped
/// at 64 so tiny jobs don't pay per-bucket overhead. Derived from bytes
/// only, so the bucketing is thread-count invariant.
size_t DeriveReduceTasks(int requested, uint64_t shuffle_bytes,
                         uint64_t block_size_bytes);

/// \brief Runs one wave of `n` independent tasks under a `name` phase
/// span, with "<name>:<i>" task spans. Span ids are allocated before the
/// wave, so the span structure is identical at every thread count.
Status RunWave(const PipelineCtx& ctx, const char* name, size_t n,
               const std::function<Status(size_t)>& fn,
               double* max_task_seconds = nullptr);

/// \brief Runs one shuffle: a "pipeline" wave of `num_producers` producer
/// tasks, then, if it succeeded, a "reduce" wave of `num_buckets` consumer
/// tasks.
///
/// With no producers nothing runs and no span opens; the buckets still
/// count as tasks.
///
/// \param[out] max_task_seconds  the slowest producer's plus the slowest
///   consumer's wall time (the shuffle's modeled stragglers).
Status RunShuffle(const PipelineCtx& ctx, size_t num_producers,
                  const std::function<Status(size_t)>& producer,
                  size_t num_buckets,
                  const std::function<Status(size_t)>& consumer,
                  double* max_task_seconds);

}  // namespace opd::exec

#endif  // OPD_EXEC_PIPELINE_H_
