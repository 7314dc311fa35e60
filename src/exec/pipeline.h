// Morsel-driven pipelined shuffle execution (DESIGN.md "Parallel execution
// model").
//
// A shuffle runs as one wave of fused producer tasks (scan -> operator ->
// partition in a single loop over an input split, writing into a
// storage::PartitionBuffer) plus one consumer task per shuffle bucket. There
// is no phase barrier: each bucket carries a countdown latch initialized to
// the producer count, every finishing producer decrements every bucket's
// latch, and the decrement that reaches zero schedules that bucket's
// consumer immediately — buckets whose inputs are complete reduce while
// other producers are still running.
//
// Determinism contract: every task runs to
// completion, the lowest-index failure wins (producers before consumers),
// and trace span ids are allocated serially before any task starts, so the
// span structure is identical at every thread count.

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

/// Execution context for one pipelined shuffle: the task pool plus the
/// observability hooks. A null trace makes all span work vanish; under a
/// trace every task gets its own span.
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

/// \brief Runs one wave of `n` independent tasks (a map-only pass, or a
/// reduce-only replay) under a `name` phase span, with "<name>:<i>" task
/// spans. Span ids are allocated before the wave, so the span structure is
/// identical at every thread count.
Status RunWave(const PipelineCtx& ctx, const char* name, size_t n,
               const std::function<Status(size_t)>& fn,
               double* max_task_seconds = nullptr);

/// \brief Runs `num_producers` fused producer tasks and, once per bucket's
/// producers have all finished, that bucket's consumer task.
///
/// `num_buckets == 0` degenerates to a map-only pipeline wave (no
/// consumers). Under a trace this opens a "pipeline" phase span (task spans
/// "pipeline:<i>") and, when buckets exist, a "reduce" phase span with one
/// "bucket:<b>" span per consumer.
///
/// \param[out] max_producer_seconds / max_consumer_seconds  wall time of the
///   slowest producer / consumer task (the wave's modeled stragglers).
Status RunPipelinedShuffle(const PipelineCtx& ctx, size_t num_producers,
                           const std::function<Status(size_t)>& producer,
                           size_t num_buckets,
                           const std::function<Status(size_t)>& consumer,
                           double* max_producer_seconds = nullptr,
                           double* max_consumer_seconds = nullptr);

}  // namespace opd::exec

#endif  // OPD_EXEC_PIPELINE_H_
