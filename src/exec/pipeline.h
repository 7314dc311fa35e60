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
//
// Grouping (GROUP BY, and every reduce stage of a UDF: the paper's type-3
// "group tuples on a common key") is one shuffle, RunGroupingShuffle: its
// reduce tasks group their buckets into GroupRoutes over the input's
// columns, and GroupsInKeyOrder merges the groups in global key order.

#ifndef OPD_EXEC_PIPELINE_H_
#define OPD_EXEC_PIPELINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/hash/flat_table.h"
#include "exec/hash/hash_kernels.h"
#include "exec/hash/recycler.h"
#include "obs/trace.h"
#include "storage/partition_buffer.h"
#include "storage/table.h"

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

/// A table's batches plus their flat row numbering.
struct BatchList {
  explicit BatchList(const storage::Table& t)
      : batches(t.ToBatches()),
        offsets(t.batch_offsets()),
        num_rows(t.num_rows()) {}
  explicit BatchList(std::vector<storage::RowBatch> batches);

  std::shared_ptr<const std::vector<storage::RowBatch>> batches;
  std::vector<size_t> offsets;  // global row index of each batch's first row
  size_t num_rows = 0;

  size_t size() const { return batches->size(); }
  const storage::RowBatch& batch(size_t b) const { return (*batches)[b]; }

  /// One range per batch: the producer splits of a job that maps batches.
  std::vector<storage::RowRange> BatchRanges() const;

  /// Calls fn(b, begin, end) for each piece [begin, end) of batch b that
  /// global row range `range` covers, in row order.
  template <typename Fn>
  void ForEachPiece(const storage::RowRange& range, Fn&& fn) const {
    if (range.size() == 0) return;
    // The last batch starting at or before range.begin covers it.
    auto first = std::upper_bound(offsets.begin(), offsets.end(), range.begin);
    for (size_t b = static_cast<size_t>(first - offsets.begin()) - 1,
                r = range.begin;
         r < range.end; ++b) {
      const size_t end = std::min(range.end, offsets[b] + batch(b).num_rows());
      if (end <= r) continue;  // an empty batch
      fn(b, r - offsets[b], end - offsets[b]);
      r = end;
    }
  }
};

/// Ratio of the fullest shuffle bucket to the mean bucket (1.0 = perfectly
/// balanced); negative when there is nothing to measure.
template <typename T>
double BufferSkew(const storage::PartitionBuffer<T>& buf) {
  size_t total = 0, largest = 0;
  for (size_t b = 0; b < buf.num_buckets(); ++b) {
    const size_t s = buf.BucketSize(b);
    total += s;
    largest = std::max(largest, s);
  }
  if (total == 0) return -1.0;
  return static_cast<double>(largest) *
         static_cast<double>(buf.num_buckets()) / static_cast<double>(total);
}

/// What one grouping shuffle built.
struct GroupingShuffle {
  std::vector<hash::GroupRoutes> routes;  // one per bucket
  double skew = -1.0;                     // see BufferSkew
};

/// \brief Groups the rows of `in` on `codec.cols` with one shuffle (see
/// RunShuffle): one producer per range of `splits` (ascending, contiguous
/// global row ranges) hashes the key columns into per-bucket buffers; then
/// reduce task b groups bucket b into `out->routes[b]`, hands its group
/// index to `on_index` (when set) and calls `consume(b, routes)`.
///
/// `expected_groups` (0 = unknown) pre-sizes the buckets' group indices.
Status RunGroupingShuffle(
    const PipelineCtx& ctx, const BatchList& in,
    const std::vector<storage::RowRange>& splits, const hash::KeyCodec& codec,
    size_t num_buckets, size_t expected_groups,
    const std::function<Status(size_t, const hash::GroupRoutes&)>& consume,
    GroupingShuffle* out, double* max_task_seconds,
    const std::function<void(const hash::FlatGroupIndex&)>& on_index = {});

/// (bucket, group id) of every group of `routes`, grouped over `in` on
/// `key_cols`, in global key order (lexicographic on the groups' key cells
/// under Value's order, compared in their columns): the order in which
/// grouping operators emit, whatever the bucket or thread count.
std::vector<std::pair<uint32_t, uint32_t>> GroupsInKeyOrder(
    const BatchList& in, const std::vector<size_t>& key_cols,
    const std::vector<hash::GroupRoutes>& routes);

/// \brief Builds `num_rows` output rows of `schema` straight into columns,
/// cut into batches of RowBatch::kDefaultRows rows (one empty batch when
/// there are none): the layout Table::AppendRow gives.
///
/// `fill(r, builder)` appends output row r's cells, one to each column;
/// the batches are built concurrently on `pool` (null: inline), each in
/// ascending row order.
std::vector<storage::RowBatch> BuildBatches(
    ThreadPool* pool, const storage::Schema& schema, size_t num_rows,
    const std::function<void(size_t, storage::BatchBuilder*)>& fill);

}  // namespace opd::exec

#endif  // OPD_EXEC_PIPELINE_H_
