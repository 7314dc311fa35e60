#include "exec/pipeline.h"

#include <algorithm>

namespace opd::exec {

size_t DeriveReduceTasks(int requested, uint64_t shuffle_bytes,
                         uint64_t block_size_bytes) {
  if (requested > 0) return static_cast<size_t>(requested);
  if (block_size_bytes == 0) return 1;
  return std::min<uint64_t>(shuffle_bytes / block_size_bytes + 1, 64);
}

Status RunWave(const PipelineCtx& ctx, const char* name, size_t n,
               const std::function<Status(size_t)>& fn,
               double* max_task_seconds) {
  if (ctx.tasks != nullptr) *ctx.tasks += n;
  if (ctx.trace == nullptr) return ParallelFor(ctx.pool, n, fn, max_task_seconds);
  obs::TraceSpan span(ctx.trace, ctx.parent_span, name, "phase");
  span.AddArg("tasks", static_cast<uint64_t>(n));
  return obs::TracedParallelFor(ctx.pool, n, ctx.trace, span.id(), name, fn,
                                max_task_seconds);
}

Status RunShuffle(const PipelineCtx& ctx, size_t num_producers,
                  const std::function<Status(size_t)>& producer,
                  size_t num_buckets,
                  const std::function<Status(size_t)>& consumer,
                  double* max_task_seconds) {
  *max_task_seconds = 0;
  if (num_producers == 0) {
    if (ctx.tasks != nullptr) *ctx.tasks += num_buckets;
    return Status::OK();
  }
  double producer_s = 0, consumer_s = 0;
  OPD_RETURN_NOT_OK(
      RunWave(ctx, "pipeline", num_producers, producer, &producer_s));
  Status st = RunWave(ctx, "reduce", num_buckets, consumer, &consumer_s);
  *max_task_seconds = producer_s + consumer_s;
  return st;
}

}  // namespace opd::exec
