#include "exec/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>
#include <vector>

namespace opd::exec {

namespace {

// Runs one task body, converting any escaped exception into a Status.
Status RunTaskGuarded(const std::function<Status(size_t)>& fn, size_t i) {
  try {
    return fn(i);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw a non-std exception");
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

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

Status RunPipelinedShuffle(const PipelineCtx& ctx, size_t num_producers,
                           const std::function<Status(size_t)>& producer,
                           size_t num_buckets,
                           const std::function<Status(size_t)>& consumer,
                           double* max_producer_seconds,
                           double* max_consumer_seconds) {
  if (max_producer_seconds != nullptr) *max_producer_seconds = 0;
  if (max_consumer_seconds != nullptr) *max_consumer_seconds = 0;
  if (ctx.tasks != nullptr) *ctx.tasks += num_producers + num_buckets;
  if (num_producers == 0) return Status::OK();

  // Allocate the whole span structure up front, on the serial path: phase
  // spans first, then the producer and consumer task-id blocks. Ids never
  // depend on task interleaving, so the structure is identical at every
  // thread count (the determinism contract in obs/trace.h).
  obs::Trace* trace = ctx.trace;
  obs::TraceSpan producer_span;
  obs::TraceSpan consumer_span;
  uint64_t producer_ids = 0;
  uint64_t consumer_ids = 0;
  if (trace != nullptr) {
    producer_span =
        obs::TraceSpan(trace, ctx.parent_span, "pipeline", "phase");
    producer_span.AddArg("tasks", static_cast<uint64_t>(num_producers));
    producer_ids = trace->AllocSpanIds(num_producers);
    if (num_buckets > 0) {
      consumer_span =
          obs::TraceSpan(trace, ctx.parent_span, "reduce", "phase");
      consumer_span.AddArg("tasks", static_cast<uint64_t>(num_buckets));
      consumer_ids = trace->AllocSpanIds(num_buckets);
    }
  }

  // Per-task results. Statuses are written only on failure and times once
  // per task, so these shared arrays stay cold during the hot loops.
  std::vector<Status> producer_status(num_producers, Status::OK());
  std::vector<Status> consumer_status(num_buckets, Status::OK());
  std::vector<double> producer_s(num_producers, 0.0);
  std::vector<double> consumer_s(num_buckets, 0.0);

  auto run_producer = [&](size_t p) {
    obs::TraceSpan span;
    if (trace != nullptr) {
      span = obs::TraceSpan::Adopt(trace, producer_ids + p,
                                   producer_span.id(),
                                   "pipeline:" + std::to_string(p), "task",
                                   static_cast<uint32_t>(1 + p));
    }
    const auto start = std::chrono::steady_clock::now();
    Status st = RunTaskGuarded(producer, p);
    producer_s[p] = SecondsSince(start);
    if (!st.ok()) producer_status[p] = std::move(st);
  };
  auto run_consumer = [&](size_t b) {
    obs::TraceSpan span;
    if (trace != nullptr) {
      span = obs::TraceSpan::Adopt(trace, consumer_ids + b,
                                   consumer_span.id(),
                                   "bucket:" + std::to_string(b), "task",
                                   static_cast<uint32_t>(1 + b));
    }
    const auto start = std::chrono::steady_clock::now();
    Status st = RunTaskGuarded(consumer, b);
    consumer_s[b] = SecondsSince(start);
    if (!st.ok()) consumer_status[b] = std::move(st);
  };

  ThreadPool* pool = ctx.pool;
  if (pool == nullptr || pool->num_threads() <= 1) {
    // Inline execution: producers in order, then buckets in order — the
    // reference order every parallel schedule must be indistinguishable
    // from (modulo durations).
    for (size_t p = 0; p < num_producers; ++p) run_producer(p);
    producer_span.End();
    for (size_t b = 0; b < num_buckets; ++b) run_consumer(b);
    consumer_span.End();
  } else {
    // Latch-scheduled execution. bucket_remaining[b] counts unfinished
    // producers; the producer whose decrement reaches zero hands bucket b
    // to the pool right away (its acq_rel RMW orders every producer's
    // buffer writes before the consumer runs). `done` counts EVERY task —
    // producers and consumers — so this frame provably outlives all of
    // them: a consumer scheduled mid-way through the last producer's bucket
    // loop must not release the waiter while that producer still reads
    // bucket_remaining. The caller helps drain the pool while waiting, so
    // no thread idles and nested pipelines cannot deadlock.
    std::unique_ptr<std::atomic<size_t>[]> bucket_remaining;
    if (num_buckets > 0) {
      bucket_remaining =
          std::make_unique<std::atomic<size_t>[]>(num_buckets);
      for (size_t b = 0; b < num_buckets; ++b) {
        bucket_remaining[b].store(num_producers,
                                  std::memory_order_relaxed);
      }
    }
    CountdownLatch done(num_producers + num_buckets);
    auto consumer_task = [&](size_t b) {
      run_consumer(b);
      done.CountDown();  // last action: see CountdownLatch destruction note
    };
    auto producer_task = [&](size_t p) {
      run_producer(p);
      for (size_t b = 0; b < num_buckets; ++b) {
        if (bucket_remaining[b].fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          pool->Submit([&consumer_task, b] { consumer_task(b); });
        }
      }
      done.CountDown();  // last action: see CountdownLatch destruction note
    };
    for (size_t p = 0; p < num_producers; ++p) {
      pool->Submit([&producer_task, p] { producer_task(p); });
    }
    done.Wait(pool);
    producer_span.End();
    consumer_span.End();
  }

  if (max_producer_seconds != nullptr) {
    for (double s : producer_s) {
      *max_producer_seconds = std::max(*max_producer_seconds, s);
    }
  }
  if (max_consumer_seconds != nullptr) {
    for (double s : consumer_s) {
      *max_consumer_seconds = std::max(*max_consumer_seconds, s);
    }
  }
  for (const Status& st : producer_status) {
    if (!st.ok()) return st;
  }
  for (const Status& st : consumer_status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace opd::exec
