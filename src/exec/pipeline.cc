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

BatchList::BatchList(std::vector<storage::RowBatch> batches_in)
    : batches(std::make_shared<const std::vector<storage::RowBatch>>(
          std::move(batches_in))) {
  offsets.reserve(batches->size());
  for (const storage::RowBatch& b : *batches) {
    offsets.push_back(num_rows);
    num_rows += b.num_rows();
  }
}

std::vector<storage::RowRange> BatchList::BatchRanges() const {
  std::vector<storage::RowRange> ranges;
  ranges.reserve(size());
  for (size_t b = 0; b < size(); ++b) {
    ranges.push_back({offsets[b], offsets[b] + batch(b).num_rows()});
  }
  return ranges;
}

Status RunGroupingShuffle(
    const PipelineCtx& ctx, const BatchList& in,
    const std::vector<storage::RowRange>& splits, const hash::KeyCodec& codec,
    size_t num_buckets, size_t expected_groups,
    const std::function<Status(size_t, const hash::GroupRoutes&)>& consume,
    GroupingShuffle* out, double* max_task_seconds,
    const std::function<void(const hash::FlatGroupIndex&)>& on_index) {
  using hash::RowRef;
  out->routes.assign(num_buckets, {});

  // Fused map+partition: each producer hashes its split's keys batch-wide
  // straight into its own per-bucket buffer slots; per-row hashes are kept
  // so the reduce side never re-hashes.
  storage::PartitionBuffer<RowRef> buf(splits.size(), num_buckets);
  std::vector<uint64_t> hash_of(in.num_rows);
  auto partition = [&](size_t t) -> Status {
    buf.ReserveProducer(t, splits[t].size());
    in.ForEachPiece(splits[t], [&](size_t b, size_t begin, size_t end) {
      uint64_t* hashes = hash_of.data() + in.offsets[b] + begin;
      hash::HashKeys(in.batch(b), begin, end, codec.cols, hashes);
      for (size_t i = begin; i < end; ++i) {
        const uint64_t h = hashes[i - begin];
        buf.Append(t, num_buckets <= 1 ? 0 : hash::BucketOf(h, num_buckets),
                   RowRef{static_cast<uint32_t>(b), static_cast<uint32_t>(i)});
      }
    });
    return Status::OK();
  };

  // Groups one bucket by its normalized key bytes, then hands the routes to
  // the consumer. A group's key is its first row.
  auto reduce_bucket = [&](size_t b) -> Status {
    hash::GroupRoutes& r = out->routes[b];
    const size_t n = buf.BucketSize(b);
    r.rows.reserve(n);
    r.group_of.reserve(n);
    hash::FlatGroupIndex index;
    index.Reserve(
        expected_groups > 0 ? std::min(n, expected_groups / num_buckets + 1)
                            : n,
        codec.bounded ? codec.width_bound : 0);
    hash::KeyScratch key;
    buf.ForEachInBucket(b, [&](RowRef ref) {
      hash::NormalizeKey(in.batch(ref.batch), ref.idx, codec, &key);
      const auto [id, inserted] = index.InsertOrGet(
          hash_of[in.offsets[ref.batch] + ref.idx], key.data(), key.size());
      if (inserted) r.keys.push_back(ref);
      r.rows.push_back(ref);
      r.group_of.push_back(id);
    });
    if (on_index) on_index(index);
    return consume(b, r);
  };

  OPD_RETURN_NOT_OK(RunShuffle(ctx, splits.size(), partition, num_buckets,
                               reduce_bucket, max_task_seconds));
  out->skew = BufferSkew(buf);
  return Status::OK();
}

std::vector<std::pair<uint32_t, uint32_t>> GroupsInKeyOrder(
    const BatchList& in, const std::vector<size_t>& key_cols,
    const std::vector<hash::GroupRoutes>& routes) {
  std::vector<std::pair<uint32_t, uint32_t>> order;
  size_t num_groups = 0;
  for (const hash::GroupRoutes& r : routes) num_groups += r.keys.size();
  order.reserve(num_groups);
  for (size_t b = 0; b < routes.size(); ++b) {
    for (size_t g = 0; g < routes[b].keys.size(); ++g) {
      order.emplace_back(static_cast<uint32_t>(b), static_cast<uint32_t>(g));
    }
  }
  std::sort(order.begin(), order.end(), [&](const auto& x, const auto& y) {
    const hash::RowRef a = routes[x.first].keys[x.second];
    const hash::RowRef b = routes[y.first].keys[y.second];
    for (size_t c : key_cols) {
      const int cmp = storage::CompareCells(in.batch(a.batch).column(c), a.idx,
                                            in.batch(b.batch).column(c), b.idx);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return order;
}

std::vector<storage::RowBatch> BuildBatches(
    ThreadPool* pool, const storage::Schema& schema, size_t num_rows,
    const std::function<void(size_t, storage::BatchBuilder*)>& fill) {
  constexpr size_t kRows = storage::RowBatch::kDefaultRows;
  std::vector<storage::RowBatch> batches(
      std::max<size_t>(1, (num_rows + kRows - 1) / kRows));
  Status st = ParallelFor(pool, batches.size(), [&](size_t b) {
    const size_t begin = b * kRows, end = std::min(begin + kRows, num_rows);
    storage::BatchBuilder builder(schema, end - begin);
    for (size_t r = begin; r < end; ++r) fill(r, &builder);
    batches[b] = builder.Finish();
    return Status::OK();
  });
  (void)st;  // cannot fail
  return batches;
}

}  // namespace opd::exec
