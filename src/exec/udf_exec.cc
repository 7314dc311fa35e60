#include "exec/udf_exec.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "exec/hash/flat_table.h"
#include "exec/hash/hash_kernels.h"
#include "exec/pipeline.h"
#include "storage/partition_buffer.h"

namespace opd::exec {

using storage::Row;
using storage::RowRange;
using storage::Schema;
using storage::Table;

namespace {

// Task pool + tracing hooks for the waves of one stage.
PipelineCtx StageCtx(const UdfExecOptions& opts, uint64_t stage_span) {
  return PipelineCtx{opts.pool, opts.trace, stage_span, opts.tasks};
}

// One key group gathered during the shuffle, and what the reduce call over
// it emitted. Keeping outputs attached to their key lets the merge step
// re-establish the global key order independent of bucket/thread counts.
struct ReduceGroup {
  Row key;
  std::vector<Row> rows;      // shuffle input, in original row order
  std::vector<Row> emitted;   // reduce_fn output for this group
};

// Runs one reduce local function: hash-partition rows by key into reduce
// buckets, group and reduce each bucket as one task, then merge the groups'
// outputs in global key order — the same order the previous ordered-map
// implementation produced, regardless of bucket or thread counts.
Status RunReduceStage(const udf::LocalFunction& lf, const udf::LfContext& ctx,
                      const Schema& in_schema, std::vector<Row>* rows,
                      uint64_t in_bytes, const UdfExecOptions& opts,
                      uint64_t stage_span, std::vector<Row>* out,
                      double* max_task_seconds) {
  std::vector<size_t> key_idx;
  for (const std::string& key : lf.group_keys) {
    auto idx = in_schema.IndexOf(key);
    if (!idx) {
      return Status::InvalidArgument("reduce key not in schema: " + key);
    }
    key_idx.push_back(*idx);
  }

  const size_t n = rows->size();
  const size_t num_buckets =
      DeriveReduceTasks(opts.num_reduce_tasks, in_bytes, opts.block_size_bytes);

  // Per-row key hashes are computed once during partitioning and kept
  // here, so grouping never re-hashes a key.
  std::vector<uint64_t> hash_of(n);

  // Fused partition: each producer hashes its split's keys straight into
  // its own per-bucket buffer slots (no global scatter); the reduce wave
  // starts once every producer has finished.
  const double avg_row_bytes =
      n == 0 ? 0.0 : static_cast<double>(in_bytes) / static_cast<double>(n);
  const std::vector<RowRange> splits = storage::SplitRowsByBlockSize(
      n, avg_row_bytes, opts.block_size_bytes);
  storage::PartitionBuffer<size_t> buf(splits.size(), num_buckets);
  auto partition = [&](size_t t) -> Status {
    const RowRange& split = splits[t];
    buf.ReserveProducer(t, split.size());
    for (size_t r = split.begin; r < split.end; ++r) {
      const uint64_t h = hash::FlatRowKeyHash((*rows)[r], key_idx);
      hash_of[r] = h;
      buf.Append(t, num_buckets <= 1 ? 0 : hash::BucketOf(h, num_buckets), r);
    }
    return Status::OK();
  };

  // Grouping + reduce of one bucket. The bucket yields its row indices in
  // original row order, so per-key input order — and therefore the reduce
  // function's view of each group — is schedule-independent. Rows are moved
  // out of the shared vector; buckets partition the index space, so
  // concurrent consumers touch disjoint rows.
  std::vector<std::vector<ReduceGroup>> bucket_groups(num_buckets);
  auto reduce_bucket = [&](size_t b) -> Status {
    std::vector<ReduceGroup>& groups = bucket_groups[b];
    hash::FlatGroupIndex group_index;
    group_index.Reserve(buf.BucketSize(b), 0);
    hash::KeyScratch key;
    buf.ForEachInBucket(b, [&](size_t r) {
      Row& row = (*rows)[r];
      hash::NormalizeKeyRow(row, key_idx, &key);
      auto [id, inserted] =
          group_index.InsertOrGet(hash_of[r], key.data(), key.size());
      if (inserted) {
        groups.emplace_back();
        groups.back().key.reserve(key_idx.size());
        for (size_t i : key_idx) groups.back().key.push_back(row[i]);
      }
      groups[id].rows.push_back(std::move(row));
    });
    std::sort(groups.begin(), groups.end(),
              [](const ReduceGroup& a, const ReduceGroup& g) {
                return RowLess()(a.key, g.key);
              });
    for (ReduceGroup& g : groups) {
      lf.reduce_fn(g.rows, ctx, &g.emitted);
      g.rows.clear();
    }
    return Status::OK();
  };

  OPD_RETURN_NOT_OK(RunShuffle(StageCtx(opts, stage_span), splits.size(),
                               partition, num_buckets, reduce_bucket,
                               max_task_seconds));

  // Deterministic merge: emit every group's output in global key order
  // (buckets are already key-sorted; merge them by key).
  std::vector<ReduceGroup*> ordered;
  size_t num_groups = 0, total_rows = 0;
  for (auto& groups : bucket_groups) num_groups += groups.size();
  ordered.reserve(num_groups);
  for (auto& groups : bucket_groups) {
    for (ReduceGroup& g : groups) {
      ordered.push_back(&g);
      total_rows += g.emitted.size();
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ReduceGroup* a, const ReduceGroup* b) {
              return RowLess()(a->key, b->key);
            });
  out->reserve(out->size() + total_rows);
  for (ReduceGroup* g : ordered) {
    for (Row& r : g->emitted) out->push_back(std::move(r));
  }
  return Status::OK();
}

// Checks one emitted row against the stage's output schema (a cheap sanity
// check on user code).
Status CheckArity(const udf::LocalFunction& lf, const Row& r,
                  const Schema& out_schema) {
  if (r.size() == out_schema.num_columns()) return Status::OK();
  return Status::Internal("local function " + lf.name +
                          " emitted row of arity " + std::to_string(r.size()) +
                          ", schema has " +
                          std::to_string(out_schema.num_columns()));
}

// Calls fn(row) for the rows of `range` of `table`, in order, building each
// row from its batch. Map tasks read their own split this way, so a UDF
// never keeps a row copy of its (shared) input table.
template <typename Fn>
void ForEachRow(const Table& table, const RowRange& range, Fn&& fn) {
  const auto batches = table.ToBatches();
  const std::vector<size_t>& offsets = table.batch_offsets();
  // The last batch starting at or before range.begin covers it.
  auto first = std::upper_bound(offsets.begin(), offsets.end(), range.begin);
  size_t b = static_cast<size_t>(first - offsets.begin()) - 1;
  for (size_t r = range.begin; r < range.end; ++r) {
    while (r >= offsets[b] + (*batches)[b].num_rows()) ++b;
    fn((*batches)[b].RowAt(r - offsets[b]));
  }
}

// Runs the maximal run of consecutive map stages [s, e) of `udf` as ONE
// fused wave over `in_rows` input rows of `in_bytes` total width, which
// `read(range, fn)` passes to fn one at a time: each task streams its input
// split through every stage's map function in turn (ping-pong buffers), so
// intermediate stage outputs never materialize globally. Task-order
// concatenation of the final partials is identical to running the stages
// one at a time over the whole input, because map functions are applied
// row-at-a-time in order.
//
// Accounting stays per stage: boundary row/byte counts are summed across
// tasks, and the group's wall/straggler time is attributed to the first
// stage of the group (so per-kind wall sums, which calibration consumes,
// are preserved). Appends one LfStageRun per fused stage and leaves the
// group's output rows in `*out` and their total width in `*out_bytes`.
template <typename Read>
Status RunMapStages(const udf::UdfDefinition& udf, size_t s, size_t e,
                    size_t in_rows, uint64_t in_bytes, const Read& read,
                    const udf::Params& params, const UdfExecOptions& opts,
                    Schema* cur_schema, std::vector<Row>* out,
                    uint64_t* out_bytes, std::vector<LfStageRun>* stages) {
  const auto& lfs = udf.local_functions;
  const size_t k = e - s;

  // Resolve the schema chain and per-stage contexts up front.
  std::vector<Schema> schemas;
  schemas.reserve(k + 1);
  schemas.push_back(std::move(*cur_schema));
  std::string fused_name;
  for (size_t i = s; i < e; ++i) {
    if (!lfs[i].map_fn) {
      return Status::Internal("map local function missing body: " +
                              lfs[i].name);
    }
    OPD_ASSIGN_OR_RETURN(Schema next,
                         lfs[i].out_schema(schemas.back(), params));
    schemas.push_back(std::move(next));
    if (!fused_name.empty()) fused_name += "+";
    fused_name += lfs[i].name;
  }
  std::vector<udf::LfContext> ctxs(k);
  for (size_t i = 0; i < k; ++i) {
    ctxs[i].in_schema = &schemas[i];
    ctxs[i].out_schema = &schemas[i + 1];
    ctxs[i].params = &params;
  }

  const double avg_row_bytes =
      in_rows == 0 ? 0.0
                   : static_cast<double>(in_bytes) /
                         static_cast<double>(in_rows);
  const std::vector<RowRange> splits = storage::SplitRowsByBlockSize(
      in_rows, avg_row_bytes, opts.block_size_bytes);

  obs::TraceSpan stage_span(opts.trace, opts.parent_span,
                            "stage:" + fused_name, "stage");
  const auto start = std::chrono::steady_clock::now();

  // Per-task outputs plus per-task counts at each intermediate stage
  // boundary (boundary j = output of stage s+j, 0 <= j < k-1).
  std::vector<std::vector<Row>> partials(splits.size());
  std::vector<std::vector<uint64_t>> mid_rows(splits.size());
  std::vector<std::vector<uint64_t>> mid_bytes(splits.size());
  double wave_max_s = 0;
  OPD_RETURN_NOT_OK(RunWave(
      StageCtx(opts, stage_span.id()), "pipeline", splits.size(),
      [&](size_t t) -> Status {
        const RowRange& split = splits[t];
        mid_rows[t].assign(k - 1, 0);
        mid_bytes[t].assign(k - 1, 0);
        std::vector<Row> cur, next;
        cur.reserve(split.size());
        read(split, [&](const Row& row) {
          lfs[s].map_fn(row, ctxs[0], &cur);
        });
        for (size_t i = 1; i < k; ++i) {
          // Account + validate the boundary feeding stage s+i (the last
          // stage's output is validated below, after the merge).
          for (const Row& r : cur) {
            OPD_RETURN_NOT_OK(CheckArity(lfs[s + i - 1], r, schemas[i]));
            mid_bytes[t][i - 1] += storage::RowByteSize(r);
          }
          mid_rows[t][i - 1] = cur.size();
          next.clear();
          for (const Row& r : cur) lfs[s + i].map_fn(r, ctxs[i], &next);
          cur.swap(next);
        }
        partials[t] = std::move(cur);
        return Status::OK();
      },
      &wave_max_s));
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  size_t total = 0;
  for (const auto& p : partials) total += p.size();
  out->clear();
  out->reserve(total);
  for (auto& p : partials) {
    for (Row& r : p) out->push_back(std::move(r));
  }
  *out_bytes = 0;
  for (const Row& r : *out) {
    OPD_RETURN_NOT_OK(CheckArity(lfs[e - 1], r, schemas[k]));
    *out_bytes += storage::RowByteSize(r);
  }

  if (stage_span) {
    stage_span.AddArg("in_rows", static_cast<uint64_t>(in_rows));
    stage_span.AddArg("in_bytes", in_bytes);
    stage_span.AddArg("fused_stages", static_cast<uint64_t>(k));
    stage_span.End();
  }

  if (stages != nullptr) {
    for (size_t i = 0; i < k; ++i) {
      LfStageRun run;
      run.lf_name = lfs[s + i].name;
      run.kind = udf::LfKind::kMap;
      if (i == 0) {
        run.in_rows = in_rows;
        run.in_bytes = in_bytes;
        run.wall_seconds = wall_s;
        run.max_task_seconds = wave_max_s;
      } else {
        for (const auto& m : mid_rows) run.in_rows += m[i - 1];
        for (const auto& m : mid_bytes) run.in_bytes += m[i - 1];
      }
      if (i == k - 1) {
        run.out_rows = out->size();
        run.out_bytes = *out_bytes;
      } else {
        for (const auto& m : mid_rows) run.out_rows += m[i];
        for (const auto& m : mid_bytes) run.out_bytes += m[i];
      }
      stages->push_back(std::move(run));
    }
  }

  *cur_schema = std::move(schemas[k]);
  return Status::OK();
}

}  // namespace

Status RunLocalFunctions(const udf::UdfDefinition& udf,
                         const storage::Table& input,
                         const udf::Params& params, storage::Table* output,
                         std::vector<LfStageRun>* stages,
                         const UdfExecOptions& exec_options) {
  if (udf.local_functions.empty()) {
    return Status::InvalidArgument("UDF has no local functions: " + udf.name);
  }
  Schema cur_schema = input.schema();
  // Every stage reads the previous stage's output `rows`, of total width
  // `rows_bytes`, except the first, which reads the input table in place: a
  // map run split by split (ForEachRow), a reduce from a row copy it owns.
  bool from_input = true;
  std::vector<Row> rows;
  uint64_t rows_bytes = input.ByteSize();
  auto read = [&](const RowRange& range, const auto& fn) {
    if (from_input) {
      ForEachRow(input, range, fn);
    } else {
      for (size_t r = range.begin; r < range.end; ++r) fn(rows[r]);
    }
  };

  const auto& lfs = udf.local_functions;
  for (size_t stage_i = 0; stage_i < lfs.size();) {
    // A maximal run of consecutive map stages fuses into one wave (no
    // intermediate materialization, one task set, one stage span).
    if (lfs[stage_i].kind == udf::LfKind::kMap) {
      size_t stage_e = stage_i + 1;
      while (stage_e < lfs.size() && lfs[stage_e].kind == udf::LfKind::kMap) {
        ++stage_e;
      }
      std::vector<Row> fused_out;
      OPD_RETURN_NOT_OK(RunMapStages(
          udf, stage_i, stage_e, from_input ? input.num_rows() : rows.size(),
          rows_bytes, read, params, exec_options, &cur_schema, &fused_out,
          &rows_bytes, stages));
      rows = std::move(fused_out);
      from_input = false;
      stage_i = stage_e;
      continue;
    }

    const udf::LocalFunction& lf = lfs[stage_i];
    ++stage_i;
    if (from_input) {
      rows.reserve(input.num_rows());
      ForEachRow(input, RowRange{0, input.num_rows()},
                 [&](Row row) { rows.push_back(std::move(row)); });
      from_input = false;
    }
    OPD_ASSIGN_OR_RETURN(Schema out_schema, lf.out_schema(cur_schema, params));
    udf::LfContext ctx;
    ctx.in_schema = &cur_schema;
    ctx.out_schema = &out_schema;
    ctx.params = &params;

    LfStageRun run;
    run.lf_name = lf.name;
    run.kind = lf.kind;
    run.in_rows = rows.size();
    run.in_bytes = rows_bytes;

    obs::TraceSpan stage_span(exec_options.trace, exec_options.parent_span,
                              "stage:" + lf.name, "stage");
    std::vector<Row> next_rows;
    auto start = std::chrono::steady_clock::now();
    if (!lf.reduce_fn) {
      return Status::Internal("reduce local function missing body: " +
                              lf.name);
    }
    OPD_RETURN_NOT_OK(RunReduceStage(lf, ctx, cur_schema, &rows, run.in_bytes,
                                     exec_options, stage_span.id(), &next_rows,
                                     &run.max_task_seconds));
    auto end = std::chrono::steady_clock::now();
    run.wall_seconds = std::chrono::duration<double>(end - start).count();
    if (stage_span) {
      stage_span.AddArg("in_rows", run.in_rows);
      stage_span.AddArg("in_bytes", run.in_bytes);
      stage_span.End();
    }

    run.out_rows = next_rows.size();
    for (const Row& r : next_rows) {
      OPD_RETURN_NOT_OK(CheckArity(lf, r, out_schema));
      run.out_bytes += storage::RowByteSize(r);
    }
    if (stages != nullptr) stages->push_back(run);

    cur_schema = std::move(out_schema);
    rows = std::move(next_rows);
    rows_bytes = run.out_bytes;
  }

  *output = Table::FromRows("", std::move(cur_schema), rows,
                            exec_options.pool);
  return Status::OK();
}

}  // namespace opd::exec
