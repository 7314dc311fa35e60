#include "exec/udf_exec.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "exec/hash/flat_table.h"
#include "exec/hash/hash_kernels.h"
#include "exec/pipeline.h"
#include "storage/partition_buffer.h"

namespace opd::exec {

using storage::Row;
using storage::RowBatch;
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

// Checks one emitted batch against the stage's output schema (a cheap
// sanity check on user code).
Status CheckBatch(const udf::LocalFunction& lf, const RowBatch& batch,
                  const Schema& out_schema) {
  if (batch.num_columns() != out_schema.num_columns()) {
    return Status::Internal(
        "local function " + lf.name + " emitted a batch of " +
        std::to_string(batch.num_columns()) + " columns, schema has " +
        std::to_string(out_schema.num_columns()));
  }
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    if (batch.column(c).size() != batch.num_rows()) {
      return Status::Internal("local function " + lf.name + " emitted " +
                              std::to_string(batch.column(c).size()) +
                              " cells in column " + std::to_string(c) +
                              " of a " + std::to_string(batch.num_rows()) +
                              "-row batch");
    }
  }
  return Status::OK();
}

// Calls fn(batch) for each piece of `table`'s batches that `range` covers,
// in order: a whole batch as a zero-copy view, part of one as a copy. Map
// tasks read their own split this way.
template <typename Fn>
void ForEachSlice(const Table& table, const RowRange& range, Fn&& fn) {
  if (range.size() == 0) return;
  const auto batches = table.ToBatches();
  const std::vector<size_t>& offsets = table.batch_offsets();
  // The last batch starting at or before range.begin covers it.
  auto first = std::upper_bound(offsets.begin(), offsets.end(), range.begin);
  for (size_t b = static_cast<size_t>(first - offsets.begin()) - 1,
              r = range.begin;
       r < range.end; ++b) {
    const RowBatch& batch = (*batches)[b];
    const size_t end = std::min(range.end, offsets[b] + batch.num_rows());
    if (end <= r) continue;  // an empty batch
    fn(batch.Slice(r - offsets[b], end - offsets[b]));
    r = end;
  }
}

// What one fused map task produced: its output (batches, or rows when a
// reduce stage follows) and, per fused stage, the rows and bytes it emitted.
struct MapTaskOut {
  std::vector<RowBatch> batches;
  std::vector<Row> rows;
  std::vector<uint64_t> stage_rows;
  std::vector<uint64_t> stage_bytes;
};

// Runs the maximal run of consecutive map stages [s, e) of `udf` as ONE
// fused wave over `input`: each task runs the batch slices of its input
// split through every stage's map function in turn, so intermediate stage
// outputs never materialize globally, and checks and measures its own
// output. With `rows` non-null (a reduce stage follows), each task builds
// its output rows there; otherwise `batches` receives the output batches.
// Task-order concatenation equals running the stages one at a time over the
// whole input, because map functions are row-wise.
//
// Accounting stays per stage: row/byte counts are summed across tasks, and
// the group's wall/straggler time is attributed to the first stage of the
// group (so per-kind wall sums, which calibration consumes, are preserved).
// Appends one LfStageRun per fused stage and leaves the output's total
// width in `*out_bytes`.
Status RunMapStages(const udf::UdfDefinition& udf, size_t s, size_t e,
                    const Table& input, const udf::Params& params,
                    const UdfExecOptions& opts, Schema* cur_schema,
                    std::vector<RowBatch>* batches, std::vector<Row>* rows,
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

  const uint64_t in_rows = input.num_rows();
  const uint64_t in_bytes = input.ByteSize();
  const std::vector<RowRange> splits = storage::SplitRowsByBlockSize(
      in_rows, input.AvgRowBytes(), opts.block_size_bytes);

  obs::TraceSpan stage_span(opts.trace, opts.parent_span,
                            "stage:" + fused_name, "stage");
  const auto start = std::chrono::steady_clock::now();

  std::vector<MapTaskOut> outs(splits.size());
  double wave_max_s = 0;
  OPD_RETURN_NOT_OK(RunWave(
      StageCtx(opts, stage_span.id()), "pipeline", splits.size(),
      [&](size_t t) -> Status {
        MapTaskOut& o = outs[t];
        o.stage_rows.assign(k, 0);
        o.stage_bytes.assign(k, 0);
        Status st = Status::OK();
        ForEachSlice(input, splits[t], [&](RowBatch batch) {
          for (size_t i = 0; i < k && st.ok() && batch.num_rows() > 0; ++i) {
            batch = lfs[s + i].map_fn(batch, ctxs[i]);
            st = CheckBatch(lfs[s + i], batch, schemas[i + 1]);
            o.stage_rows[i] += batch.num_rows();
            o.stage_bytes[i] += batch.ByteSize();
          }
          if (!st.ok() || batch.num_rows() == 0) return;
          if (rows == nullptr) {
            o.batches.push_back(std::move(batch));
            return;
          }
          for (size_t r = 0; r < batch.num_rows(); ++r) {
            o.rows.push_back(batch.RowAt(r));
          }
        });
        return st;
      },
      &wave_max_s));
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  for (MapTaskOut& o : outs) {
    if (rows == nullptr) {
      for (RowBatch& b : o.batches) batches->push_back(std::move(b));
    } else {
      for (Row& r : o.rows) rows->push_back(std::move(r));
    }
  }

  if (stage_span) {
    stage_span.AddArg("in_rows", in_rows);
    stage_span.AddArg("in_bytes", in_bytes);
    stage_span.AddArg("fused_stages", static_cast<uint64_t>(k));
    stage_span.End();
  }

  *out_bytes = 0;
  for (const MapTaskOut& o : outs) *out_bytes += o.stage_bytes[k - 1];
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
      }
      for (const MapTaskOut& o : outs) {
        if (i > 0) {
          run.in_rows += o.stage_rows[i - 1];
          run.in_bytes += o.stage_bytes[i - 1];
        }
        run.out_rows += o.stage_rows[i];
        run.out_bytes += o.stage_bytes[i];
      }
      stages->push_back(std::move(run));
    }
  }

  *cur_schema = std::move(schemas[k]);
  return Status::OK();
}

// Gives each newly built string column of `batches` one dictionary, merged
// across the batches in order, one task per column: the entries come out in
// Table::FromRows's order. A column that is one of `input`'s, or that uses
// one of its dictionaries (a pass-through column, shared or gathered), keeps
// its dictionary and is never touched.
void MergeNewDictionaries(const Table& input, const Schema& schema,
                          std::vector<RowBatch>* batches, ThreadPool* pool) {
  if (batches->size() <= 1) return;  // one batch's dictionaries are whole
  // The input's column objects and dictionaries.
  std::unordered_set<const void*> from_input;
  for (const RowBatch& b : *input.ToBatches()) {
    for (size_t c = 0; c < b.num_columns(); ++c) {
      from_input.insert(b.column_ptr(c).get());
      if (b.column(c).dict() != nullptr) {
        from_input.insert(b.column(c).dict().get());
      }
    }
  }
  std::vector<size_t> strings;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == storage::DataType::kString) {
      strings.push_back(c);
    }
  }
  Status st = ParallelFor(pool, strings.size(), [&](size_t k) {
    auto dict = std::make_shared<storage::Dictionary>();
    for (RowBatch& b : *batches) {
      const storage::ColumnVectorPtr& col = b.column_ptr(strings[k]);
      if (from_input.count(col.get()) == 0 &&
          (col->dict() == nullptr || from_input.count(col->dict().get()) == 0)) {
        col->MergeDictInto(dict);
      }
    }
    return Status::OK();
  });
  (void)st;  // cannot fail
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
  // A map run reads a table split by split: the input, or `staged`, the
  // output of the reduce stage before it. A reduce stage reads `rows`, of
  // total width `rows_bytes`: the map run before it builds them in its
  // tasks (a UDF that starts with a reduce copies the input's rows).
  const Table* in_table = &input;
  Table staged;
  bool have_rows = false;
  std::vector<Row> rows;
  uint64_t rows_bytes = 0;
  std::vector<RowBatch> batches;  // a final map run's output

  const auto& lfs = udf.local_functions;
  for (size_t stage_i = 0; stage_i < lfs.size();) {
    // A maximal run of consecutive map stages fuses into one wave (no
    // intermediate materialization, one task set, one stage span).
    if (lfs[stage_i].kind == udf::LfKind::kMap) {
      size_t stage_e = stage_i + 1;
      while (stage_e < lfs.size() && lfs[stage_e].kind == udf::LfKind::kMap) {
        ++stage_e;
      }
      if (have_rows) {
        staged = Table::FromRows("", cur_schema, rows, exec_options.pool);
        rows.clear();
        in_table = &staged;
        have_rows = false;
      }
      const bool final_run = stage_e == lfs.size();
      OPD_RETURN_NOT_OK(RunMapStages(
          udf, stage_i, stage_e, *in_table, params, exec_options, &cur_schema,
          &batches, final_run ? nullptr : &rows, &rows_bytes, stages));
      have_rows = !final_run;
      stage_i = stage_e;
      continue;
    }

    const udf::LocalFunction& lf = lfs[stage_i];
    ++stage_i;
    if (!have_rows) {
      rows.reserve(in_table->num_rows());
      ForEachSlice(*in_table, RowRange{0, in_table->num_rows()},
                   [&](const RowBatch& b) {
                     for (size_t r = 0; r < b.num_rows(); ++r) {
                       rows.push_back(b.RowAt(r));
                     }
                   });
      rows_bytes = in_table->ByteSize();
      have_rows = true;
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
      if (r.size() != out_schema.num_columns()) {
        return Status::Internal(
            "local function " + lf.name + " emitted row of arity " +
            std::to_string(r.size()) + ", schema has " +
            std::to_string(out_schema.num_columns()));
      }
      run.out_bytes += storage::RowByteSize(r);
    }
    if (stages != nullptr) stages->push_back(run);

    cur_schema = std::move(out_schema);
    rows = std::move(next_rows);
    rows_bytes = run.out_bytes;
  }

  if (have_rows) {
    *output = Table::FromRows("", std::move(cur_schema), rows,
                              exec_options.pool);
    return Status::OK();
  }
  MergeNewDictionaries(*in_table, cur_schema, &batches, exec_options.pool);
  if (batches.empty()) batches.push_back(RowBatch::FromRows(cur_schema, {}, 0, 0));
  *output = Table::FromBatches("", std::move(cur_schema), std::move(batches));
  return Status::OK();
}

}  // namespace opd::exec
