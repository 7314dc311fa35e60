#include "exec/udf_exec.h"

#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <utility>

#include "exec/hash/hash_kernels.h"
#include "exec/pipeline.h"

namespace opd::exec {

using storage::RowBatch;
using storage::RowRange;
using storage::Schema;
using storage::Table;

namespace {

// Task pool + tracing hooks for the waves of one stage.
PipelineCtx StageCtx(const UdfExecOptions& opts, uint64_t stage_span) {
  return PipelineCtx{opts.pool, opts.trace, stage_span, opts.tasks};
}

// Runs one reduce local function over `in` through the grouping shuffle:
// one producer per block-size split of the rows; each reduce task lays its
// bucket's rows out group by group, in row order, calls the reduce function
// on a view of each group and appends what it emits to the bucket's
// builder, which sums the output bytes as the cells arrive. `out` receives
// the groups' outputs in global key order, whatever the bucket or thread
// count. `run` comes with its input counts and leaves with the rest.
Status RunReduceStage(const udf::LocalFunction& lf, const udf::LfContext& ctx,
                      const BatchList& in, const UdfExecOptions& opts,
                      LfStageRun* run, std::vector<RowBatch>* out) {
  std::vector<size_t> key_idx;
  for (const std::string& key : lf.group_keys) {
    auto idx = ctx.in_schema->IndexOf(key);
    if (!idx) {
      return Status::InvalidArgument("reduce key not in schema: " + key);
    }
    key_idx.push_back(*idx);
  }
  const size_t n = in.num_rows;
  const size_t num_buckets = DeriveReduceTasks(
      opts.num_reduce_tasks, run->in_bytes, opts.block_size_bytes);
  const double avg_row_bytes =
      n == 0 ? 0.0
             : static_cast<double>(run->in_bytes) / static_cast<double>(n);
  const hash::KeyCodec codec =
      hash::PlanKeyCodecs({{in.batches.get(), &key_idx}})[0];
  const Schema& out_schema = *ctx.out_schema;

  // Per bucket: its output rows, and the end of each group's rows in them.
  std::vector<storage::BatchBuilder> emitted;
  emitted.reserve(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) emitted.emplace_back(out_schema);
  std::vector<std::vector<uint32_t>> group_end(num_buckets);
  auto reduce_bucket = [&](size_t b, const hash::GroupRoutes& r) -> Status {
    // The bucket's rows by group id, each group's in row order: group g
    // is members[start[g], start[g + 1]) (a counting sort).
    std::vector<uint32_t> start(r.keys.size() + 1, 0);
    for (uint32_t g : r.group_of) ++start[g + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<storage::RowRef> members(r.rows.size());
    std::vector<uint32_t> next = start;
    for (uint32_t i = 0; i < r.rows.size(); ++i) {
      members[next[r.group_of[i]]++] = r.rows[i];
    }
    storage::BatchBuilder& builder = emitted[b];
    group_end[b].reserve(r.keys.size());
    for (size_t g = 0; g < r.keys.size(); ++g) {
      lf.reduce_fn(udf::GroupView(*in.batches, &members[start[g]],
                                  start[g + 1] - start[g]),
                   ctx, &builder);
      for (size_t c = 1; c < builder.num_columns(); ++c) {
        if (builder.column(c).size() != builder.num_rows()) {
          return Status::Internal(
              "local function " + lf.name + " emitted " +
              std::to_string(builder.column(c).size()) + " cells in column " +
              std::to_string(c) + " and " + std::to_string(builder.num_rows()) +
              " in column 0");
        }
      }
      group_end[b].push_back(static_cast<uint32_t>(builder.num_rows()));
    }
    return Status::OK();
  };

  obs::TraceSpan stage_span(opts.trace, opts.parent_span, "stage:" + lf.name,
                            "stage");
  const auto begin = std::chrono::steady_clock::now();
  GroupingShuffle shuffle;
  OPD_RETURN_NOT_OK(RunGroupingShuffle(
      StageCtx(opts, stage_span.id()), in,
      storage::SplitRowsByBlockSize(n, avg_row_bytes, opts.block_size_bytes),
      codec, num_buckets, 0, reduce_bucket, &shuffle, &run->max_task_seconds));
  // Every output row, (bucket, row in the bucket's output), in key order.
  std::vector<storage::RowRef> rows;
  for (const auto& [b, g] : GroupsInKeyOrder(in, key_idx, shuffle.routes)) {
    for (uint32_t i = g == 0 ? 0 : group_end[b][g - 1]; i < group_end[b][g];
         ++i) {
      rows.push_back({b, i});
    }
  }
  *out = BuildBatches(opts.pool, out_schema, rows.size(),
                      [&](size_t i, storage::BatchBuilder* builder) {
                        const storage::BatchBuilder& from =
                            emitted[rows[i].batch];
                        for (size_t c = 0; c < from.num_columns(); ++c) {
                          builder->AppendFrom(c, from.column(c), rows[i].idx);
                        }
                      });
  run->out_rows = rows.size();
  run->wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
  for (const storage::BatchBuilder& builder : emitted) {
    run->out_bytes += builder.bytes();
  }
  if (stage_span) {
    stage_span.AddArg("in_rows", run->in_rows);
    stage_span.AddArg("in_bytes", run->in_bytes);
    stage_span.End();
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

// What one fused map task produced: its output batches and, per fused
// stage, the rows and bytes it emitted.
struct MapTaskOut {
  std::vector<RowBatch> batches;
  std::vector<uint64_t> stage_rows;
  std::vector<uint64_t> stage_bytes;
};

// Runs the maximal run of consecutive map stages [s, e) of `udf` as ONE
// fused wave over `input`: each task runs the batch slices of its input
// split through every stage's map function in turn, so intermediate stage
// outputs never materialize globally, and checks and measures its own
// output; `batches` receives the output batches in task order. That equals
// running the stages one at a time over the whole input, because map
// functions are row-wise.
//
// Accounting stays per stage: row/byte counts are summed across tasks, and
// the group's wall/straggler time is attributed to the first stage of the
// group (so per-kind wall sums, which calibration consumes, are preserved).
// Appends one LfStageRun per fused stage and leaves the output's total
// width in `*out_bytes`.
Status RunMapStages(const udf::UdfDefinition& udf, size_t s, size_t e,
                    const Table& input, const udf::Params& params,
                    const UdfExecOptions& opts, Schema* cur_schema,
                    std::vector<RowBatch>* batches, uint64_t* out_bytes,
                    std::vector<LfStageRun>* stages) {
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
  const BatchList in(input);

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
        // A whole batch is a zero-copy view, part of one a copy.
        in.ForEachPiece(splits[t], [&](size_t b, size_t begin, size_t end) {
          RowBatch batch = in.batch(b).Slice(begin, end);
          for (size_t i = 0; i < k && st.ok() && batch.num_rows() > 0; ++i) {
            batch = lfs[s + i].map_fn(batch, ctxs[i]);
            st = CheckBatch(lfs[s + i], batch, schemas[i + 1]);
            o.stage_rows[i] += batch.num_rows();
            o.stage_bytes[i] += batch.ByteSize();
          }
          if (st.ok() && batch.num_rows() > 0) {
            o.batches.push_back(std::move(batch));
          }
        });
        return st;
      },
      &wave_max_s));
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  for (MapTaskOut& o : outs) {
    for (RowBatch& b : o.batches) batches->push_back(std::move(b));
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
// row order. A column that is one of `input`'s, or that uses
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
  // A stage reads `in_table`: the input, or `staged`, the output of the
  // reduce stage before it. A reduce stage right after a map run reads the
  // run's output batches instead, of total width `map_bytes`.
  const Table* in_table = &input;
  Table staged;
  std::vector<RowBatch> batches;
  bool after_map = false;
  uint64_t map_bytes = 0;

  const auto& lfs = udf.local_functions;
  for (size_t stage_i = 0; stage_i < lfs.size();) {
    // A maximal run of consecutive map stages fuses into one wave (no
    // intermediate materialization, one task set, one stage span).
    if (lfs[stage_i].kind == udf::LfKind::kMap) {
      size_t stage_e = stage_i + 1;
      while (stage_e < lfs.size() && lfs[stage_e].kind == udf::LfKind::kMap) {
        ++stage_e;
      }
      OPD_RETURN_NOT_OK(RunMapStages(udf, stage_i, stage_e, *in_table, params,
                                     exec_options, &cur_schema, &batches,
                                     &map_bytes, stages));
      if (stage_e == lfs.size()) {
        MergeNewDictionaries(*in_table, cur_schema, &batches,
                             exec_options.pool);
        if (batches.empty()) {
          batches.push_back(storage::BatchBuilder(cur_schema).Finish());
        }
        *output =
            Table::FromBatches("", std::move(cur_schema), std::move(batches));
        return Status::OK();
      }
      after_map = true;
      stage_i = stage_e;
      continue;
    }

    const udf::LocalFunction& lf = lfs[stage_i];
    ++stage_i;
    if (!lf.reduce_fn) {
      return Status::Internal("reduce local function missing body: " +
                              lf.name);
    }
    OPD_ASSIGN_OR_RETURN(Schema out_schema, lf.out_schema(cur_schema, params));
    udf::LfContext ctx;
    ctx.in_schema = &cur_schema;
    ctx.out_schema = &out_schema;
    ctx.params = &params;

    const BatchList in =
        after_map ? BatchList(std::move(batches)) : BatchList(*in_table);
    batches.clear();
    LfStageRun run;
    run.lf_name = lf.name;
    run.kind = lf.kind;
    run.in_rows = in.num_rows;
    run.in_bytes = after_map ? map_bytes : in_table->ByteSize();
    after_map = false;
    std::vector<RowBatch> reduced;
    OPD_RETURN_NOT_OK(
        RunReduceStage(lf, ctx, in, exec_options, &run, &reduced));
    if (stages != nullptr) stages->push_back(run);

    cur_schema = std::move(out_schema);
    staged = Table::FromBatches("", cur_schema, std::move(reduced));
    in_table = &staged;
  }
  // The last stage was a reduce.
  *output = std::move(staged);
  return Status::OK();
}

}  // namespace opd::exec
