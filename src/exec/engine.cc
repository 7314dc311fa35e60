#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "exec/expr/expr_program.h"
#include "exec/hash/flat_table.h"
#include "exec/hash/hash_kernels.h"
#include "exec/hash/recycler.h"
#include "exec/pipeline.h"
#include "exec/udf_exec.h"
#include "obs/metrics.h"
#include "plan/fingerprint.h"
#include "storage/partition_buffer.h"
#include "storage/row_batch.h"
#include "storage/value.h"

namespace opd::exec {

using plan::OpKind;
using plan::OpNode;
using plan::OpNodePtr;
using storage::ColumnVector;
using storage::DataType;
using storage::DictRemap;
using storage::PartitionBuffer;
using storage::RowBatch;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

namespace {

// Operator class a job's cost residual is accounted under. UDFs get a class
// per UDF name: their map/reduce scalars are individually calibrated, so
// their drift is individually tracked.
std::string ResidualOpClass(const OpNode& node) {
  switch (node.kind) {
    case OpKind::kScan:
      return "SCAN";
    case OpKind::kProject:
      return "PROJECT";
    case OpKind::kFilter:
      return "FILTER";
    case OpKind::kJoin:
      return "JOIN";
    case OpKind::kGroupByAgg:
      return "GROUPBY";
    case OpKind::kUdf:
      return "UDF:" + node.udf.udf_name;
  }
  return "UNKNOWN";
}

// What GROUP BY folds per group and aggregate from the typed lanes: the
// double sum (AVG, and SUM into a non-int64 column), the sum of the int64
// cells (SUM into an int64 column), which wraps on overflow like Hive's
// BIGINT sum (a double loses the low bits above 2^53), and the row of the
// MIN or MAX cell so far. COUNT and AVG's divisor are the group's size:
// every aggregate counts null cells, which add 0 to a sum and are the least
// cell for MIN.
struct AggState {
  double sum = 0;
  int64_t int_sum = 0;
  hash::RowRef best{UINT32_MAX, 0};  // batch UINT32_MAX: no cell yet
};

// Column resolver returning Status-checked indices.
Result<size_t> ColIndex(const Schema& schema, const std::string& name) {
  auto idx = schema.IndexOf(name);
  if (!idx) return Status::NotFound("column not found at exec: " + name);
  return *idx;
}

// Flattened location of one row inside a BatchList. Shared with the
// recycler (hash::RowRef) so cached join builds use the exact payload
// layout the engine probes with.
using RowRef = hash::RowRef;

// Gathers one output column from per-row source refs, memoizing dictionary
// remaps per source batch.
class ColumnGatherer {
 public:
  ColumnGatherer(DataType type, const BatchList& side, size_t col,
                 size_t reserve)
      : dst_(std::make_shared<ColumnVector>(type)),
        side_(&side),
        col_(col),
        remaps_(side.size()) {
    dst_->Reserve(reserve);
  }

  void Append(RowRef ref) {
    dst_->AppendFrom(side_->batch(ref.batch).column(col_), ref.idx,
                     &remaps_[ref.batch]);
  }

  storage::ColumnVectorPtr Finish() { return std::move(dst_); }

 private:
  storage::ColumnVectorPtr dst_;
  const BatchList* side_;
  size_t col_;
  std::vector<DictRemap> remaps_;
};

// DFS directory of one Execute run's job outputs ("views/run<N>/").
std::string RunDir(int run_id) {
  return "views/run" + std::to_string(run_id) + "/";
}

}  // namespace

Result<ExecResult> Engine::Execute(plan::Plan* plan, obs::Trace* trace,
                                   uint64_t parent_span) {
  OPD_RETURN_NOT_OK(optimizer_->Prepare(plan));
  const int run_id = run_counter_++;
  Result<ExecResult> result = ExecuteRun(plan, trace, parent_span, run_id);
  // A failed query leaves no DFS output: jobs finalized before the failure
  // already wrote their outputs, and nothing will ever publish them.
  if (!result.ok()) {
    dfs_->DeletePrefix(RunDir(run_id));
  }
  return result;
}

Result<ExecResult> Engine::ExecuteRun(plan::Plan* plan, obs::Trace* trace,
                                      uint64_t parent_span, int run_id) {
  const auto& ctx = optimizer_->context();
  const auto& model = optimizer_->cost_model();
  const uint64_t block_size = dfs_->block_size_bytes();
  auto& registry = obs::MetricRegistry::Global();
  // Registry objects live forever; resolve the hot ones once per run (null
  // when metrics are off).
  auto counter = [&](const char* name) {
    return options_.metrics ? &registry.counter(name) : nullptr;
  };
  auto histogram = [&](const char* name) {
    return options_.metrics ? &registry.histogram(name) : nullptr;
  };
  obs::Histogram* skew_hist = histogram("engine.shuffle.skew");
  obs::Histogram* ht_load_hist = histogram("engine.hash.load_factor");
  // Flat shuffle-table observability.
  obs::Counter* ht_resizes = counter("engine.shuffle.ht_resizes");
  obs::Counter* arena_bytes_ctr = counter("engine.shuffle.arena_bytes");
  obs::Histogram* probe_len_hist = histogram("engine.shuffle.probe_len");
  // Hash-table recycling (HashStash, src/exec/hash/recycler.h): active
  // exactly when a recycler is attached. The counters resolve whenever
  // metrics are on so the engine.recycle.* names register even on runs that
  // never touch a recyclable build.
  hash::HashRecycler* const recycler = recycler_;
  obs::Counter* recycle_hit_ctr = counter("engine.recycle.hit");
  obs::Counter* recycle_miss_ctr = counter("engine.recycle.miss");
  obs::Counter* recycle_insert_ctr = counter("engine.recycle.insert");
  obs::Counter* recycle_evict_ctr = counter("engine.recycle.evict");
  obs::Gauge* recycle_bytes_gauge =
      options_.metrics ? &registry.gauge("engine.recycle.bytes") : nullptr;
  // Publishes one recycler insert outcome (called from pool threads; the
  // registry objects are thread-safe).
  auto observe_recycle_insert = [&](const hash::HashRecycler::InsertResult& r) {
    if (recycle_insert_ctr != nullptr && r.inserted) recycle_insert_ctr->Inc();
    if (recycle_evict_ctr != nullptr && r.evicted > 0) {
      recycle_evict_ctr->Inc(r.evicted);
    }
    if (recycle_bytes_gauge != nullptr && recycler != nullptr) {
      recycle_bytes_gauge->Set(static_cast<double>(recycler->bytes()));
    }
  };
  // Publishes one flat table's probe/arena stats after its bucket finishes.
  auto observe_flat = [&](const hash::FlatStats& s, size_t arena) {
    if (ht_resizes != nullptr && s.resizes > 0) ht_resizes->Inc(s.resizes);
    if (arena_bytes_ctr != nullptr && arena > 0) arena_bytes_ctr->Inc(arena);
    if (probe_len_hist != nullptr && s.lookups > 0) {
      probe_len_hist->Observe(1.0 + static_cast<double>(s.probe_steps) /
                                        static_cast<double>(s.lookups));
    }
  };

  ExecMetrics metrics;
  ExecResult result;
  std::map<const OpNode*, TablePtr> results;
  // Recycling identity of each scan node: view id + publish epoch for view
  // scans, table name for base scans. Filled during scan resolution below
  // and read-only afterwards (jobs may run on pool threads).
  std::map<const OpNode*, std::string> scan_identity;

  // --- Plan the run ---------------------------------------------------------
  // Scans resolve serially up front (catalog/DFS lookups); every other
  // operator becomes one job. Job indices — and therefore DFS output paths
  // and the order of pending_views — are fixed here, in topological order,
  // so they cannot depend on the execution schedule below.
  const std::vector<OpNodePtr> topo = plan->TopoOrder();
  struct JobSpec {
    const OpNodePtr* node = nullptr;    // owned by `topo`
    std::string path;                   // DFS output path
    std::vector<size_t> producers;      // indices of non-scan input jobs
  };
  std::vector<JobSpec> specs;
  std::map<const OpNode*, size_t> job_of;
  for (const OpNodePtr& node_ptr : topo) {
    OpNode* node = node_ptr.get();
    if (node->kind == OpKind::kScan) {
      std::string path;
      if (node->view_id >= 0) {
        OPD_ASSIGN_OR_RETURN(const catalog::ViewDefinition* def,
                             ctx.views->Find(node->view_id));
        path = def->dfs_path;
        scan_identity[node] =
            hash::ViewIdentity(node->view_id, def->publish_epoch);
      } else {
        OPD_ASSIGN_OR_RETURN(const catalog::BaseTableEntry* entry,
                             ctx.catalog->Find(node->table));
        path = entry->dfs_path;
        scan_identity[node] = hash::BaseIdentity(node->table);
      }
      OPD_ASSIGN_OR_RETURN(TablePtr table, dfs_->Read(path));
      results[node] = table;
      // Scan bytes are accounted in the consuming job's read phase below.
      continue;
    }
    JobSpec spec;
    spec.node = &node_ptr;
    spec.path = RunDir(run_id) + "job" + std::to_string(specs.size());
    for (const OpNodePtr& child : node->children) {
      if (child->kind == OpKind::kScan) continue;
      auto it = job_of.find(child.get());
      if (it == job_of.end()) {
        return Status::Internal("missing child result for " +
                                node->DisplayName());
      }
      spec.producers.push_back(it->second);
    }
    job_of[node] = specs.size();
    specs.push_back(std::move(spec));
  }

  // Observed state of one job, written by run_job (possibly on a pool
  // thread) and consumed by the serial finalize loop.
  struct JobState {
    Status status = Status::OK();
    TablePtr table;  // sealed output (named, not yet written to the DFS)
    JobRun run;
    catalog::ViewDefinition view;  // the output's view, stats included
    double skew = -1.0;
    double stats_wall_s = 0;
    double stats_time_s = 0;
    std::optional<obs::Trace> trace;  // the job's spans, spliced in finalize
  };
  std::vector<JobState> states(specs.size());

  // The recycling identity of a direct-scan input, or null when the child
  // is not a scan (operator outputs are run-local and never recycled).
  auto scan_ident = [&](const OpNode* child) -> const std::string* {
    if (child->kind != OpKind::kScan) return nullptr;
    auto it = scan_identity.find(child);
    return it == scan_identity.end() ? nullptr : &it->second;
  };

  // --- Per-job execution ----------------------------------------------------
  // Everything here is schedule-independent: inputs come from immutable
  // tables, all side effects land in this job's JobState slot (its spans in
  // its own trace), and the shared metric histograms are thread-safe.
  auto run_job = [&](size_t j) {
    JobState& st = states[j];
    JobRun& jr = st.run;
    const OpNodePtr& node_ptr = *specs[j].node;
    OpNode* node = node_ptr.get();
    jr.index = static_cast<int>(j);
    jr.node = node;
    jr.op = node->DisplayName();
    obs::Trace* job_trace =
        trace != nullptr ? &st.trace.emplace(trace->epoch()) : nullptr;
    obs::TraceSpan job_span(job_trace, 0, "job:" + jr.op, "job");

    // Gather inputs: scans from the resolved map, operator inputs from the
    // producing job's sealed output.
    std::vector<TablePtr> inputs;
    for (const OpNodePtr& child : node->children) {
      TablePtr t;
      if (child->kind == OpKind::kScan) {
        auto it = results.find(child.get());
        if (it != results.end()) t = it->second;
      } else {
        t = states[job_of.at(child.get())].table;
      }
      if (t == nullptr) {
        // A producer failed (its own status carries the root cause, and it
        // has the lower job index, so it wins the error report).
        st.status = Status::Internal("missing child result for " + jr.op);
        return;
      }
      jr.bytes_read += t->ByteSize();
      jr.rows_in += t->num_rows();
      inputs.push_back(std::move(t));
    }
    const uint64_t in_bytes = jr.bytes_read;

    size_t tasks = 0;  // map + reduce tasks
    const PipelineCtx pipe{pool_.get(), job_trace, job_span.id(), &tasks};
    const auto job_wall_start = std::chrono::steady_clock::now();

    Table out("", node->out_schema);
    uint64_t shuffle_bytes = 0;
    bool has_shuffle = false;
    double map_scalar = 1.0, reduce_scalar = 1.0;
    // Counts one recycler lookup outcome (global counter + per-job tally).
    auto count_recycle = [&](bool hit) {
      if (hit) {
        ++jr.recycle_hits;
        if (recycle_hit_ctr != nullptr) recycle_hit_ctr->Inc();
      } else {
        ++jr.recycle_misses;
        if (recycle_miss_ctr != nullptr) recycle_miss_ctr->Inc();
      }
    };

    Status body = [&]() -> Status {
    switch (node->kind) {
      case OpKind::kScan:
        break;  // handled above
      case OpKind::kProject: {
        // Pure column swizzle compiled into an ExprProgram: output batches
        // share the input's column vectors, no cell is touched.
        const Table& in = *inputs[0];
        std::vector<size_t> idx;
        for (const std::string& name : node->project) {
          OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(in.schema(), name));
          idx.push_back(i);
        }
        const std::optional<expr::ExprProgram> program =
            expr::ExprProgram::Compile(in.schema().num_columns(),
                                       {expr::ExprStep::Project(idx)});
        if (!program.has_value()) {
          return Status::Internal("cannot compile " + node->DisplayName());
        }
        const BatchList in_list(in);
        std::vector<RowBatch> out_batches;
        out_batches.reserve(in_list.size());
        expr::EvalScratch scratch;
        for (const RowBatch& b : *in_list.batches) {
          out_batches.push_back(program->Run(b, &scratch));
        }
        out = Table::FromBatches("", node->out_schema, std::move(out_batches));
        break;
      }
      case OpKind::kFilter: {
        const Table& in = *inputs[0];
        const plan::FilterCond& cond = node->filter;
        if (cond.kind == plan::FilterCond::Kind::kCompare) {
          // Fused selection-vector filter, one task per batch: string
          // predicates bind per-dictionary verdict bitmaps once, serially,
          // before the wave; each task then runs branchless mask kernels +
          // one gather (full-batch selections are zero-copy).
          OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(in.schema(), cond.column));
          std::optional<expr::ExprProgram> program = expr::ExprProgram::Compile(
              in.schema().num_columns(),
              {expr::ExprStep::FilterCompare(i, cond.op, cond.literal)});
          if (!program.has_value()) {
            return Status::Internal("cannot compile " + node->DisplayName());
          }
          const BatchList in_list(in);
          program->BindDictionaries(*in_list.batches);
          std::vector<RowBatch> out_batches(in_list.size());
          OPD_RETURN_NOT_OK(RunWave(
              pipe, "pipeline", in_list.size(),
              [&](size_t t) -> Status {
                expr::EvalScratch scratch;
                out_batches[t] = program->Run(in_list.batch(t), &scratch);
                return Status::OK();
              },
              &jr.max_task_time_s));
          out = Table::FromBatches("", node->out_schema,
                                   std::move(out_batches));
        } else {
          // Opaque predicate UDFs are per-row black boxes, one task per
          // batch: each task calls the predicate on the argument cells of
          // every row into a selection vector, then gathers it (full-batch
          // selections are zero-copy).
          OPD_ASSIGN_OR_RETURN(const udf::PredicateFn* fn,
                               ctx.udfs->FindPredicate(cond.fn_name));
          std::vector<size_t> idx;
          for (const std::string& name : cond.arg_columns) {
            OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(in.schema(), name));
            idx.push_back(i);
          }
          udf::Params params;  // opaque predicate params are pre-bound strings
          if (!cond.params.empty()) params["params"] = Value(cond.params);
          const BatchList in_list(in);
          std::vector<RowBatch> out_batches(in_list.size());
          OPD_RETURN_NOT_OK(RunWave(
              pipe, "pipeline", in_list.size(),
              [&](size_t t) -> Status {
                const RowBatch& batch = in_list.batch(t);
                std::vector<Value> args(idx.size());
                std::vector<uint32_t> sel;
                sel.reserve(batch.num_rows());
                for (size_t r = 0; r < batch.num_rows(); ++r) {
                  for (size_t a = 0; a < idx.size(); ++a) {
                    args[a] = batch.column(idx[a]).GetValue(r);
                  }
                  if ((*fn)(args, params)) {
                    sel.push_back(static_cast<uint32_t>(r));
                  }
                }
                out_batches[t] = batch.Gather(sel);
                return Status::OK();
              },
              &jr.max_task_time_s));
          out = Table::FromBatches("", node->out_schema,
                                   std::move(out_batches));
        }
        break;
      }
      case OpKind::kJoin: {
        const Table& left = *inputs[0];
        const Table& right = *inputs[1];
        has_shuffle = true;
        shuffle_bytes = in_bytes;  // both sides are re-partitioned by key
        std::vector<size_t> lkeys, rkeys;
        for (const auto& [lname, rname] : node->join.pairs) {
          OPD_ASSIGN_OR_RETURN(size_t li, ColIndex(left.schema(), lname));
          OPD_ASSIGN_OR_RETURN(size_t ri, ColIndex(right.schema(), rname));
          lkeys.push_back(li);
          rkeys.push_back(ri);
        }
        // Output column mapping: (from_left, index).
        std::vector<std::pair<bool, size_t>> out_map;
        for (const auto& col : node->out_schema.columns()) {
          if (auto li = left.schema().IndexOf(col.name)) {
            out_map.emplace_back(true, *li);
          } else {
            OPD_ASSIGN_OR_RETURN(size_t ri,
                                 ColIndex(right.schema(), col.name));
            out_map.emplace_back(false, ri);
          }
        }
        // Build the hash table on the smaller side (ties keep the
        // historical build-on-right choice); probe with the larger side.
        // The output column order follows out_map and is side-invariant.
        const bool build_right = right.num_rows() <= left.num_rows();
        const Table& build_in = build_right ? right : left;
        const Table& probe_in = build_right ? left : right;
        const std::vector<size_t>& build_keys = build_right ? rkeys : lkeys;
        const std::vector<size_t>& probe_keys = build_right ? lkeys : rkeys;

        const size_t num_buckets = DeriveReduceTasks(
            options_.num_reduce_tasks, shuffle_bytes, block_size);
        jr.reduce_tasks = num_buckets;

        // Optimizer distinct-key estimate for the build side (product of
        // the build child's per-key-column distincts, capped by its row
        // estimate): pre-sizes each bucket table's per-key arrays (index
        // slots, key refs, duplicate-chain heads/tails) well below the
        // all-distinct worst case on duplicate-heavy keys. Growth past the
        // estimate shows up in engine.shuffle.ht_resizes.
        const OpNode* build_child = node->children[build_right ? 1 : 0].get();
        size_t est_build_keys = 0;
        {
          double est = 1.0;
          bool have = !node->join.pairs.empty();
          for (const auto& [lname, rname] : node->join.pairs) {
            auto it = build_child->est_distinct.find(build_right ? rname
                                                                 : lname);
            if (it == build_child->est_distinct.end() || it->second <= 0) {
              have = false;
              break;
            }
            est *= std::max(1.0, it->second);
          }
          if (have) {
            if (build_child->est_rows > 0) {
              est = std::min(est, build_child->est_rows);
            }
            est_build_keys = static_cast<size_t>(est);
          }
        }
        auto join_key_hint = [&](size_t bucket_n) -> size_t {
          return est_build_keys > 0
                     ? std::min(bucket_n, est_build_keys / num_buckets + 1)
                     : 0;
        };

        const BatchList build_list(build_in);
        const BatchList probe_list(probe_in);
        // Key codecs planned once per join from both sides' lanes; per-row
        // key hashes are computed batch-wide while partitioning and kept
        // here so the reduce tables never re-hash.
        const std::vector<hash::KeyCodec> codecs = hash::PlanKeyCodecs(
            {{build_list.batches.get(), &build_keys},
             {probe_list.batches.get(), &probe_keys}});

        // Hash recycling: when the build side is a direct scan of an
        // unchanged table/view, the recycler may hold its fully built
        // per-bucket tables from an earlier query (possibly another
        // tenant's). `cached` set => probe-only job; `pending` set => this
        // job builds into the recycler's entry-to-be.
        hash::RecycleKey rkey;
        std::shared_ptr<const hash::CachedBuild> cached;
        std::shared_ptr<hash::CachedBuild> pending;
        std::atomic<uint64_t> build_ns{0};
        const std::string* build_identity =
            recycler != nullptr ? scan_ident(build_child) : nullptr;
        if (build_identity != nullptr) {
          rkey.kind = hash::RecycleKind::kJoinBuild;
          rkey.identity = *build_identity;
          rkey.key_cols = build_keys;
          rkey.codec_modes.reserve(codecs[0].modes.size());
          for (hash::KeyColMode m : codecs[0].modes) {
            rkey.codec_modes.push_back(static_cast<uint8_t>(m));
          }
          rkey.num_buckets = static_cast<uint32_t>(num_buckets);
          cached = recycler->Lookup(rkey, build_list.batches.get());
          count_recycle(cached != nullptr);
          if (cached == nullptr) {
            pending = std::make_shared<hash::CachedBuild>();
            pending->join.resize(num_buckets);
            pending->batches = build_list.batches;
            pending->pin = build_list.batches.get();
            pending->view_id = build_child->view_id;
          }
        }

        // Fused map+partition: one producer per batch (build batches first,
        // then probe batches) hashes straight into its own per-bucket
        // buffer slots. On a recycle hit the build side needs no producers
        // at all: the cached tables already hold every build row.
        PartitionBuffer<RowRef> bbuf(build_list.size(), num_buckets);
        PartitionBuffer<RowRef> pbuf(probe_list.size(), num_buckets);
        std::vector<uint32_t> probe_bucket(probe_list.num_rows, 0);
        std::vector<uint64_t> build_hash, probe_hash(probe_list.num_rows);
        if (cached == nullptr) build_hash.resize(build_list.num_rows);
        const size_t nb = cached != nullptr ? 0 : build_list.size();
        auto partition = [&](size_t t) -> Status {
          const bool is_build = t < nb;
          const size_t side_t = is_build ? t : t - nb;
          const BatchList& list = is_build ? build_list : probe_list;
          PartitionBuffer<RowRef>& buf = is_build ? bbuf : pbuf;
          const RowBatch& batch = list.batch(side_t);
          buf.ReserveProducer(side_t, batch.num_rows());
          uint64_t* hashes = (is_build ? build_hash : probe_hash).data() +
                             list.offsets[side_t];
          hash::HashKeys(batch, 0, batch.num_rows(),
                         is_build ? build_keys : probe_keys, hashes);
          uint32_t* pb = is_build ? nullptr
                                  : probe_bucket.data() +
                                        probe_list.offsets[side_t];
          for (size_t i = 0; i < batch.num_rows(); ++i) {
            const uint32_t b =
                num_buckets <= 1 ? 0 : hash::BucketOf(hashes[i], num_buckets);
            if (pb != nullptr) pb[i] = b;
            buf.Append(side_t, b,
                       RowRef{static_cast<uint32_t>(side_t),
                              static_cast<uint32_t>(i)});
          }
          return Status::OK();
        };

        // Reduce: each bucket keys its build rows by their normalized key
        // bytes (equal exactly when the key Values are equal) and probes in
        // row order, emitting (probe ref, build ref) matches.
        struct Match {
          size_t probe_global;
          RowRef probe, build;
        };
        std::vector<std::vector<Match>> bucket_out(num_buckets);
        auto reduce_bucket = [&](size_t b) -> Status {
          auto& local = bucket_out[b];
          local.reserve(pbuf.BucketSize(b));
          hash::KeyScratch key;
          // Streams bucket b's probe rows through `lookup(hash, emit)`.
          auto probe = [&](const auto& lookup) {
            pbuf.ForEachInBucket(b, [&](RowRef pref) {
              hash::NormalizeKey(probe_list.batch(pref.batch), pref.idx,
                                 codecs[1], &key);
              const size_t pg = probe_list.offsets[pref.batch] + pref.idx;
              lookup(probe_hash[pg], [&](RowRef bref) {
                local.push_back(Match{pg, pref, bref});
              });
            });
          };
          if (cached != nullptr) {
            // Recycled build: probe the shared cached table through the
            // stats-free accessor (other queries may probe it concurrently).
            // Matches come out in the cached table's insertion order ==
            // global build-row order, exactly what a fresh build emits.
            const hash::FlatMultiMap<RowRef>& ht = cached->join[b];
            probe([&](uint64_t h, const auto& emit) {
              ht.ForEachMatchShared(h, key.data(), key.size(), emit);
            });
            return Status::OK();
          }
          hash::FlatMultiMap<RowRef> fresh;
          hash::FlatMultiMap<RowRef>& ht =
              pending != nullptr ? pending->join[b] : fresh;
          const size_t build_n = bbuf.BucketSize(b);
          ht.Reserve(build_n, codecs[0].bounded ? codecs[0].width_bound : 0,
                     join_key_hint(build_n));
          const auto build_start = std::chrono::steady_clock::now();
          bbuf.ForEachInBucket(b, [&](RowRef ref) {
            hash::NormalizeKey(build_list.batch(ref.batch), ref.idx,
                               codecs[0], &key);
            const size_t bg = build_list.offsets[ref.batch] + ref.idx;
            ht.Insert(build_hash[bg], key.data(), key.size(), ref);
          });
          if (pending != nullptr) {
            build_ns.fetch_add(
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - build_start)
                        .count()),
                std::memory_order_relaxed);
          }
          if (ht_load_hist != nullptr && ht.size() > 0) {
            ht_load_hist->Observe(ht.load_factor());
          }
          probe([&](uint64_t h, const auto& emit) {
            ht.ForEachMatch(h, key.data(), key.size(), emit);
          });
          observe_flat(ht.stats(), ht.arena_bytes());
          return Status::OK();
        };

        OPD_RETURN_NOT_OK(RunShuffle(pipe, nb + probe_list.size(), partition,
                                     num_buckets, reduce_bucket,
                                     &jr.max_task_time_s));
        st.skew = BufferSkew(pbuf);

        if (pending != nullptr) {
          pending->build_cost_s =
              static_cast<double>(build_ns.load(std::memory_order_relaxed)) *
              1e-9;
          observe_recycle_insert(recycler->Insert(rkey, std::move(pending)));
        }

        // Deterministic merge: matches in probe-row order (each bucket's
        // output is already ordered by probe index, so a cursor per bucket
        // suffices). Identical for every thread/bucket count.
        size_t total = 0;
        for (const auto& b : bucket_out) total += b.size();
        std::vector<std::pair<RowRef, RowRef>> merged;  // (probe, build)
        merged.reserve(total);
        std::vector<size_t> cursor(num_buckets, 0);
        for (size_t p = 0; p < probe_list.num_rows; ++p) {
          auto& local = bucket_out[probe_bucket[p]];
          size_t& c = cursor[probe_bucket[p]];
          while (c < local.size() && local[c].probe_global == p) {
            merged.emplace_back(local[c].probe, local[c].build);
            ++c;
          }
        }

        // Assemble the output column-wise: one gather per output column
        // from whichever side it came from.
        std::vector<storage::ColumnVectorPtr> out_cols;
        out_cols.reserve(out_map.size());
        for (size_t c = 0; c < out_map.size(); ++c) {
          const auto& [from_left, src_col] = out_map[c];
          const bool from_probe = from_left == build_right;
          const BatchList& side = from_probe ? probe_list : build_list;
          ColumnGatherer gatherer(node->out_schema.columns()[c].type, side,
                                  src_col, merged.size());
          for (const auto& [pref, bref] : merged) {
            gatherer.Append(from_probe ? pref : bref);
          }
          out_cols.push_back(gatherer.Finish());
        }
        if (options_.metrics) {
          // Dictionary compression of the gathered string columns: hit
          // rate is 1 - entries/values across the run.
          for (const auto& col : out_cols) {
            if (col->declared_type() == DataType::kString &&
                col->is_native() && col->size() > 0) {
              registry.counter("storage.dict.values").Inc(col->size());
              registry.counter("storage.dict.entries").Inc(col->dict_size());
            }
          }
        }
        std::vector<RowBatch> out_batches;
        out_batches.push_back(RowBatch(std::move(out_cols), merged.size()));
        out = Table::FromBatches("", node->out_schema, std::move(out_batches));
        break;
      }
      case OpKind::kGroupByAgg: {
        const Table& in = *inputs[0];
        has_shuffle = true;
        shuffle_bytes = in_bytes;
        std::vector<size_t> key_idx;
        for (const std::string& key : node->group.keys) {
          OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(in.schema(), key));
          key_idx.push_back(i);
        }
        std::vector<std::optional<size_t>> agg_idx;
        for (const auto& spec : node->group.aggs) {
          if (spec.input.empty()) {
            agg_idx.push_back(std::nullopt);
          } else {
            OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(in.schema(), spec.input));
            agg_idx.push_back(i);
          }
        }
        const size_t num_buckets = DeriveReduceTasks(
            options_.num_reduce_tasks, shuffle_bytes, block_size);
        jr.reduce_tasks = num_buckets;

        // Optimizer cardinality estimate (product of key distincts from the
        // sampled stats, capped by input rows): pre-sizes each bucket's flat
        // group index when it is available — the bucket's group count is
        // roughly est_groups/num_buckets, far below its row count for
        // duplicate-heavy keys. Growth past the estimate is what the
        // engine.shuffle.ht_resizes counter measures.
        const size_t est_groups =
            node->est_rows > 0 ? static_cast<size_t>(node->est_rows) : 0;

        const BatchList in_list(in);
        const hash::KeyCodec codec =
            hash::PlanKeyCodecs({{in_list.batches.get(), &key_idx}})[0];

        // Hash recycling for group-by: the aggregates are query-specific,
        // so the recycler caches the *grouping routes* (hash::GroupRoutes).
        // A hit skips partitioning and group discovery entirely and only
        // replays the routes, folding this query's aggregates from the live
        // input.
        hash::RecycleKey grkey;
        std::shared_ptr<const hash::CachedBuild> gcached;
        const OpNode* in_child = node->children[0].get();
        const std::string* in_identity =
            recycler != nullptr ? scan_ident(in_child) : nullptr;
        if (in_identity != nullptr) {
          grkey.kind = hash::RecycleKind::kGroupBy;
          grkey.identity = *in_identity;
          grkey.key_cols = key_idx;
          grkey.codec_modes.reserve(codec.modes.size());
          for (hash::KeyColMode m : codec.modes) {
            grkey.codec_modes.push_back(static_cast<uint8_t>(m));
          }
          grkey.num_buckets = static_cast<uint32_t>(num_buckets);
          gcached = recycler->Lookup(grkey, in_list.batches.get());
          count_recycle(gcached != nullptr);
        }

        // Folds one bucket's aggregates by replaying its routes, one
        // aggregate at a time. Routes hold the bucket's rows in global row
        // order, so floating point accumulation matches a serial pass, on a
        // miss and a hit alike. An aggregate without an input column (the
        // constant 1 of COUNT(*)) is finished from the group sizes alone.
        const size_t num_aggs = node->group.aggs.size();
        const auto& out_cols = node->out_schema.columns();
        std::vector<std::vector<int64_t>> bucket_sizes(num_buckets);
        std::vector<std::vector<AggState>> bucket_aggs(num_buckets);
        auto fold_bucket = [&](size_t b, const hash::GroupRoutes& r) {
          std::vector<int64_t>& sizes = bucket_sizes[b];
          sizes.assign(r.keys.size(), 0);
          for (uint32_t g : r.group_of) ++sizes[g];
          std::vector<AggState>& aggs = bucket_aggs[b];
          aggs.assign(r.keys.size() * num_aggs, AggState{});
          for (size_t a = 0; a < num_aggs; ++a) {
            if (!agg_idx[a]) continue;
            const size_t c = *agg_idx[a];
            // Calls fold(column, row, state) for each row, in row order.
            auto each = [&](auto&& fold) {
              for (size_t i = 0; i < r.rows.size(); ++i) {
                fold(in_list.batch(r.rows[i].batch).column(c), r.rows[i],
                     aggs[r.group_of[i] * num_aggs + a]);
              }
            };
            switch (node->group.aggs[a].fn) {
              case plan::AggFn::kCount:
                break;
              case plan::AggFn::kSum:
                if (out_cols[key_idx.size() + a].type == DataType::kInt64) {
                  each([](const ColumnVector& col, RowRef row, AggState& s) {
                    if (col.CellType(row.idx) != DataType::kInt64) return;
                    s.int_sum = static_cast<int64_t>(
                        static_cast<uint64_t>(s.int_sum) +
                        static_cast<uint64_t>(col.Int64At(row.idx)));
                  });
                  break;
                }
                [[fallthrough]];
              case plan::AggFn::kAvg:
                each([](const ColumnVector& col, RowRef row, AggState& s) {
                  s.sum += col.NumberAt(row.idx);
                });
                break;
              case plan::AggFn::kMin:
              case plan::AggFn::kMax: {
                // MIN keeps a cell until a lesser one comes, MAX until a
                // greater one does.
                const int sign =
                    node->group.aggs[a].fn == plan::AggFn::kMax ? 1 : -1;
                each([&](const ColumnVector& col, RowRef row, AggState& s) {
                  if (s.best.batch == UINT32_MAX ||
                      sign * storage::CompareCells(
                                 col, row.idx,
                                 in_list.batch(s.best.batch).column(c),
                                 s.best.idx) > 0) {
                    s.best = row;
                  }
                });
                break;
              }
            }
          }
          return Status::OK();
        };

        GroupingShuffle built;
        if (gcached != nullptr) {
          OPD_RETURN_NOT_OK(RunWave(
              pipe, "reduce", num_buckets,
              [&](size_t b) { return fold_bucket(b, gcached->routes[b]); },
              &jr.max_task_time_s));
        } else {
          OPD_RETURN_NOT_OK(RunGroupingShuffle(
              pipe, in_list, in_list.BatchRanges(), codec, num_buckets,
              est_groups, fold_bucket, &built, &jr.max_task_time_s,
              [&](const hash::FlatGroupIndex& index) {
                if (ht_load_hist != nullptr && index.size() > 0) {
                  ht_load_hist->Observe(index.load_factor());
                }
                observe_flat(index.stats(), index.arena_bytes());
              }));
          st.skew = built.skew;
        }
        const std::vector<hash::GroupRoutes>& routes =
            gcached != nullptr ? gcached->routes : built.routes;

        // Deterministic merge: groups sorted by key, for any thread/bucket
        // count, built straight into the output columns.
        const auto order = GroupsInKeyOrder(in_list, key_idx, routes);
        auto emit = [&](size_t row, storage::BatchBuilder* builder) {
          const auto [b, g] = order[row];
          const RowRef key = routes[b].keys[g];
          for (size_t k = 0; k < key_idx.size(); ++k) {
            builder->AppendFrom(
                k, in_list.batch(key.batch).column(key_idx[k]), key.idx);
          }
          const int64_t size = bucket_sizes[b][g];
          for (size_t a = 0; a < num_aggs; ++a) {
            const size_t c = key_idx.size() + a;
            const AggState& s = bucket_aggs[b][g * num_aggs + a];
            // No input column: every cell is the int64 1.
            const bool ones = !agg_idx[a];
            const double sum = ones ? static_cast<double>(size) : s.sum;
            switch (node->group.aggs[a].fn) {
              case plan::AggFn::kCount:
                builder->Append(c, Value(size));
                break;
              case plan::AggFn::kSum:
                builder->Append(c, out_cols[c].type == DataType::kInt64
                                       ? Value(ones ? size : s.int_sum)
                                       : Value(sum));
                break;
              case plan::AggFn::kAvg:
                builder->Append(c, Value(sum / static_cast<double>(size)));
                break;
              case plan::AggFn::kMin:
              case plan::AggFn::kMax:
                if (ones) {
                  builder->Append(c, Value(int64_t{1}));
                } else {
                  builder->AppendFrom(
                      c, in_list.batch(s.best.batch).column(*agg_idx[a]),
                      s.best.idx);
                }
                break;
            }
          }
        };
        out = Table::FromBatches(
            "", node->out_schema,
            BuildBatches(pool_.get(), node->out_schema, order.size(), emit));

        if (in_identity != nullptr && gcached == nullptr) {
          // Benefit = the partition + reduce wall a future hit skips (the
          // replay pass it pays instead is a fraction of it).
          auto pending = std::make_shared<hash::CachedBuild>();
          pending->routes = std::move(built.routes);
          pending->batches = in_list.batches;
          pending->pin = in_list.batches.get();
          pending->view_id = in_child->view_id;
          pending->build_cost_s = jr.max_task_time_s;
          observe_recycle_insert(recycler->Insert(grkey, std::move(pending)));
        }
        break;
      }
      case OpKind::kUdf: {
        // UDF local functions are opaque user code (RunLocalFunctions):
        // consecutive map stages fuse into one task per input split, which
        // passes the split's batch slices through each map function, and a
        // reduce stage groups through GROUP BY's shuffle
        // (RunGroupingShuffle); its reduce tasks build a group's rows only
        // to call the reduce function.
        OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* def,
                             ctx.udfs->Find(node->udf.udf_name));
        std::vector<LfStageRun> stage_runs;
        UdfExecOptions udf_opts;
        udf_opts.pool = pool_.get();
        udf_opts.block_size_bytes = block_size;
        udf_opts.num_reduce_tasks = options_.num_reduce_tasks;
        udf_opts.trace = job_trace;
        udf_opts.parent_span = job_span.id();
        udf_opts.tasks = &tasks;
        OPD_RETURN_NOT_OK(RunLocalFunctions(*def, *inputs[0],
                                            node->udf.params, &out,
                                            &stage_runs, udf_opts));
        has_shuffle = def->HasShuffle();
        map_scalar = def->map_scalar;
        reduce_scalar = def->reduce_scalar;
        // Shuffle bytes: output of the last map stage before the first
        // reduce (the data that actually crosses the network). The job's
        // straggler time is the sum of its stage barriers' slowest tasks.
        bool saw_reduce = false;
        for (const LfStageRun& run : stage_runs) {
          if (!saw_reduce && run.kind == udf::LfKind::kReduce) {
            shuffle_bytes = run.in_bytes;
            saw_reduce = true;
          }
          jr.max_task_time_s += run.max_task_seconds;
        }
        break;
      }
    }
    return Status::OK();
    }();
    if (!body.ok()) {
      st.status = std::move(body);
      return;
    }

    jr.bytes_shuffled = shuffle_bytes;
    jr.bytes_written = out.ByteSize();
    jr.rows_out = out.num_rows();
    jr.sim_time_s = model.JobCost(static_cast<double>(in_bytes),
                                  static_cast<double>(shuffle_bytes),
                                  static_cast<double>(jr.bytes_written),
                                  map_scalar, reduce_scalar, has_shuffle)
                        .total_s;
    jr.map_tasks = tasks >= jr.reduce_tasks ? tasks - jr.reduce_tasks : 0;
    // Cost-model accountability: the optimizer's prediction (cost over
    // estimated rows/bytes, annotated at Prepare) vs the model re-run on
    // the observed byte counts.
    jr.predicted_cost_s = node->cost.total_s;
    jr.observed_proxy_cost_s = jr.sim_time_s;
    jr.residual_pct =
        optimizer::ResidualPct(jr.predicted_cost_s, jr.observed_proxy_cost_s);
    jr.wall_time_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - job_wall_start)
                         .count();
    out.set_name(specs[j].path);
    st.table = std::make_shared<const Table>(std::move(out));
    job_span.AddArg("sim_time_s", jr.sim_time_s);
    job_span.AddArg("bytes_read", jr.bytes_read);
    job_span.AddArg("bytes_shuffled", jr.bytes_shuffled);
    job_span.AddArg("bytes_written", jr.bytes_written);
    job_span.AddArg("rows_out", jr.rows_out);
    job_span.AddArg("max_task_time_s", jr.max_task_time_s);

    catalog::ViewDefinition& def = st.view;
    def.dfs_path = specs[j].path;
    def.afk = node->afk;
    def.out_attrs = node->out_attrs;
    def.schema = node->out_schema;
    def.fingerprint = plan::Fingerprint(node_ptr);
    def.bytes = jr.bytes_written;
    def.producer = plan->name();
    // The view's statistics (Section 2.1's sampling Map job), outside the
    // job's wall time.
    obs::TraceSpan stats_span(job_trace, job_span.id(), "stats", "phase");
    const auto stats_start = std::chrono::steady_clock::now();
    def.stats = stats_.Collect(*st.table);
    st.stats_wall_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - stats_start)
                          .count();
    st.stats_time_s = stats_.JobTime(*st.table, model);
  };

  // --- Serial finalize ------------------------------------------------------
  // Every ordering-sensitive side effect happens here, in job-index (topo)
  // order, regardless of the execution schedule: span ids, DFS writes,
  // metric and JobRun accumulation, and the pending_views list (the
  // publisher assigns ViewIds in list order, which must not depend on
  // thread timing).
  auto finalize_job = [&](size_t j) -> Status {
    JobState& st = states[j];
    const JobRun& jr = st.run;
    if (st.trace.has_value()) trace->Splice(*st.trace, parent_span);
    OPD_RETURN_NOT_OK(st.status);

    metrics.sim_time_s += jr.sim_time_s;
    metrics.bytes_read += jr.bytes_read;
    metrics.rows_read += jr.rows_in;
    metrics.bytes_shuffled += jr.bytes_shuffled;
    metrics.bytes_written += jr.bytes_written;
    metrics.jobs += 1;
    metrics.max_task_time_s += jr.max_task_time_s;
    metrics.stats_wall_time_s += st.stats_wall_s;
    metrics.stats_time_s += st.stats_time_s;

    // Materialize the job output to the DFS (Hive materializes every job).
    OPD_RETURN_NOT_OK(dfs_->Write(specs[j].path, st.table));
    results[jr.node] = st.table;

    // The accountant's EWMA fold is order-sensitive.
    if (accountant_ != nullptr) {
      optimizer::JobResidual res;
      res.op_class = ResidualOpClass(*jr.node);
      res.predicted_s = jr.predicted_cost_s;
      res.observed_s = jr.observed_proxy_cost_s;
      res.residual_pct = jr.residual_pct;
      accountant_->Record(res);
    }
    result.jobs.push_back(jr);

    if (options_.metrics) {
      registry.counter("engine.jobs").Inc();
      registry.counter("engine.bytes_read").Inc(jr.bytes_read);
      registry.counter("engine.bytes_shuffled").Inc(jr.bytes_shuffled);
      registry.counter("engine.bytes_written").Inc(jr.bytes_written);
      if (st.skew > 0) skew_hist->Observe(st.skew);
    }
    // The definition is complete here (data in DFS, stats collected) but is
    // not visible: the caller publishes the run's views as one batch.
    result.pending_views.push_back(std::move(st.view));
    return Status::OK();
  };

  // --- Schedule -------------------------------------------------------------
  // The jobs run as a DAG: a job starts once its producers have finished and
  // the dispatch loop has reached it (its countdown holds one count per
  // producer plus the loop's). With a pool and more than one job it starts
  // as a pool task, so independent jobs run concurrently; otherwise the loop
  // runs it here, in job order. A failed job (an exception escaping run_job,
  // e.g. from a UDF's out_schema, is a failure) leaves its table null, and
  // finalize returns the lowest-index (root cause) error. Once a job has
  // failed, every job with a higher index, its consumers among them, is
  // skipped when it is due: finalize stops before it, so its output could
  // only be deleted. A skipped job keeps a null table and still releases
  // its consumers.
  const size_t n = specs.size();
  const bool on_pool = pool_ != nullptr && n > 1;
  std::vector<std::vector<size_t>> consumers(n);
  auto countdown = std::make_unique<std::atomic<size_t>[]>(n);
  for (size_t j = 0; j < n; ++j) {
    countdown[j].store(specs[j].producers.size() + 1,
                       std::memory_order_relaxed);
    for (size_t p : specs[j].producers) consumers[p].push_back(j);
  }
  CountdownLatch all_done(n);
  std::atomic<size_t> first_failed{n};  // lowest failed job index so far
  std::function<void(size_t)> release = [&](size_t j) {
    if (countdown[j].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    auto job = [&, j] {
      if (j < first_failed.load(std::memory_order_acquire)) {
        try {
          run_job(j);
        } catch (const std::exception& e) {
          states[j].status =
              Status::Internal(std::string("job threw: ") + e.what());
        } catch (...) {
          states[j].status =
              Status::Internal("job threw a non-std exception");
        }
        if (!states[j].status.ok()) {
          size_t cur = first_failed.load(std::memory_order_relaxed);
          while (j < cur && !first_failed.compare_exchange_weak(
                                cur, j, std::memory_order_acq_rel)) {
          }
        }
      }
      for (size_t c : consumers[j]) release(c);
      all_done.CountDown();
    };
    on_pool ? pool_->Submit(job) : job();
  };
  for (size_t j = 0; j < n; ++j) release(j);
  all_done.Wait(pool_.get());
  for (size_t j = 0; j < n; ++j) OPD_RETURN_NOT_OK(finalize_job(j));

  auto sink = results.find(plan->root().get());
  if (sink == results.end()) {
    return Status::Internal("plan produced no sink result");
  }

  result.table = sink->second;
  result.metrics = metrics;
  return result;
}

}  // namespace opd::exec
