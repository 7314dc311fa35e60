// The MapReduce execution simulator.
//
// Executes an annotated plan job by job: every non-scan operator runs as one
// MR job over real rows and materializes its output to the simulated DFS.
// As in Hive, that materialization is retained as an opportunistic view
// (with its AFK annotation, plan fingerprint, and sampled statistics), but
// the engine never publishes it: each run hands its view definitions back
// in ExecResult::pending_views, and the serving layer (Server::RunAdmitted)
// decides what becomes visible in the ViewStore. Modeled cluster time is
// computed by applying the cost model to the *observed* byte counts of each
// job.

#ifndef OPD_EXEC_ENGINE_H_
#define OPD_EXEC_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "catalog/view_store.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/metrics.h"
#include "exec/stats_collector.h"
#include "obs/trace.h"
#include "optimizer/accountability.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "storage/dfs.h"
#include "udf/udf_registry.h"

namespace opd::exec {

namespace hash {
class HashRecycler;
}

/// Execution knobs. There is one execution path: project/filter jobs run
/// as fused ExprPrograms over columnar batches (src/exec/expr/); join and
/// group-by jobs run a morsel-driven shuffle — each map task fuses
/// scan->operator->partition into one loop writing thread-local per-bucket
/// buffers, and the reduce wave starts once every map task has finished —
/// over flat open-addressing tables (src/exec/hash/); independent jobs of a
/// plan run concurrently on the shared pool. Opaque predicate
/// UDFs run one task per batch, called on each row's argument cells. UDF
/// map local functions run over the column batches of each input split;
/// UDF reduce stages group through the group-by shuffle, and only the rows
/// handed to a reduce function are built. Hash tables are recycled across
/// queries when a recycler is attached (Engine::set_recycler). Every job's
/// output is retained as an opportunistic view (Section 2.1) with sampled
/// statistics; there is no switch for either.
struct EngineOptions {
  /// Worker threads for map/reduce task execution. 0 means one per core;
  /// 1 runs every task inline on the calling thread (the pre-parallel
  /// behavior). Results are byte-identical for every setting.
  int num_threads = 0;
  /// Reduce tasks (shuffle buckets) per job; 0 derives the count from the
  /// job's shuffle bytes and the DFS block size. Like the thread count this
  /// never changes results, only task granularity.
  int num_reduce_tasks = 0;
  /// Publish per-job observations (shuffle skew, hash-table load factors,
  /// dictionary compression, byte counts) into obs::MetricRegistry::Global().
  bool metrics = true;
};

/// Observed execution record of one MR job — the raw material for
/// EXPLAIN ANALYZE and for the per-job args of the trace.
struct JobRun {
  int index = 0;                        ///< job position in submission order
  const plan::OpNode* node = nullptr;   ///< plan node this job executed
  std::string op;                       ///< node DisplayName at run time
  double sim_time_s = 0;                ///< modeled cluster time
  double wall_time_s = 0;               ///< real wall-clock of the job
  uint64_t bytes_read = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t bytes_written = 0;
  uint64_t rows_in = 0;                 ///< input rows gathered by the job
  uint64_t rows_out = 0;
  size_t map_tasks = 0;                 ///< fused pipeline (map) tasks
  size_t reduce_tasks = 0;              ///< shuffle buckets (0 = map-only)
  double max_task_time_s = 0;           ///< modeled straggler (critical path)
  /// Cost-model accountability (see optimizer/accountability.h): the
  /// optimizer's plan-time prediction for this job, the model re-evaluated
  /// on the observed byte counts (== sim_time_s), and the signed residual.
  double predicted_cost_s = 0;
  double observed_proxy_cost_s = 0;
  double residual_pct = 0;
  /// Hash-table recycler outcomes of this job (0/0 when the job had no
  /// recyclable build or no recycler is attached). EXPLAIN ANALYZE renders
  /// "recycle=hit" / "recycle=miss"; the server attributes them per tenant.
  uint64_t recycle_hits = 0;
  uint64_t recycle_misses = 0;
};

/// Result of executing one plan.
struct ExecResult {
  storage::TablePtr table;
  ExecMetrics metrics;
  /// One record per executed MR job, in submission order.
  std::vector<JobRun> jobs;
  /// Materialized-view definitions awaiting publication, one per job in job
  /// order, each with its sampled statistics. The data is already in the
  /// DFS; the metadata becomes visible only when the caller publishes the
  /// batch (ViewStore::PublishBatch).
  std::vector<catalog::ViewDefinition> pending_views;
};

/// \brief Executes plans over the simulated cluster.
class Engine {
 public:
  Engine(storage::Dfs* dfs, const optimizer::Optimizer* optimizer,
         EngineOptions options = {})
      : dfs_(dfs), optimizer_(optimizer), options_(options) {
    const int threads = ThreadPool::DefaultThreads(options_.num_threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  }

  /// Prepares (annotates/costs) and executes `plan`. Returns the sink's
  /// output table, the run's metrics, and the definitions of the run's
  /// materializations in `pending_views`. Nothing becomes visible in the
  /// ViewStore: publishing is the caller's job. A failed run deletes every
  /// DFS file it wrote ("views/run<N>/...").
  ///
  /// When `trace` is non-null each MR job opens a "job:<op>" span under
  /// `parent_span`, with nested phase spans (pipeline, plus reduce with
  /// per-bucket spans for shuffles), one span per task and a closing
  /// "stats" span. Tracing changes nothing else: jobs run on the same
  /// schedule either way. Each job records into a trace of its own, spliced
  /// into `trace` in job order, so the span structure is deterministic:
  /// identical at every thread count; only durations vary.
  Result<ExecResult> Execute(plan::Plan* plan, obs::Trace* trace = nullptr,
                             uint64_t parent_span = 0);

  const EngineOptions& options() const { return options_; }
  /// Number of Execute calls so far (used to build unique DFS paths).
  int runs() const { return run_counter_.load(); }

  /// Attaches a cost accountant: every finalized job's residual is folded
  /// into its per-operator-class EWMA. Caller owns; may be null to detach.
  void set_accountant(optimizer::CostAccountant* accountant) {
    accountant_ = accountant;
  }

  /// Attaches a hash-table recycler (thread-safe; shared across every
  /// Execute of this engine, and across engines/tenants when the serving
  /// layer hangs one off the Server). Caller owns; null detaches and
  /// disables recycling. Results are byte-identical either way —
  /// FlatMultiMap preserves insertion order, so a recycled probe emits the
  /// exact match sequence a fresh build would.
  void set_recycler(hash::HashRecycler* recycler) { recycler_ = recycler; }

 private:
  /// Execute's body for run number `run_id`; Execute deletes the run's
  /// DFS output when this fails.
  Result<ExecResult> ExecuteRun(plan::Plan* plan, obs::Trace* trace,
                                uint64_t parent_span, int run_id);

  storage::Dfs* dfs_;
  const optimizer::Optimizer* optimizer_;
  optimizer::CostAccountant* accountant_ = nullptr;
  hash::HashRecycler* recycler_ = nullptr;
  EngineOptions options_;
  const StatsCollector stats_;
  /// Task pool shared by all jobs of this engine; null when running with a
  /// single thread (tasks then execute inline on the calling thread).
  std::unique_ptr<ThreadPool> pool_;
  /// Atomic: concurrent tenant queries of a Server share one Engine, and
  /// each Execute call needs a unique "views/run<N>/..." DFS namespace.
  std::atomic<int> run_counter_{0};
};

}  // namespace opd::exec

#endif  // OPD_EXEC_ENGINE_H_
