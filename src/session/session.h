// The vocabulary of the serving path: the options a Server is created with
// (SessionOptions), the per-query knobs (RunOptions), and what one query
// returns (RunResult).
//
// The full stack (simulated DFS, catalog, opportunistic view store, UDF
// registry, optimizer, MR engine, BFREWRITE rewriter, admission control) is
// owned by opd::Server (server/server.h); queries run through the
// ClientSession handle that `Server::Connect(tenant)` returns. A run yields
// the result table together with the run's metrics, the per-job
// observations, the rewrite outcome, and — when tracing is on — the query's
// span trace.

#ifndef OPD_SESSION_SESSION_H_
#define OPD_SESSION_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/view_store.h"
#include "exec/analyze.h"
#include "exec/engine.h"
#include "obs/trace.h"
#include "optimizer/accountability.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "rewrite/bf_rewrite.h"

namespace opd {

/// Observability knobs, server-wide.
struct ObsOptions {
  /// Record a span trace per Run (query -> rewrite/job -> phase -> task;
  /// every map and reduce task gets its own span).
  bool tracing = false;
  /// Publish counters/gauges/histograms into obs::MetricRegistry::Global().
  bool metrics = true;
};

/// Serving-layer knobs (admission control and scheduling of concurrent
/// tenant queries; see src/server/).
struct ServerOptions {
  /// Queries executing at once; further admissions queue. Minimum 1.
  int max_concurrent_queries = 4;
  /// Maximum queries one tenant may have running at once (0 = no quota).
  /// Waiting queries are admitted fairly: the tenant with the fewest
  /// running queries goes first, arrival order breaks ties.
  int per_tenant_quota = 0;
  /// Byte budget of the shared hash-table recycler (HashStash-style reuse
  /// of built join/group-by tables across queries and tenants; see
  /// src/exec/hash/recycler.h). 0 = unbounded. The server attaches it to
  /// its engine (Engine::set_recycler); engines without one never recycle.
  uint64_t recycle_budget_bytes = 64ull << 20;

  // --- continuous observability (obs::QueryLog; DESIGN.md §3) ----------
  /// Completed-query records retained in the server's history ring
  /// (newest-wins overwrite). 0 disables the query log entirely — no
  /// history, no JSONL sink, no slow capture; the server.* counters and SLO
  /// gauges still count every query.
  size_t query_log_capacity = 1024;
  /// When nonempty, every QueryRecord is also appended to this file as one
  /// JSON line (the durable query-history sink).
  std::string query_log_path;
  /// Queries whose end-to-end wall time reaches this threshold get their
  /// full trace + decision log + EXPLAIN ANALYZE tree captured. Negative
  /// disables slow-query capture; 0.0 captures everything.
  double slow_query_threshold_s = -1.0;
  /// Byte budget for retained slow-query profiles (oldest-first eviction).
  size_t slow_query_capture_bytes = 4u << 20;
};

/// Every knob of a server, grouped by subsystem. The nested structs are the
/// same ones the subsystems take directly (EngineOptions, RewriteOptions,
/// ...). `obs.metrics` is the single source of truth for the engine's own
/// metrics knob: Server::Create copies it into the engine options.
struct SessionOptions {
  optimizer::CostParams cost;
  optimizer::OptimizerOptions optimizer;
  exec::EngineOptions engine;
  rewrite::RewriteOptions rewrite;
  ObsOptions obs;
  ServerOptions server;
};

/// Per-Run admission knobs (serving layer).
struct AdmissionOptions {
  /// Fail with OutOfRange instead of queueing when no slot is free.
  bool fail_fast = false;
  /// Pin the view-visibility epoch: when >= 0 the query rewrites against
  /// ViewStore::SnapshotAt(pin_epoch) instead of the store's epoch at
  /// admission. This is the serial-replay hook — re-running a recorded
  /// workload with each query's original admission epoch pinned reproduces
  /// its rewrite decisions exactly.
  int64_t pin_epoch = -1;
};

/// Per-Run knobs.
struct RunOptions {
  /// Rewrite against the view store (BFREWRITE) before executing.
  bool rewrite = true;
  /// Tenant override; empty means the ClientSession's tenant.
  std::string tenant;
  AdmissionOptions admission;
};

/// One materialized view the executed plan scanned (from the rewrite's
/// admission-epoch snapshot).
struct ViewUse {
  catalog::ViewId id = -1;
  /// Epoch at which the view became visible; always <= the scanning
  /// query's admission_epoch (snapshot consistency).
  catalog::Epoch publish_epoch = 0;
  /// Tenant whose query materialized the view ("" pre-serving-layer).
  std::string tenant;
};

/// What one Run produced.
struct RunResult {
  storage::TablePtr table;
  exec::ExecMetrics metrics;
  /// One record per executed MR job (matches `plan`'s nodes by identity).
  std::vector<exec::JobRun> jobs;
  /// The plan that was executed (the rewrite's best plan when rewriting).
  plan::Plan plan;
  /// Rewrite search outcome; meaningful when `rewritten`.
  rewrite::RewriteOutcome rewrite;
  bool rewritten = false;
  /// The query's span trace; non-null iff ObsOptions::tracing.
  std::shared_ptr<obs::Trace> trace;
  /// Cost-model calibration state after this run (per-operator-class EWMA
  /// residuals from the session's CostAccountant).
  std::vector<optimizer::CostAccountant::ClassDrift> cost_drifts;

  // --- serving-layer observations -------------------------------------
  /// Tenant the query ran as.
  std::string tenant;
  /// View-store epoch the query was admitted at: the rewrite saw exactly
  /// the views published at epochs <= admission_epoch.
  catalog::Epoch admission_epoch = 0;
  /// Epoch assigned when this run's views published (one bump per query).
  catalog::Epoch publish_epoch = 0;
  /// Admission order: the ticket's position in the server's admit sequence
  /// (1-based; 0 outside a Server).
  uint64_t admission_ticket = 0;
  /// Time spent queued before admission.
  double queue_wait_s = 0;
  /// Views the executed plan scanned (empty when not rewritten).
  std::vector<ViewUse> views_used;

  /// Renders the EXPLAIN ANALYZE tree of this run.
  std::string ExplainAnalyze(const exec::AnalyzeOptions& options = {}) const;

  /// One machine-readable export of everything observed in this run: exec
  /// metrics, per-job predicted_cost_s/observed_proxy_cost_s/residual_pct,
  /// rewrite decision counts, cost-model drift, and the serving fields.
  std::string MetricsJson() const;
};

/// Renders the EXPLAIN REWRITE report (header + decision log) of a rewrite
/// outcome. The header's view count is the size of the snapshot the search
/// ran against, not of the live store.
std::string RenderExplainRewrite(const rewrite::RewriteOutcome& outcome);

}  // namespace opd

#endif  // OPD_SESSION_SESSION_H_
