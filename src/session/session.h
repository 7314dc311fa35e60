// opd::Session — the single-tenant entry point into the system.
//
// Since the serving-layer redesign (DESIGN.md §3) the full stack (simulated
// DFS, catalog, opportunistic view store, UDF registry, optimizer, MR
// engine, BFREWRITE rewriter, admission control) is owned by opd::Server;
// a Session is a thin wrapper holding a private Server plus one connected
// ClientSession for the "default" tenant, so single-tenant embedders keep
// the familiar surface while multi-tenant embedders call Server::Connect
// directly.
//
// `Session::Run` takes an OQL program or a plan and returns the result
// table together with the run's metrics, the per-job observations, the
// rewrite outcome, and — when tracing is on — the query's span trace.

#ifndef OPD_SESSION_SESSION_H_
#define OPD_SESSION_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "common/status.h"
#include "exec/analyze.h"
#include "exec/engine.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "optimizer/accountability.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "rewrite/bf_rewrite.h"
#include "storage/dfs.h"
#include "udf/udf_registry.h"

namespace opd {

class Server;
class ClientSession;

/// Observability knobs, session-wide.
struct ObsOptions {
  /// Record a span trace per Run (query -> rewrite/job -> phase -> task).
  bool tracing = false;
  /// Publish counters/gauges/histograms into obs::MetricRegistry::Global().
  bool metrics = true;
  /// Emit per-task spans inside traced phases (tracing only).
  bool trace_tasks = true;
};

/// Serving-layer knobs (admission control and scheduling of concurrent
/// tenant queries; see src/server/).
struct ServerOptions {
  /// Queries executing at once; further admissions queue. Minimum 1.
  int max_concurrent_queries = 4;
  /// Maximum queries one tenant may have running at once (0 = no quota).
  int per_tenant_quota = 0;
  /// Pick the next admission round-robin across waiting tenants (the
  /// tenant with the fewest running queries goes first, FIFO tie-break)
  /// instead of strict global FIFO.
  bool fair_scheduling = true;
  /// Byte budget of the shared hash-table recycler (HashStash-style reuse
  /// of built join/group-by tables across queries and tenants; see
  /// src/exec/hash/recycler.h). 0 = unbounded. The server attaches it to
  /// its engine (Engine::set_recycler); engines without one never recycle.
  uint64_t recycle_budget_bytes = 64ull << 20;

  // --- continuous observability (obs::QueryLog; DESIGN.md §3) ----------
  /// Completed-query records retained in the server's history ring
  /// (newest-wins overwrite). 0 disables the query log entirely — no
  /// records, no SLO gauges, no slow capture.
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

/// Every knob of a session/server, grouped by subsystem. The nested structs
/// are the same ones the subsystems take directly (EngineOptions,
/// RewriteOptions, ...), so existing code keeps compiling.
struct SessionOptions {
  optimizer::CostParams cost;
  optimizer::OptimizerOptions optimizer;
  exec::EngineOptions engine;
  rewrite::RewriteOptions rewrite;
  ObsOptions obs;
  ServerOptions server;

  /// The session-level obs toggles are the single source of truth; Resolve
  /// mirrors them into the engine's own knobs. Server::Create and
  /// Session::Create both construct from Resolve() so the two entry points
  /// cannot drift.
  SessionOptions Resolve() const {
    SessionOptions r = *this;
    r.engine.metrics = r.obs.metrics;
    r.engine.trace_tasks = r.obs.trace_tasks;
    return r;
  }
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
  /// Tenant override; empty means the handle's tenant (ClientSession) or
  /// "default" (Session).
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
  /// What this run contributed to the global MetricRegistry (snapshot diff
  /// across the run); empty when ObsOptions::metrics is off. Under
  /// concurrent serving the global delta includes other tenants' traffic —
  /// use `tenant_delta` for isolation.
  obs::MetricsSnapshot metrics_delta;
  /// This run's contribution to its tenant's private registry scope
  /// (server.* counters only; exact even under concurrency).
  obs::MetricsSnapshot tenant_delta;
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
  /// rewrite decision counts, cost-model drift, and the registry delta.
  std::string MetricsJson() const;
  /// The run's registry delta in Prometheus text exposition.
  std::string MetricsPrometheus() const;
};

/// Renders the EXPLAIN REWRITE report (header + decision log) of a rewrite
/// outcome. `views_in_store` is the store size the search ran against.
std::string RenderExplainRewrite(const rewrite::RewriteOutcome& outcome,
                                 size_t views_in_store);

/// \brief Single-tenant facade over a private Server.
///
/// Owns the Server; every call is delegated as tenant "default". Use
/// `server()` (or Server::Create directly) for multi-tenant serving.
class Session {
 public:
  static Result<std::unique_ptr<Session>> Create(SessionOptions options = {});
  ~Session();

  /// Registers `table` as a base relation keyed on `key_columns` (writes its
  /// data to the session DFS and computes exact statistics).
  Status RegisterTable(const storage::TablePtr& table,
                       const std::vector<std::string>& key_columns);

  /// Parses and runs an OQL program.
  Result<RunResult> Run(const std::string& oql, const RunOptions& opts = {});
  /// Runs a plan (prepared in place).
  Result<RunResult> Run(plan::Plan plan, const RunOptions& opts = {});

  /// Runs `oql` and renders the observed per-job stats as a tree.
  Result<std::string> ExplainAnalyze(const std::string& oql,
                                     const RunOptions& opts = {});

  /// Rewrites `oql` against the current view store WITHOUT executing it (no
  /// views are credited, nothing materializes). The outcome carries the
  /// search's DecisionLog. Deterministic: independent of engine options and
  /// thread counts.
  Result<rewrite::RewriteOutcome> Rewrite(const std::string& oql);

  /// EXPLAIN REWRITE: Rewrite() rendered as the decision-log report.
  Result<std::string> ExplainRewrite(const std::string& oql);

  /// The underlying server (for Connect-ing further tenants).
  Server& server();
  storage::Dfs& dfs();
  catalog::Catalog& catalog();
  catalog::ViewStore& views();
  udf::UdfRegistry& udfs();
  const optimizer::Optimizer& optimizer() const;
  exec::Engine& engine();
  const rewrite::BfRewriter& rewriter() const;
  /// Cost-model accountability state (per-class residual EWMAs).
  const optimizer::CostAccountant& accountant() const;
  const SessionOptions& options() const;

 private:
  Session() = default;

  std::unique_ptr<Server> server_;
  std::unique_ptr<ClientSession> client_;
};

}  // namespace opd

#endif  // OPD_SESSION_SESSION_H_
