// opd::Server — the multi-tenant serving layer (DESIGN.md §3).
//
// One Server owns the whole shared stack: simulated DFS, base-table
// catalog, opportunistic ViewStore, UDF registry, optimizer, MR engine,
// BFREWRITE rewriter, cost accountant, and the admission gate. Named
// tenants connect with `Connect(tenant)` and get a lightweight
// ClientSession handle; `Create` + `Connect` is the only way to run a query.
//
// Concurrency model:
//   * Admission control (AdmissionController) bounds concurrent queries
//     and schedules waiting tenants fairly.
//   * View visibility is snapshot-consistent: at admission a query reads
//     the store's publish epoch and rewrites only against
//     SnapshotAt(admission_epoch); the views it materializes stay
//     invisible (the engine never publishes) until RunAdmitted publishes
//     them as one atomic batch at completion — one epoch bump per query, so
//     no query ever observes a half-published view, and a recorded schedule
//     replays deterministically by pinning admission epochs.
//   * One record per query: every completion builds one obs::QueryRecord,
//     and the server.* counters (global and the tenant's private
//     MetricRegistry scope), the query log and the slow-query capture all
//     read it.

#ifndef OPD_SERVER_SERVER_H_
#define OPD_SERVER_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "common/status.h"
#include "exec/engine.h"
#include "exec/hash/recycler.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/snapshot.h"
#include "optimizer/accountability.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "rewrite/bf_rewrite.h"
#include "server/admission.h"
#include "server/introspect.h"
#include "session/session.h"
#include "storage/dfs.h"
#include "udf/udf_registry.h"

namespace opd {

class Server;

/// \brief A tenant's handle onto a Server. Lightweight and copyable; all
/// state lives in the Server, which must outlive the handle. One handle
/// may be used from one thread at a time; different handles (including
/// handles for the same tenant) run concurrently.
class ClientSession {
 public:
  ClientSession() = default;

  /// Parses and runs an OQL program as this tenant.
  Result<RunResult> Run(const std::string& oql, const RunOptions& opts = {});
  /// Runs a plan (prepared in place) as this tenant.
  Result<RunResult> Run(plan::Plan plan, const RunOptions& opts = {});

  /// Runs `oql` and renders the observed per-job stats as a tree.
  Result<std::string> ExplainAnalyze(const std::string& oql,
                                     const RunOptions& opts = {});

  /// Rewrites `oql` against the currently-published views WITHOUT
  /// executing (no admission, no view credit, nothing materializes).
  Result<rewrite::RewriteOutcome> Rewrite(const std::string& oql);

  /// EXPLAIN REWRITE: Rewrite() rendered as the decision-log report.
  Result<std::string> ExplainRewrite(const std::string& oql);

  const std::string& tenant() const { return tenant_; }
  Server& server() const { return *server_; }
  bool connected() const { return server_ != nullptr; }

 private:
  friend class Server;
  ClientSession(Server* server, std::string tenant)
      : server_(server), tenant_(std::move(tenant)) {}

  Server* server_ = nullptr;
  std::string tenant_;
};

/// \brief The shared, concurrent query-serving stack.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Create(SessionOptions options = {});
  ~Server();

  /// A handle running queries as `tenant` (empty maps to "default").
  /// Connecting is cheap and does not allocate server-side state until the
  /// tenant's first query.
  ClientSession Connect(const std::string& tenant);

  /// Registers `table` as a shared base relation keyed on `key_columns`
  /// (writes its data to the server DFS and computes exact statistics).
  Status RegisterTable(const storage::TablePtr& table,
                       const std::vector<std::string>& key_columns);

  /// Runs a query as `tenant`: admission -> epoch snapshot -> rewrite ->
  /// execute -> atomic view publish. Blocks while queued (unless
  /// opts.admission.fail_fast). Thread-safe; this is the one serving path,
  /// behind every ClientSession.
  Result<RunResult> Run(const std::string& tenant, plan::Plan plan,
                        const RunOptions& opts = {});
  Result<RunResult> Run(const std::string& tenant, const std::string& oql,
                        const RunOptions& opts = {});

  /// Read-only rewrite against the currently-published views (no
  /// admission, no credit, no execution).
  Result<rewrite::RewriteOutcome> Rewrite(const std::string& oql);

  /// Tenants that have run at least one query, in name order.
  std::vector<std::string> Tenants() const;
  /// The tenant's private metric scope (created on first use).
  obs::MetricRegistry& TenantRegistry(const std::string& tenant);
  /// Snapshot of the tenant's private scope (empty scope if unseen).
  obs::MetricsSnapshot TenantSnapshot(const std::string& tenant);

  /// The server-lifetime query history, or nullptr when
  /// ServerOptions::query_log_capacity is 0.
  obs::QueryLog* query_log() { return query_log_.get(); }

  /// Collects the `SHOW SERVER STATS` data: this server's completion
  /// counters (summed over its tenant scopes), view-store state, admission
  /// gate, query-log stats, and per-tenant SLO percentiles from the live
  /// sketches, plus an "all" row over the merged tenant sketches.
  server::ServerStats Introspect();

  /// Admission-gate statistics and grant log (determinism tests).
  server::AdmissionController::Stats admission_stats() const {
    return admission_->stats();
  }
  std::vector<std::string> admission_log() const {
    return admission_->admission_log();
  }

  storage::Dfs& dfs() { return *dfs_; }
  catalog::Catalog& catalog() { return *catalog_; }
  catalog::ViewStore& views() { return *views_; }
  udf::UdfRegistry& udfs() { return *udfs_; }
  const optimizer::Optimizer& optimizer() const { return *optimizer_; }
  exec::Engine& engine() { return *engine_; }
  /// The shared hash-table recycler (one per server, shared by every
  /// tenant's queries; budget from ServerOptions::recycle_budget_bytes).
  exec::hash::HashRecycler& recycler() { return *recycler_; }
  const rewrite::BfRewriter& rewriter() const { return *bfr_; }
  const optimizer::CostAccountant& accountant() const { return *accountant_; }
  const SessionOptions& options() const { return options_; }

 private:
  Server() = default;

  /// The full serving path behind both public Run overloads; `source` is
  /// the OQL text when the query arrived as text ("" for prepared plans)
  /// and lands in the query-history record.
  Result<RunResult> RunWithSource(const std::string& tenant, plan::Plan plan,
                                  const RunOptions& opts,
                                  const std::string& source);

  /// The admitted section of Run (slot already held; releases nothing).
  Result<RunResult> RunAdmitted(const std::string& tenant, plan::Plan plan,
                                const RunOptions& opts,
                                catalog::Epoch admission_epoch);

  /// Adds one completion to the server.* metrics of the global registry and
  /// of the record's tenant scope (successful queries only). The only place
  /// those counters move.
  void CountCompletion(const obs::QueryRecord& rec);

  /// Recomputes the p50/p95/p99 latency and queue-wait gauges of `scope`
  /// from its live sketches (called on every completion).
  static void RefreshSloGauges(obs::MetricRegistry& scope);

  SessionOptions options_;
  std::unique_ptr<storage::Dfs> dfs_;
  std::unique_ptr<catalog::Catalog> catalog_;
  std::unique_ptr<catalog::ViewStore> views_;
  std::unique_ptr<udf::UdfRegistry> udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::unique_ptr<optimizer::CostAccountant> accountant_;
  std::unique_ptr<exec::hash::HashRecycler> recycler_;
  std::unique_ptr<exec::Engine> engine_;
  std::unique_ptr<rewrite::BfRewriter> bfr_;
  std::unique_ptr<server::AdmissionController> admission_;
  std::unique_ptr<obs::QueryLog> query_log_;  // null when capacity == 0

  mutable std::mutex tenants_mu_;
  /// Tenant -> private metric scope; pointers are stable (node-based map
  /// + unique_ptr), so handing a registry out of the lock is safe.
  std::map<std::string, std::unique_ptr<obs::MetricRegistry>> tenant_scopes_;
};

}  // namespace opd

#endif  // OPD_SERVER_SERVER_H_
