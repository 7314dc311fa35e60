#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "catalog/eviction.h"
#include "oql/parser.h"

namespace opd {

namespace {

// One SLO row: the query count and the p50/p95/p99 of a latency and a
// queue-wait sketch (NaN, rendered "n/a", for an empty sketch).
server::TenantSlo SloQuantiles(std::string tenant,
                               const obs::Histogram& latency,
                               const obs::Histogram& wait) {
  server::TenantSlo slo;
  slo.tenant = std::move(tenant);
  slo.queries = latency.count();
  slo.latency_p50_s = latency.Quantile(0.50);
  slo.latency_p95_s = latency.Quantile(0.95);
  slo.latency_p99_s = latency.Quantile(0.99);
  slo.queue_wait_p50_s = wait.Quantile(0.50);
  slo.queue_wait_p95_s = wait.Quantile(0.95);
  slo.queue_wait_p99_s = wait.Quantile(0.99);
  return slo;
}

// Normalizes OQL text for the one-line query-history record: drops `#`
// comments, trims the ends, and collapses internal whitespace runs
// (newlines included) to one space, so SHOW QUERIES stays line-oriented.
std::string CompactSource(const std::string& oql) {
  std::string out;
  out.reserve(oql.size());
  bool in_space = true;  // leading whitespace is dropped
  bool in_comment = false;
  for (char c : oql) {
    if (in_comment) {
      if (c == '\n') in_comment = false;
      continue;
    }
    if (c == '#') {
      in_comment = true;
      continue;
    }
    const bool space = c == ' ' || c == '\t' || c == '\n' || c == '\r';
    if (space) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace

// --- ClientSession ---------------------------------------------------------

Result<RunResult> ClientSession::Run(const std::string& oql,
                                     const RunOptions& opts) {
  return server_->Run(tenant_, oql, opts);
}

Result<RunResult> ClientSession::Run(plan::Plan plan, const RunOptions& opts) {
  return server_->Run(tenant_, std::move(plan), opts);
}

Result<std::string> ClientSession::ExplainAnalyze(const std::string& oql,
                                                  const RunOptions& opts) {
  OPD_ASSIGN_OR_RETURN(RunResult run, Run(oql, opts));
  return run.ExplainAnalyze();
}

Result<rewrite::RewriteOutcome> ClientSession::Rewrite(
    const std::string& oql) {
  return server_->Rewrite(oql);
}

Result<std::string> ClientSession::ExplainRewrite(const std::string& oql) {
  OPD_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome, Rewrite(oql));
  return RenderExplainRewrite(outcome);
}

// --- Server ----------------------------------------------------------------

Result<std::unique_ptr<Server>> Server::Create(SessionOptions options) {
  // obs.metrics is the single source of truth for the engine's own metrics.
  options.engine.metrics = options.obs.metrics;

  auto server = std::unique_ptr<Server>(new Server());
  server->options_ = options;
  server->dfs_ = std::make_unique<storage::Dfs>();
  server->catalog_ = std::make_unique<catalog::Catalog>();
  server->views_ = std::make_unique<catalog::ViewStore>();
  server->udfs_ = std::make_unique<udf::UdfRegistry>();

  plan::AnnotationContext ctx;
  ctx.catalog = server->catalog_.get();
  ctx.views = server->views_.get();
  ctx.udfs = server->udfs_.get();
  server->optimizer_ = std::make_unique<optimizer::Optimizer>(
      ctx, optimizer::CostModel(options.cost), options.optimizer);

  // The serving path owns view publication: the engine hands each run's
  // retained views back and RunAdmitted publishes them as one atomic batch
  // at query completion.
  server->engine_ = std::make_unique<exec::Engine>(
      server->dfs_.get(), server->optimizer_.get(), options.engine);

  optimizer::CostAccountant::Options acc_opts;
  acc_opts.publish_metrics = options.obs.metrics;
  server->accountant_ = std::make_unique<optimizer::CostAccountant>(acc_opts);
  server->engine_->set_accountant(server->accountant_.get());

  // One recycler per server: every tenant's queries share it (a build cached
  // by one tenant's join is a hit for every other tenant probing the same
  // table or published view).
  exec::hash::HashRecycler::Config recycler_cfg;
  recycler_cfg.budget_bytes = options.server.recycle_budget_bytes;
  server->recycler_ =
      std::make_unique<exec::hash::HashRecycler>(recycler_cfg);
  server->engine_->set_recycler(server->recycler_.get());
  server->bfr_ = std::make_unique<rewrite::BfRewriter>(
      server->optimizer_.get(), server->views_.get(), options.rewrite);

  server::AdmissionController::Options adm;
  adm.max_concurrent = options.server.max_concurrent_queries;
  adm.per_tenant_quota = options.server.per_tenant_quota;
  server->admission_ = std::make_unique<server::AdmissionController>(adm);

  if (options.server.query_log_capacity > 0) {
    obs::QueryLog::Options ql;
    ql.capacity = options.server.query_log_capacity;
    ql.jsonl_path = options.server.query_log_path;
    ql.slow_threshold_s = options.server.slow_query_threshold_s;
    ql.slow_capture_budget_bytes = options.server.slow_query_capture_bytes;
    ql.registry = options.obs.metrics ? &obs::MetricRegistry::Global() : nullptr;
    server->query_log_ = std::make_unique<obs::QueryLog>(ql);
  }
  if (options.obs.metrics) {
    // Eager registration: the server.slo.* / server.querylog.* families
    // exist from startup (so exposition and the metric-name lint see them
    // before the first completion touches each one).
    obs::MetricRegistry& global = obs::MetricRegistry::Global();
    global.histogram("server.slo.latency_s");
    for (const char* name :
         {"server.slo.latency_p50", "server.slo.latency_p95",
          "server.slo.latency_p99", "server.slo.queue_wait_p50",
          "server.slo.queue_wait_p95", "server.slo.queue_wait_p99"}) {
      global.gauge(name);
    }
    for (const char* name :
         {"server.querylog.appended", "server.querylog.dropped",
          "server.querylog.slow_captured", "server.querylog.slow_evicted"}) {
      global.counter(name);
    }
    global.gauge("server.querylog.capture_bytes");
  }
  return server;
}

Server::~Server() = default;

ClientSession Server::Connect(const std::string& tenant) {
  return ClientSession(this, tenant.empty() ? "default" : tenant);
}

Status Server::RegisterTable(const storage::TablePtr& table,
                             const std::vector<std::string>& key_columns) {
  return catalog_->RegisterBase(table, key_columns, dfs_.get());
}

Result<RunResult> Server::Run(const std::string& tenant,
                              const std::string& oql,
                              const RunOptions& opts) {
  OPD_ASSIGN_OR_RETURN(plan::Plan plan, oql::ParseQuery(oql));
  return RunWithSource(tenant, std::move(plan), opts, CompactSource(oql));
}

Result<RunResult> Server::Run(const std::string& tenant_in, plan::Plan plan,
                              const RunOptions& opts) {
  return RunWithSource(tenant_in, std::move(plan), opts, /*source=*/"");
}

Result<RunResult> Server::RunWithSource(const std::string& tenant_in,
                                        plan::Plan plan,
                                        const RunOptions& opts,
                                        const std::string& source) {
  const std::string tenant = !opts.tenant.empty()  ? opts.tenant
                             : !tenant_in.empty()  ? tenant_in
                                                   : "default";
  // --- Admission ----------------------------------------------------------
  const auto wait_start = std::chrono::steady_clock::now();
  uint64_t ticket = 0;
  if (opts.admission.fail_fast) {
    OPD_ASSIGN_OR_RETURN(ticket, admission_->TryAdmit(tenant));
  } else {
    ticket = admission_->Admit(tenant);
  }
  const double queue_wait_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wait_start)
          .count();
  // The admission epoch decides exactly which views this query may see:
  // everything published before this point, nothing publishing after.
  const catalog::Epoch admission_epoch =
      opts.admission.pin_epoch >= 0
          ? static_cast<catalog::Epoch>(opts.admission.pin_epoch)
          : views_->epoch();

  const auto exec_start = std::chrono::steady_clock::now();
  Result<RunResult> run =
      RunAdmitted(tenant, std::move(plan), opts, admission_epoch);
  const double wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    exec_start)
          .count();
  admission_->Release(tenant);

  // --- The query's record ------------------------------------------------
  // Every completion — success or failure — yields one QueryRecord, and
  // every observability surface reads it: the server.* counters, the query
  // log and the slow-query capture. Failed queries get a record too, so
  // they stay visible to SHOW QUERIES.
  obs::QueryRecord rec;
  rec.tenant = tenant;
  rec.query = source;
  rec.ticket = ticket;
  rec.admission_epoch = admission_epoch;
  rec.queue_wait_s = queue_wait_s;
  rec.wall_time_s = wall_time_s;
  if (run.ok()) {
    rec.publish_epoch = run->publish_epoch;
    rec.exec_time_s = run->metrics.TotalTime();
    rec.rows_in = run->metrics.rows_read;
    rec.rows_out = run->table != nullptr ? run->table->num_rows() : 0;
    rec.jobs = static_cast<uint64_t>(run->metrics.jobs);
    rec.views_used = run->views_used.size();
    for (const ViewUse& use : run->views_used) {
      if (!use.tenant.empty() && use.tenant != tenant) {
        ++rec.cross_tenant_views;
      }
    }
    rec.views_published = static_cast<uint64_t>(run->metrics.views_created);
    for (const exec::JobRun& jr : run->jobs) {
      rec.recycle_hits += jr.recycle_hits;
      rec.recycle_misses += jr.recycle_misses;
      if (std::fabs(jr.residual_pct) > std::fabs(rec.max_residual_pct)) {
        rec.max_residual_pct = jr.residual_pct;
      }
    }
    if (run->rewritten) {
      const rewrite::DecisionCounts counts = run->rewrite.decisions.Counts();
      rec.rw_candidates = counts.candidates;
      rec.rw_accepted = counts.accepted;
      rec.rw_signature_mismatch = counts.signature_mismatch;
      rec.rw_filter_not_implied = counts.filter_not_implied;
      rec.rw_afk_containment = counts.afk_containment;
      rec.rw_not_cost_improving = counts.not_cost_improving;
      rec.rw_pruned_by_bound = counts.pruned_by_bound;
    }
  } else {
    rec.status = "error";
    rec.error = run.status().ToString();
  }
  CountCompletion(rec);
  if (query_log_ != nullptr) {
    query_log_->Append(std::move(rec));
    if (run.ok() && query_log_->ShouldCapture(wall_time_s)) {
      obs::SlowQueryProfile profile;
      profile.ticket = ticket;
      profile.tenant = tenant;
      profile.wall_time_s = wall_time_s;
      profile.explain_analyze = run->ExplainAnalyze();
      if (run->rewritten) {
        profile.decision_log = run->rewrite.decisions.ToText();
      }
      if (run->trace != nullptr) {
        profile.trace_json = run->trace->ToChromeJson();
      }
      query_log_->CaptureSlow(std::move(profile));
    }
  }
  if (!run.ok()) return run;

  run->tenant = tenant;
  run->admission_ticket = ticket;
  run->queue_wait_s = queue_wait_s;
  return run;
}

void Server::CountCompletion(const obs::QueryRecord& rec) {
  // Registers the tenant (Tenants()) even when metrics are off or it failed.
  obs::MetricRegistry& scope = TenantRegistry(rec.tenant);
  if (!options_.obs.metrics || rec.status != "ok") return;
  obs::MetricRegistry& global = obs::MetricRegistry::Global();
  if (rec.views_published > 0) {
    global.counter("engine.views_created").Inc(rec.views_published);
  }
  for (obs::MetricRegistry* reg : {&global, &scope}) {
    reg->counter("server.queries.completed").Inc();
    reg->counter("server.views.published").Inc(rec.views_published);
    reg->counter("server.views.cross_reuse").Inc(rec.cross_tenant_views);
    // Per-tenant recycler attribution: the engine's engine.recycle.*
    // counters are global (pool threads can't know the tenant), so the
    // per-job outcomes are re-attributed here in the tenant scope.
    reg->counter("server.recycle.hits").Inc(rec.recycle_hits);
    reg->counter("server.recycle.misses").Inc(rec.recycle_misses);
    reg->histogram("server.queue.wait_s").Observe(rec.queue_wait_s);
    reg->histogram("server.slo.latency_s").Observe(rec.wall_time_s);
    RefreshSloGauges(*reg);
  }
}

void Server::RefreshSloGauges(obs::MetricRegistry& scope) {
  const server::TenantSlo slo =
      SloQuantiles("", scope.histogram("server.slo.latency_s"),
                   scope.histogram("server.queue.wait_s"));
  scope.gauge("server.slo.latency_p50").Set(slo.latency_p50_s);
  scope.gauge("server.slo.latency_p95").Set(slo.latency_p95_s);
  scope.gauge("server.slo.latency_p99").Set(slo.latency_p99_s);
  scope.gauge("server.slo.queue_wait_p50").Set(slo.queue_wait_p50_s);
  scope.gauge("server.slo.queue_wait_p95").Set(slo.queue_wait_p95_s);
  scope.gauge("server.slo.queue_wait_p99").Set(slo.queue_wait_p99_s);
}

Result<RunResult> Server::RunAdmitted(const std::string& tenant,
                                      plan::Plan plan, const RunOptions& opts,
                                      catalog::Epoch admission_epoch) {
  RunResult out;
  out.admission_epoch = admission_epoch;
  if (options_.obs.tracing) out.trace = std::make_shared<obs::Trace>();
  obs::Trace* trace = out.trace.get();
  obs::TraceSpan query_span(trace, 0, "query:" + plan.name(), "query");

  if (opts.rewrite) {
    const catalog::ViewSnapshot snapshot = views_->SnapshotAt(admission_epoch);
    OPD_ASSIGN_OR_RETURN(out.rewrite,
                         bfr_->Rewrite(&plan, snapshot, trace,
                                       query_span.id()));
    out.rewritten = true;
    // Credit the views the rewrite uses (drives the retention policies).
    OPD_RETURN_NOT_OK(catalog::RecordPlanAccesses(
        views_.get(), out.rewrite.plan,
        std::max(out.rewrite.original_cost - out.rewrite.est_cost, 0.0)));
    plan = out.rewrite.plan;
    // Record which views the executed plan scans, resolved against the
    // admission snapshot (proves no half-published view was observed and
    // surfaces cross-tenant reuse).
    for (const plan::OpNodePtr& node : plan.TopoOrder()) {
      if (node->kind != plan::OpKind::kScan || node->view_id < 0) continue;
      ViewUse use;
      use.id = node->view_id;
      Result<const catalog::ViewDefinition*> def = snapshot.Find(node->view_id);
      if (def.ok()) {
        use.publish_epoch = (*def)->publish_epoch;
        use.tenant = (*def)->tenant;
      }
      out.views_used.push_back(use);
    }
  }

  OPD_ASSIGN_OR_RETURN(exec::ExecResult exec,
                       engine_->Execute(&plan, trace, query_span.id()));

  // --- Atomic view publication at completion ------------------------------
  // One PublishBatch per query — also when the batch is empty — so the
  // epoch sequence counts completed queries and a recorded schedule can be
  // replayed serially, epoch for epoch. A view the store deduplicates
  // leaves the copy the engine already wrote to the DFS unreferenced, so
  // each pending view's path is kept to delete that copy.
  std::vector<std::string> paths;
  paths.reserve(exec.pending_views.size());
  for (catalog::ViewDefinition& def : exec.pending_views) {
    def.tenant = tenant;
    paths.push_back(def.dfs_path);
  }
  catalog::Epoch publish_epoch = 0;
  const std::vector<catalog::ViewStore::PublishResult> published =
      views_->PublishBatch(std::move(exec.pending_views), &publish_epoch);
  exec.pending_views.clear();
  out.publish_epoch = publish_epoch;
  for (size_t i = 0; i < published.size(); ++i) {
    if (published[i].added) {
      ++exec.metrics.views_created;
    } else {
      (void)dfs_->Delete(paths[i]);  // cannot fail: the engine wrote it
    }
  }
  // Publishing never drops a view, but Drop, DropAll and ViewRetention can
  // drop views between queries; sweep the recycled builds of every view
  // dropped since the last query. Entries keyed at older epochs of a
  // still-alive view die naturally: their RecycleKey embeds the publish
  // epoch, so nothing can look them up, and the byte budget reclaims them
  // as their benefit-per-byte decays.
  recycler_->InvalidateViews(
      [this](int64_t id) { return views_->Has(id); });
  query_span.End();

  out.table = std::move(exec.table);
  out.metrics = exec.metrics;
  out.jobs = std::move(exec.jobs);
  out.plan = std::move(plan);
  out.cost_drifts = accountant_->Drifts();
  return out;
}

Result<rewrite::RewriteOutcome> Server::Rewrite(const std::string& oql) {
  OPD_ASSIGN_OR_RETURN(plan::Plan plan, oql::ParseQuery(oql));
  // No trace, no view-access credit: this is a read-only search, so running
  // it must not perturb retention policies or metrics-driven decisions.
  return bfr_->Rewrite(&plan, /*trace=*/nullptr, /*parent_span=*/0);
}

server::ServerStats Server::Introspect() {
  // Counters and sketches come from this server's tenant scopes: the global
  // registry also counts the queries of every other server in the process.
  server::ServerStats stats;
  obs::Histogram latency, wait;
  for (const std::string& tenant : Tenants()) {
    obs::MetricRegistry& scope = TenantRegistry(tenant);
    auto count = [&scope](const char* name) {
      return scope.counter(name).value();
    };
    stats.queries_completed += count("server.queries.completed");
    stats.views_published += count("server.views.published");
    stats.cross_tenant_reuse += count("server.views.cross_reuse");
    stats.recycle_hits += count("server.recycle.hits");
    stats.recycle_misses += count("server.recycle.misses");
    const obs::Histogram& tenant_latency =
        scope.histogram("server.slo.latency_s");
    const obs::Histogram& tenant_wait = scope.histogram("server.queue.wait_s");
    latency.MergeFrom(tenant_latency);
    wait.MergeFrom(tenant_wait);
    stats.tenants.push_back(SloQuantiles(tenant, tenant_latency, tenant_wait));
  }
  stats.global = SloQuantiles("all", latency, wait);
  stats.epoch = views_->epoch();
  stats.views_in_store = views_->size();
  stats.admission = admission_->stats();
  if (query_log_ != nullptr) stats.querylog = query_log_->stats();
  return stats;
}

std::vector<std::string> Server::Tenants() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  std::vector<std::string> names;
  names.reserve(tenant_scopes_.size());
  for (const auto& [name, _] : tenant_scopes_) names.push_back(name);
  return names;
}

obs::MetricRegistry& Server::TenantRegistry(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenant_scopes_.find(tenant);
  if (it == tenant_scopes_.end()) {
    it = tenant_scopes_
             .emplace(tenant, std::make_unique<obs::MetricRegistry>())
             .first;
  }
  return *it->second;
}

obs::MetricsSnapshot Server::TenantSnapshot(const std::string& tenant) {
  return obs::MetricsSnapshot::Capture(TenantRegistry(tenant));
}

}  // namespace opd
