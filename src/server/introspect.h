// Live server introspection (DESIGN.md §3, "Introspection & query
// history"): the structured accessors behind `SHOW QUERIES`,
// `SHOW PROFILE <ticket>`, and `SHOW SERVER STATS`.
//
// Server::Introspect() collects a ServerStats struct from the server's
// per-tenant metric scopes, the admission gate, the view store, and the
// query log; the Render* functions turn those structs (and QueryLog
// records) into the text the shell prints. Rendering takes an
// IntrospectOptions whose `show_wall` flag separates the two audiences:
// interactive use (true — tickets, wall times, queue waits, percentiles)
// and determinism tests (false — only fields that are byte-identical
// between a concurrent run and its serial replay under pinned epochs).

#ifndef OPD_SERVER_INTROSPECT_H_
#define OPD_SERVER_INTROSPECT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/view_store.h"
#include "obs/query_log.h"
#include "server/admission.h"

namespace opd::server {

/// Rendering knobs for the SHOW surfaces.
struct IntrospectOptions {
  /// Include timing-dependent fields (tickets, wall/queue times, latency
  /// percentiles, recycler and slow-capture stats). With false, output is
  /// deterministic under pinned admission epochs.
  bool show_wall = true;
};

/// One tenant's SLO view: latency/queue-wait percentiles out of the
/// tenant's private `server.slo.latency_s` / `server.queue.wait_s`
/// sketches.
struct TenantSlo {
  std::string tenant;
  uint64_t queries = 0;
  double latency_p50_s = 0;
  double latency_p95_s = 0;
  double latency_p99_s = 0;
  double queue_wait_p50_s = 0;
  double queue_wait_p95_s = 0;
  double queue_wait_p99_s = 0;
};

/// \brief Everything `SHOW SERVER STATS` reports, as data.
struct ServerStats {
  uint64_t queries_completed = 0;
  uint64_t views_published = 0;
  uint64_t cross_tenant_reuse = 0;
  uint64_t recycle_hits = 0;
  uint64_t recycle_misses = 0;
  catalog::Epoch epoch = 0;       ///< Current view-store publish epoch.
  size_t views_in_store = 0;
  AdmissionController::Stats admission;
  obs::QueryLog::Stats querylog;
  TenantSlo global;               ///< Tenant sketches merged (tenant "all").
  std::vector<TenantSlo> tenants; ///< Per-tenant rows, name order.
};

/// `SHOW QUERIES`: one line per retained record, oldest first.
std::string RenderQueries(
    const std::vector<std::shared_ptr<const obs::QueryRecord>>& records,
    const IntrospectOptions& options = {});

/// `SHOW PROFILE <ticket>`: the record in long form plus the slow-query
/// capture (EXPLAIN ANALYZE tree, decision log) when one was retained.
std::string RenderProfile(const obs::QueryRecord& record,
                          const std::optional<obs::SlowQueryProfile>& profile,
                          const IntrospectOptions& options = {});

/// `SHOW SERVER STATS`: counters, store state, admission gate, query-log
/// stats, and (with show_wall) the SLO percentile table.
std::string RenderServerStats(const ServerStats& stats,
                              const IntrospectOptions& options = {});

}  // namespace opd::server

#endif  // OPD_SERVER_INTROSPECT_H_
