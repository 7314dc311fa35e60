#include "server/introspect.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace opd::server {

namespace {

std::string Seconds(double s) {
  char buf[32];
  if (std::isnan(s)) return "n/a";
  std::snprintf(buf, sizeof(buf), "%.3fs", s);
  return buf;
}

std::string PercentileRow(const TenantSlo& slo, const std::string& label) {
  std::ostringstream os;
  os << "  " << label << ": queries=" << slo.queries
     << "  latency p50=" << Seconds(slo.latency_p50_s)
     << " p95=" << Seconds(slo.latency_p95_s)
     << " p99=" << Seconds(slo.latency_p99_s)
     << "  queue p50=" << Seconds(slo.queue_wait_p50_s)
     << " p95=" << Seconds(slo.queue_wait_p95_s)
     << " p99=" << Seconds(slo.queue_wait_p99_s) << "\n";
  return os.str();
}

}  // namespace

std::string RenderQueries(
    const std::vector<std::shared_ptr<const obs::QueryRecord>>& records,
    const IntrospectOptions& options) {
  std::ostringstream os;
  os << "queries: " << records.size() << "\n";
  for (const auto& rec : records) {
    os << "  ";
    if (options.show_wall) os << "[" << rec->ticket << "] ";
    os << rec->tenant << " epoch " << rec->admission_epoch << "->"
       << rec->publish_epoch << " " << rec->status;
    if (rec->status != "ok") os << " (" << rec->error << ")";
    os << " jobs=" << rec->jobs << " rows=" << rec->rows_in << "->"
       << rec->rows_out << " views=" << rec->views_used << "u/"
       << rec->views_published << "p";
    if (rec->cross_tenant_views > 0) {
      os << " cross=" << rec->cross_tenant_views;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), " exec=%.2fs", rec->exec_time_s);
    os << buf;
    if (options.show_wall) {
      std::snprintf(buf, sizeof(buf), " wall=%.3fs wait=%.3fs",
                    rec->wall_time_s, rec->queue_wait_s);
      os << buf << " recycle=" << rec->recycle_hits;
    }
    if (!rec->query.empty()) os << "  " << rec->query;
    os << "\n";
  }
  return os.str();
}

std::string RenderProfile(const obs::QueryRecord& record,
                          const std::optional<obs::SlowQueryProfile>& profile,
                          const IntrospectOptions& options) {
  std::ostringstream os;
  os << "profile";
  if (options.show_wall) os << " [" << record.ticket << "]";
  os << " tenant=" << record.tenant << " status=" << record.status << "\n";
  if (!record.query.empty()) os << "  query: " << record.query << "\n";
  if (!record.error.empty()) os << "  error: " << record.error << "\n";
  os << "  epochs: admitted=" << record.admission_epoch
     << " published=" << record.publish_epoch << "\n";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  exec: %.2fs over %llu jobs",
                record.exec_time_s,
                static_cast<unsigned long long>(record.jobs));
  os << buf << "\n";
  if (options.show_wall) {
    std::snprintf(buf, sizeof(buf),
                  "  wall: %.3fs (queued %.3fs)  recycle hits: %llu",
                  record.wall_time_s, record.queue_wait_s,
                  static_cast<unsigned long long>(record.recycle_hits));
    os << buf << "\n";
  }
  os << "  rows: " << record.rows_in << " in, " << record.rows_out
     << " out\n";
  os << "  views: " << record.views_used << " used ("
     << record.cross_tenant_views << " cross-tenant), "
     << record.views_published << " published\n";
  os << "  rewrite: candidates=" << record.rw_candidates << " accepted="
     << record.rw_accepted << " sig_mismatch=" << record.rw_signature_mismatch
     << " filter_not_implied=" << record.rw_filter_not_implied
     << " afk=" << record.rw_afk_containment << " not_improving="
     << record.rw_not_cost_improving << " pruned=" << record.rw_pruned_by_bound
     << "\n";
  std::snprintf(buf, sizeof(buf), "  max cost residual: %+.1f%%",
                record.max_residual_pct);
  os << buf << "\n";
  if (profile.has_value()) {
    os << "  --- slow-query capture ---\n";
    os << profile->explain_analyze;
    if (!profile->decision_log.empty()) {
      os << "  --- rewrite decisions ---\n" << profile->decision_log;
      if (profile->decision_log.back() != '\n') os << "\n";
    }
    if (!profile->trace_json.empty()) {
      os << "  trace: " << profile->trace_json.size() << " bytes captured\n";
    }
  }
  return os.str();
}

std::string RenderServerStats(const ServerStats& stats,
                              const IntrospectOptions& options) {
  std::ostringstream os;
  os << "server stats\n";
  os << "  queries completed: " << stats.queries_completed << "\n";
  os << "  view store: " << stats.views_in_store << " views at epoch "
     << stats.epoch << " (" << stats.views_published << " published, "
     << stats.cross_tenant_reuse << " cross-tenant reuses)\n";
  if (options.show_wall) {
    os << "  recycler: " << stats.recycle_hits << " hits, "
       << stats.recycle_misses << " misses\n";
  }
  os << "  admission: " << stats.admission.admitted << " admitted, "
     << stats.admission.running << " running, " << stats.admission.waiting
     << " waiting\n";
  os << "  query log: " << stats.querylog.appended << " appended, "
     << stats.querylog.dropped << " dropped";
  if (options.show_wall) {
    os << ", " << stats.querylog.slow_captured << " slow captured ("
       << stats.querylog.capture_bytes << " bytes, "
       << stats.querylog.slow_evicted << " evicted)";
  }
  os << "\n";
  if (options.show_wall) {
    os << "slo\n";
    os << PercentileRow(stats.global, "all");
    for (const TenantSlo& slo : stats.tenants) {
      os << PercentileRow(slo, slo.tenant);
    }
  }
  return os.str();
}

}  // namespace opd::server
