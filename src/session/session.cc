#include "session/session.h"

#include <cstdio>

#include "common/json_writer.h"

namespace opd {

namespace {

std::string FormatSeconds(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6gs", v);
  return buf;
}

}  // namespace

std::string RunResult::ExplainAnalyze(
    const exec::AnalyzeOptions& options) const {
  return exec::ExplainAnalyze(plan, jobs, metrics, options);
}

std::string RunResult::MetricsJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("exec").Raw(metrics.ToJson());
  w.Key("jobs").BeginArray();
  for (const exec::JobRun& jr : jobs) {
    w.BeginObject();
    w.Key("index").Int(jr.index);
    w.Key("op").String(jr.op);
    w.Key("sim_time_s").Double(jr.sim_time_s);
    w.Key("rows_out").UInt(jr.rows_out);
    w.Key("predicted_cost_s").Double(jr.predicted_cost_s);
    w.Key("observed_proxy_cost_s").Double(jr.observed_proxy_cost_s);
    w.Key("residual_pct").Double(jr.residual_pct);
    w.EndObject();
  }
  w.EndArray();
  w.Key("rewrite").BeginObject();
  w.Key("rewritten").Bool(rewritten);
  if (rewritten) {
    w.Key("improved").Bool(rewrite.improved);
    w.Key("original_cost_s").Double(rewrite.original_cost);
    w.Key("est_cost_s").Double(rewrite.est_cost);
    const rewrite::DecisionCounts c = rewrite.decisions.Counts();
    w.Key("decisions").BeginObject();
    w.Key("candidates").UInt(c.candidates);
    w.Key("accepted").UInt(c.accepted);
    w.Key("signature_mismatch").UInt(c.signature_mismatch);
    w.Key("filter_not_implied").UInt(c.filter_not_implied);
    w.Key("afk_containment").UInt(c.afk_containment);
    w.Key("not_cost_improving").UInt(c.not_cost_improving);
    w.Key("pruned_by_bound").UInt(c.pruned_by_bound);
    w.EndObject();
  }
  w.EndObject();
  w.Key("cost_model").BeginObject();
  w.Key("classes").BeginArray();
  for (const auto& d : cost_drifts) {
    w.BeginObject();
    w.Key("op_class").String(d.op_class);
    w.Key("ewma_residual_pct").Double(d.ewma_pct);
    w.Key("samples").UInt(d.samples);
    w.Key("stale").Bool(d.stale);
    w.EndObject();
  }
  w.EndArray();
  w.Key("stale").BeginArray();
  for (const auto& d : cost_drifts) {
    if (d.stale) w.String(d.op_class);
  }
  w.EndArray();
  w.EndObject();
  w.Key("serving").BeginObject();
  w.Key("tenant").String(tenant);
  w.Key("admission_epoch").UInt(admission_epoch);
  w.Key("publish_epoch").UInt(publish_epoch);
  w.Key("admission_ticket").UInt(admission_ticket);
  w.Key("queue_wait_s").Double(queue_wait_s);
  w.Key("views_used").BeginArray();
  for (const ViewUse& use : views_used) {
    w.BeginObject();
    w.Key("id").Int(use.id);
    w.Key("publish_epoch").UInt(use.publish_epoch);
    w.Key("tenant").String(use.tenant);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string RenderExplainRewrite(const rewrite::RewriteOutcome& outcome) {
  std::string out = "EXPLAIN REWRITE " + outcome.plan.name() + "\n";
  out += "views in store: " + std::to_string(outcome.decisions.views.size()) +
         "\n";
  out += "original cost: " + FormatSeconds(outcome.original_cost) +
         "  best cost: " + FormatSeconds(outcome.est_cost) +
         "  improved: " + (outcome.improved ? "yes" : "no") + "\n";
  out += "search: " +
         std::to_string(outcome.stats.candidates_considered) +
         " candidates considered, " +
         std::to_string(outcome.stats.rewrite_attempts) +
         " enum attempts, " + std::to_string(outcome.stats.rewrites_found) +
         " rewrites found\n";
  out += outcome.decisions.ToText();
  return out;
}

}  // namespace opd
