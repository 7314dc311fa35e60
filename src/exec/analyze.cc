#include "exec/analyze.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace opd::exec {

using plan::OpNode;
using plan::OpNodePtr;

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < 1024ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB",
                  static_cast<double>(bytes) / 1024.0);
  } else if (bytes < 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

namespace {

void Render(const OpNodePtr& node, int depth,
            const std::map<const OpNode*, const JobRun*>& job_of,
            const AnalyzeOptions& options,
            std::set<const OpNode*>* shared_printed, std::string* out) {
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += node->DisplayName();
  if (line.size() < 44) line.append(44 - line.size(), ' ');

  auto it = job_of.find(node.get());
  if (it == job_of.end()) {
    line += "  (scan)";
  } else {
    const JobRun& jr = *it->second;
    char buf[224];
    // Task counts are fused pipeline tasks ("p") + reduce buckets ("r").
    // time= is the cost model over the *observed* bytes; pred= is the
    // optimizer's plan-time estimate and resid= their signed gap (the
    // cost-model accountability signal).
    std::snprintf(buf, sizeof(buf),
                  "  [job %d] time=%.2fs pred=%.2fs resid=%+.1f%% "
                  "rows=%llu->%llu read=%s shuffled=%s "
                  "written=%s tasks=%zup+%zur",
                  jr.index, jr.sim_time_s, jr.predicted_cost_s,
                  jr.residual_pct,
                  static_cast<unsigned long long>(jr.rows_in),
                  static_cast<unsigned long long>(jr.rows_out),
                  HumanBytes(jr.bytes_read).c_str(),
                  HumanBytes(jr.bytes_shuffled).c_str(),
                  HumanBytes(jr.bytes_written).c_str(), jr.map_tasks,
                  jr.reduce_tasks);
    line += buf;
    // Hash-recycler outcome of this job, if it had a recyclable build
    // (join build side or group-by input scanning an unchanged table/view).
    if (jr.recycle_hits > 0) {
      line += " recycle=hit";
    } else if (jr.recycle_misses > 0) {
      line += " recycle=miss";
    }
    if (options.show_wall) {
      std::snprintf(buf, sizeof(buf), " wall=%.1fms straggler=%.2fms",
                    jr.wall_time_s * 1e3, jr.max_task_time_s * 1e3);
      line += buf;
    }
  }
  out->append(line);
  out->push_back('\n');

  // A shared subtree (a DAG materialization point) is expanded once.
  if (!shared_printed->insert(node.get()).second) return;
  for (const OpNodePtr& child : node->children) {
    if (shared_printed->count(child.get())) {
      std::string indent(static_cast<size_t>(depth + 1) * 2, ' ');
      out->append(indent + "(shared) " + child->DisplayName() + "\n");
      continue;
    }
    Render(child, depth + 1, job_of, options, shared_printed, out);
  }
}

}  // namespace

std::string ExplainAnalyze(const plan::Plan& plan,
                           const std::vector<JobRun>& jobs,
                           const ExecMetrics& metrics,
                           const AnalyzeOptions& options) {
  if (plan.empty()) return "<empty plan>\n";
  std::map<const OpNode*, const JobRun*> job_of;
  for (const JobRun& jr : jobs) {
    if (jr.node != nullptr) job_of[jr.node] = &jr;
  }
  std::string out;
  std::set<const OpNode*> shared_printed;
  Render(plan.root(), 0, job_of, options, &shared_printed, &out);
  double max_abs_resid = 0;
  for (const JobRun& jr : jobs) {
    if (std::fabs(jr.residual_pct) > std::fabs(max_abs_resid)) {
      max_abs_resid = jr.residual_pct;
    }
  }
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "jobs: %d  sim time: %.2fs (+stats %.2fs)  read: %s  "
                "shuffled: %s  written: %s  views: %d  max resid: %+.1f%%\n",
                metrics.jobs, metrics.sim_time_s, metrics.stats_time_s,
                HumanBytes(metrics.bytes_read).c_str(),
                HumanBytes(metrics.bytes_shuffled).c_str(),
                HumanBytes(metrics.bytes_written).c_str(),
                metrics.views_created, max_abs_resid);
  out += buf;
  return out;
}

}  // namespace opd::exec
