#include "rewrite/syntactic.h"

#include <chrono>
#include <map>

#include "plan/fingerprint.h"
#include "plan/job.h"

namespace opd::rewrite {

namespace {
constexpr double kEps = 1e-9;
}

Result<RewriteOutcome> SyntacticRewriter::Rewrite(plan::Plan* plan) const {
  OPD_RETURN_NOT_OK(optimizer_->Prepare(plan));
  OPD_ASSIGN_OR_RETURN(plan::JobDag dag, plan::JobDag::Build(*plan));
  const size_t n = dag.size();

  RewriteOutcome outcome;
  auto start = std::chrono::steady_clock::now();

  // Index stored views by fingerprint.
  std::map<std::string, const catalog::ViewDefinition*> by_fingerprint;
  for (const catalog::ViewDefinition* def : views_->All()) {
    by_fingerprint.emplace(def->fingerprint, def);
  }

  std::vector<double> dp_cost(n);
  std::vector<plan::OpNodePtr> dp_plan(n);
  for (size_t i = 0; i < n; ++i) {
    const plan::Job& job = dag.job(i);
    outcome.stats.candidates_considered += views_->size() > 0 ? 1 : 0;
    auto it = by_fingerprint.find(plan::Fingerprint(job.op));
    if (it != by_fingerprint.end()) {
      outcome.stats.rewrite_attempts += 1;
      outcome.stats.rewrites_found += 1;
      // The result is already materialized: reuse is a free scan.
      dp_cost[i] = 0;
      dp_plan[i] = plan::ScanView(it->second->id);
      continue;
    }
    double composed = job.op->cost.total_s;
    for (int p : job.producers) composed += dp_cost[p];
    bool any_rewritten = false;
    for (int p : job.producers) {
      if (dp_plan[p] != dag.job(p).op) any_rewritten = true;
    }
    if (any_rewritten) {
      plan::OpNodePtr node = plan::CopyOperator(*job.op);
      size_t producer_idx = 0;
      for (const plan::OpNodePtr& child : job.op->children) {
        if (child->kind == plan::OpKind::kScan) {
          node->children.push_back(child);
        } else {
          node->children.push_back(dp_plan[job.producers[producer_idx++]]);
        }
      }
      dp_plan[i] = std::move(node);
    } else {
      dp_plan[i] = job.op;
    }
    dp_cost[i] = composed;
  }

  outcome.original_cost = dag.TargetCost(dag.sink());
  outcome.plan = plan::Plan(dp_plan[dag.sink()], plan->name());
  outcome.est_cost = dp_cost[dag.sink()];
  outcome.improved = outcome.est_cost + kEps < outcome.original_cost;
  outcome.stats.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

}  // namespace opd::rewrite
