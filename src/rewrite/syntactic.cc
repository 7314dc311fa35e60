#include "rewrite/syntactic.h"

#include <chrono>
#include <map>
#include <optional>
#include <vector>

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

  std::vector<std::optional<plan::CostedPlan>> direct(n);
  for (size_t i = 0; i < n; ++i) {
    outcome.stats.candidates_considered += views_->size() > 0 ? 1 : 0;
    auto it = by_fingerprint.find(plan::Fingerprint(dag.job(i).op));
    if (it == by_fingerprint.end()) continue;
    outcome.stats.rewrite_attempts += 1;
    outcome.stats.rewrites_found += 1;
    // The result is already materialized: reuse is a free scan.
    direct[i] = plan::CostedPlan{plan::ScanView(it->second->id), 0};
  }

  const plan::CostedPlan best = dag.BestComposition(direct);
  outcome.original_cost = dag.TargetCost(dag.sink());
  outcome.plan = plan::Plan(best.root, plan->name());
  outcome.est_cost = best.cost;
  outcome.improved = outcome.est_cost + kEps < outcome.original_cost;
  outcome.stats.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

}  // namespace opd::rewrite
