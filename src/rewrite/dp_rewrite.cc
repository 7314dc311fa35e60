#include "rewrite/dp_rewrite.h"

#include <chrono>
#include <limits>
#include <set>

#include "plan/job.h"
#include "rewrite/merge.h"
#include "rewrite/rewrite_enum.h"

namespace opd::rewrite {

namespace {

constexpr double kEps = 1e-9;

struct Budget {
  size_t max_candidates;
  double max_seconds;
  std::chrono::steady_clock::time_point start;
  size_t used = 0;
  bool exceeded = false;

  bool Charge() {
    ++used;
    if (used > max_candidates) {
      exceeded = true;
      return false;
    }
    if ((used & 0x3ff) == 0) {
      double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed > max_seconds) {
        exceeded = true;
        return false;
      }
    }
    return true;
  }
};

}  // namespace

Result<RewriteOutcome> DpRewriter::Rewrite(plan::Plan* plan) const {
  OPD_RETURN_NOT_OK(optimizer_->Prepare(plan));
  OPD_ASSIGN_OR_RETURN(plan::JobDag dag, plan::JobDag::Build(*plan));
  const size_t n = dag.size();

  RewriteOutcome outcome;
  auto start = std::chrono::steady_clock::now();

  const catalog::ViewSnapshot snapshot = views_->Snapshot();
  EnumDeps deps;
  deps.optimizer = optimizer_;
  deps.views = &snapshot;
  deps.udfs = optimizer_->context().udfs;
  deps.options = options_;

  Budget budget{options_.dp_candidate_budget, options_.dp_time_budget_s,
                start};

  const auto all_views = snapshot.All();

  // Per-target exhaustive search: every view is a candidate (no relevance
  // screening — the paper's DP "searches exhaustively for rewrites at every
  // target" with no OPTCOST guidance and no early termination).
  std::vector<std::optional<EnumResult>> found(n);
  for (size_t i = 0; i < n && !budget.exceeded; ++i) {
    TargetContext target = MakeTargetContext(dag.job(i).op);
    const auto useful = UsefulSignatures(target.afk);

    std::vector<CandidateView> space;
    std::set<std::string> ids;
    for (const catalog::ViewDefinition* def : all_views) {
      CandidateView c = MakeBaseCandidate(*def);
      c.coverage = ComputeCoverage(c.afk, useful);
      if (ids.insert(c.Id()).second) space.push_back(std::move(c));
    }
    const size_t num_singles = space.size();
    // Closure: merge every candidate with every *single* view (left-deep
    // generation covers all subsets up to J), with the standard usefulness
    // rule: each side must contribute an attribute the other lacks.
    for (size_t a = 0; a < space.size() && !budget.exceeded; ++a) {
      for (size_t b = 0; b < num_singles; ++b) {
        if (!budget.Charge()) break;
        Coverage combined =
            CoverageUnion(space[a].coverage, space[b].coverage);
        if (CoverageEqual(combined, space[a].coverage) ||
            CoverageEqual(combined, space[b].coverage)) {
          continue;
        }
        auto merged = MergeCandidates(space[a], space[b],
                                      options_.max_views_per_rewrite);
        if (!merged.has_value()) continue;
        if (ids.insert(merged->Id()).second) {
          merged->coverage = std::move(combined);
          space.push_back(std::move(*merged));
        }
      }
    }

    // Attempt a rewrite with every candidate — no GUESSCOMPLETE screening:
    // the exhaustive baseline pays for a full REWRITEENUM on each.
    for (const CandidateView& candidate : space) {
      if (!budget.Charge()) break;
      outcome.stats.candidates_considered += 1;
      outcome.stats.rewrite_attempts += 1;
      OPD_ASSIGN_OR_RETURN(std::optional<EnumResult> result,
                           RewriteEnum(target, candidate, deps));
      if (!result.has_value()) continue;
      outcome.stats.rewrites_found += result->rewrites_found;
      if (!found[i].has_value() || result->cost < found[i]->cost) {
        found[i] = std::move(result);
      }
    }
  }

  // Dynamic programming over the job DAG: for each job, the cheaper of the
  // best direct rewrite and the composition of its producers' solutions.
  std::vector<double> dp_cost(n);
  std::vector<plan::OpNodePtr> dp_plan(n);
  for (size_t i = 0; i < n; ++i) {
    const plan::Job& job = dag.job(i);
    double composed = job.op->cost.total_s;
    for (int p : job.producers) composed += dp_cost[p];

    bool any_producer_rewritten = false;
    for (int p : job.producers) {
      if (dp_plan[p] != dag.job(p).op) any_producer_rewritten = true;
    }

    if (found[i].has_value() && found[i]->cost <= composed) {
      dp_cost[i] = found[i]->cost;
      dp_plan[i] = found[i]->plan.root();
    } else if (any_producer_rewritten && composed + kEps <
                                             dag.TargetCost(i)) {
      // Compose the original operator over the producers' solutions.
      plan::OpNodePtr node = plan::CopyOperator(*job.op);
      size_t producer_idx = 0;
      for (const plan::OpNodePtr& child : job.op->children) {
        if (child->kind == plan::OpKind::kScan) {
          node->children.push_back(child);
        } else {
          node->children.push_back(dp_plan[job.producers[producer_idx++]]);
        }
      }
      dp_cost[i] = composed;
      dp_plan[i] = std::move(node);
    } else {
      dp_cost[i] = std::min(composed, dag.TargetCost(i));
      dp_plan[i] = job.op;
    }
  }

  outcome.original_cost = dag.TargetCost(dag.sink());
  outcome.plan = plan::Plan(dp_plan[dag.sink()], plan->name());
  outcome.est_cost = dp_cost[dag.sink()];
  outcome.improved = outcome.est_cost + kEps < outcome.original_cost;
  outcome.stats.budget_exceeded = budget.exceeded;
  outcome.stats.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

}  // namespace opd::rewrite
