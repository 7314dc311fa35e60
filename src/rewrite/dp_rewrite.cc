#include "rewrite/dp_rewrite.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "plan/job.h"
#include "rewrite/merge.h"
#include "rewrite/rewrite_enum.h"

namespace opd::rewrite {

namespace {

constexpr double kEps = 1e-9;

/// DP's two safety caps (dp_rewrite.h).
struct Budget {
  size_t max_candidates;
  double max_seconds;
  std::chrono::steady_clock::time_point start;
  size_t candidates = 0;
  size_t ticks = 0;
  bool exceeded = false;

  /// Charges one candidate added to a target's space.
  bool AddCandidate() {
    if (++candidates > max_candidates) exceeded = true;
    return Tick();
  }

  /// One step of work (a candidate added, a merge pair tried or a rewrite
  /// attempted): reads the clock every 1024 steps.
  bool Tick() {
    if (!exceeded && (++ticks & 0x3ff) == 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() > max_seconds) {
      exceeded = true;
    }
    return !exceeded;
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
  std::vector<std::optional<plan::CostedPlan>> found(n);
  for (size_t i = 0; i < n && !budget.exceeded; ++i) {
    // The target's own setup, so candidates sharing an AFK (and a DP space
    // has many) share one REWRITEENUM DFS, as in VIEWFINDER.
    const std::shared_ptr<const TargetSetup> setup =
        MakeTargetSetup(dag.job(i).op);

    std::vector<CandidateView> space;
    for (const catalog::ViewDefinition* def : all_views) {
      if (!budget.AddCandidate()) break;
      CandidateView c = MakeBaseCandidate(*def);
      c.coverage = ComputeCoverage(c.afk, setup->useful_sigs);
      space.push_back(std::move(c));
    }
    const size_t num_singles = space.size();
    // Closure: merge every candidate with every *single* view (left-deep
    // generation covers all subsets up to J) under MERGE's usefulness rule.
    // Sorted parts of every merge added (base view ids are unique).
    std::set<std::vector<catalog::ViewId>> merged_parts;
    for (size_t a = 0; a < space.size() && !budget.exceeded; ++a) {
      for (size_t b = 0; b < num_singles; ++b) {
        if (!budget.Tick()) break;
        auto merged = MergeUseful(space[a], space[b],
                                  options_.max_views_per_rewrite);
        if (!merged.has_value()) continue;
        std::vector<catalog::ViewId> key = merged->parts;
        std::sort(key.begin(), key.end());
        if (!merged_parts.insert(std::move(key)).second) continue;
        if (!budget.AddCandidate()) break;
        space.push_back(std::move(*merged));
      }
    }

    // Attempt a rewrite with every candidate — no GUESSCOMPLETE screening:
    // the exhaustive baseline pays for a full REWRITEENUM on each.
    for (const CandidateView& candidate : space) {
      if (!budget.Tick()) break;
      outcome.stats.candidates_considered += 1;
      outcome.stats.rewrite_attempts += 1;
      std::optional<EnumResult> result = RewriteEnum(*setup, candidate, deps);
      if (!result.has_value()) continue;
      outcome.stats.rewrites_found += result->rewrites_found;
      if (!found[i].has_value() || result->cost < found[i]->cost) {
        found[i] = plan::CostedPlan{result->plan.root(), result->cost};
      }
    }
  }

  // Dynamic programming over the job DAG: for each job, the cheaper of the
  // best direct rewrite and the composition of its producers' solutions.
  const plan::CostedPlan best = dag.BestComposition(found);
  outcome.original_cost = dag.TargetCost(dag.sink());
  outcome.plan = plan::Plan(best.root, plan->name());
  outcome.est_cost = best.cost;
  outcome.improved = outcome.est_cost + kEps < outcome.original_cost;
  outcome.stats.budget_exceeded = budget.exceeded;
  outcome.stats.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

}  // namespace opd::rewrite
