// The dynamic-programming baseline (Section 5, Section 8.2 "DP"): searches
// exhaustively for the best rewrite at every target independently — fully
// exploding the merged-candidate space up-front, with no OPTCOST ordering
// and no early termination — then composes the optimal whole-plan rewrite
// with dynamic programming over the job DAG.
//
// The space grows through MergeUseful, as VIEWFINDER's does, and the DAG
// step is plan::JobDag::BestComposition, as BFR-SYNTACTIC's is. Unlike
// VIEWFINDER's INIT, DP keeps the views whose filters a target does not
// imply: it attempts every candidate. Each target gets its own TargetSetup
// and goes through the same memoized RewriteEnum, so candidates sharing an
// AFK share one DFS (their attempts are still counted one by one).
//
// Produces the same r* as BFREWRITE but does far more work, so two caps
// bound it, either one setting `budget_exceeded`: `dp_candidate_budget`
// counts the candidates added to the per-target spaces (views and merges,
// each attempted once: a finished search reports that count as
// `candidates_considered`), and `dp_time_budget_s` the wall time, checked
// in the merge closure too.

#ifndef OPD_REWRITE_DP_REWRITE_H_
#define OPD_REWRITE_DP_REWRITE_H_

#include "catalog/view_store.h"
#include "common/status.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "rewrite/rewriter.h"

namespace opd::rewrite {

/// \brief Exhaustive DP rewriter (the paper's comparison baseline).
class DpRewriter {
 public:
  DpRewriter(const optimizer::Optimizer* optimizer,
             const catalog::ViewStore* views, RewriteOptions options = {})
      : optimizer_(optimizer), views_(views), options_(std::move(options)) {}

  Result<RewriteOutcome> Rewrite(plan::Plan* plan) const;

 private:
  const optimizer::Optimizer* optimizer_;
  const catalog::ViewStore* views_;
  RewriteOptions options_;
};

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_DP_REWRITE_H_
