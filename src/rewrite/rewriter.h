// Shared types for the rewrite algorithms: options, search statistics, and
// the common outcome structure returned by BFRewrite, the DP baseline, and
// the syntactic-caching baseline.

#ifndef OPD_REWRITE_REWRITER_H_
#define OPD_REWRITE_REWRITER_H_

#include <string>
#include <utility>
#include <vector>

#include "plan/plan.h"
#include "rewrite/decision_log.h"

namespace opd::rewrite {

/// Knobs shared by all rewrite algorithms (Section 5: J and k; Section 8.2
/// defaults J = 4, k = 2).
struct RewriteOptions {
  /// J: maximum number of views that can participate in one rewrite.
  int max_views_per_rewrite = 4;
  /// k: maximum number of times one operator instance may appear in a
  /// rewrite's compensation.
  int max_op_repetition = 2;
  /// Safety caps for the exhaustive DP baseline (see dp_rewrite.h).
  size_t dp_candidate_budget = 200000;
  double dp_time_budget_s = 300.0;
};

/// Search-effort counters (the paper's Figure 9 metrics).
struct RewriteStats {
  /// Candidate views examined (ViewFinder pops / DP enumerations).
  size_t candidates_considered = 0;
  /// REWRITEENUM invocations.
  size_t rewrite_attempts = 0;
  /// Valid rewrites found during the search.
  size_t rewrites_found = 0;
  /// Algorithm runtime in seconds (search only, not execution).
  double runtime_s = 0;
  /// (elapsed seconds, best-known plan cost) at each improvement — the
  /// Figure 11 convergence trace. The first entry is the original plan cost.
  std::vector<std::pair<double, double>> convergence;
  /// True if a DP budget cap cut the search short.
  bool budget_exceeded = false;
};

/// Result of rewriting one query plan.
struct RewriteOutcome {
  /// The minimum-cost plan found (the original plan when nothing better
  /// exists).
  plan::Plan plan;
  double est_cost = 0;
  double original_cost = 0;
  bool improved = false;
  RewriteStats stats;
  /// Per-target decision audit trail (candidates enumerated, reject
  /// reasons, OPTCOST estimates, chosen rewrite), the record behind EXPLAIN
  /// REWRITE. Always filled by BFREWRITE; empty for the DP and syntactic
  /// baselines.
  DecisionLog decisions;
};

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_REWRITER_H_
