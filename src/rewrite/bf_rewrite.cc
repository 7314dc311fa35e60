#include "rewrite/bf_rewrite.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "plan/fingerprint.h"
#include "plan/job.h"
#include "rewrite/candidate.h"
#include "rewrite/view_finder.h"

namespace opd::rewrite {

namespace {

constexpr double kEps = 1e-9;

/// The target-memo counters, resolved once: MetricRegistry::ResetAll
/// zeroes counters but never frees them.
obs::Counter& MemoCounter(bool hit) {
  static obs::Counter& hits =
      obs::MetricRegistry::Global().counter("rewrite.viewfinder.memo_hit");
  static obs::Counter& misses =
      obs::MetricRegistry::Global().counter("rewrite.viewfinder.memo_miss");
  return hit ? hits : misses;
}

/// Per-run search state (Algorithms 1-3 operate over this).
struct SearchState {
  const plan::JobDag* dag = nullptr;
  std::vector<plan::OpNodePtr> best_plan;
  std::vector<double> best_cost;
  std::vector<ViewFinder> finders;
  RewriteStats* stats = nullptr;
  /// The search's record; targets is pre-sized to the DAG, so element
  /// pointers stay stable.
  DecisionLog* log = nullptr;
  std::chrono::steady_clock::time_point start;

  double Elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  void RecordSinkImprovement() {
    stats->convergence.emplace_back(Elapsed(), best_cost[dag->sink()]);
  }

  // Algorithm 3: PROPBESTREWRITE: job i over its producers' best plans.
  void PropBestRewrite(int i) {
    double cost = dag->ComposedCost(i, best_cost);
    if (cost + kEps < best_cost[i]) {
      best_cost[i] = cost;
      best_plan[i] = dag->Compose(i, best_plan);
      if (i == dag->sink()) RecordSinkImprovement();
      for (int k : dag->job(i).consumers) PropBestRewrite(k);
    }
  }

  // Algorithm 2: REFINETARGET.
  void RefineTarget(int i) {
    auto result = finders[i].Refine();
    // Refine() recorded the candidate it just popped.
    TargetDecision& td = log->targets[static_cast<size_t>(i)];
    stats->candidates_considered += 1;
    if (td.pops.back().guess_complete) stats->rewrite_attempts += 1;
    if (!result.has_value()) return;
    stats->rewrites_found += result->rewrites_found;
    // Only the search loop knows whether the rewrite actually beat the
    // target's running best.
    if (!(result->cost + kEps < best_cost[i])) {
      td.pops.back().reject = RejectReason::kNotCostImproving;
      return;
    }
    // Demote the previously accepted candidate (if any): it is no longer
    // cheaper than the best, which is this one's definition of rejection.
    // Keeps the invariant "at most one accepted per target".
    if (td.chosen >= 0) {
      td.pops[static_cast<size_t>(td.chosen)].reject =
          RejectReason::kNotCostImproving;
    }
    td.chosen = static_cast<int>(td.pops.size()) - 1;
    best_cost[i] = result->cost;
    best_plan[i] = result->plan.root();
    if (i == dag->sink()) RecordSinkImprovement();
    for (int k : dag->job(i).consumers) PropBestRewrite(k);
  }

  // Algorithm 2: FINDNEXTMINTARGET. Returns (target index or -1, bound d).
  std::pair<int, double> FindNextMinTarget(int i) {
    double d_prime = 0;
    int w_min = -1;
    double d_min = std::numeric_limits<double>::infinity();
    for (int j : dag->job(i).producers) {
      auto [k, d] = FindNextMinTarget(j);
      d_prime += d;
      if (d < d_min && k != -1) {
        w_min = k;
        d_min = d;
      }
    }
    d_prime += dag->job(i).op->cost.total_s;
    const double d_i = finders[i].Peek();
    if (std::min(d_prime, d_i) >= best_cost[i] - kEps) {
      return {-1, best_cost[i]};
    }
    if (d_prime < d_i) {
      // With eager propagation, d' < BESTPLANCOST_i implies some producer
      // target is refinable; the defensive -1 covers numeric edge cases.
      return {w_min, d_prime};
    }
    return {i, d_i};
  }
};

}  // namespace

Result<RewriteOutcome> BfRewriter::Rewrite(plan::Plan* plan,
                                           obs::Trace* trace,
                                           uint64_t parent_span) const {
  // Single-tenant path: rewrite against everything currently published.
  return Rewrite(plan, views_->Snapshot(), trace, parent_span);
}

Result<RewriteOutcome> BfRewriter::Rewrite(plan::Plan* plan,
                                           const catalog::ViewSnapshot& snapshot,
                                           obs::Trace* trace,
                                           uint64_t parent_span) const {
  obs::TraceSpan rewrite_span(trace, parent_span, "rewrite", "rewrite");
  OPD_RETURN_NOT_OK(optimizer_->Prepare(plan));
  OPD_ASSIGN_OR_RETURN(plan::JobDag dag, plan::JobDag::Build(*plan));
  const size_t n = dag.size();

  RewriteOutcome outcome;
  SearchState state;
  state.dag = &dag;
  state.stats = &outcome.stats;
  state.start = std::chrono::steady_clock::now();

  EnumDeps deps;
  deps.optimizer = optimizer_;
  deps.views = &snapshot;
  deps.udfs = optimizer_->context().udfs;
  deps.options = options_;

  state.best_plan.resize(n);
  state.best_cost.resize(n);
  state.finders.resize(n);
  outcome.decisions.views = snapshot;
  outcome.decisions.targets.resize(n);
  state.log = &outcome.decisions;
  for (size_t i = 0; i < n; ++i) {
    state.best_plan[i] = dag.job(i).op;
    state.best_cost[i] = dag.TargetCost(i);
    TargetDecision& td = outcome.decisions.targets[i];
    td.target_index = static_cast<int>(i);
    td.target_op = dag.job(i).op;
    td.original_cost = state.best_cost[i];
    // Target-side setup is memoized on the subplan fingerprint (see
    // bf_rewrite.h): repeated structurally identical targets skip the
    // TargetContext derivation and the useful-signature computation.
    const std::string fp = plan::Fingerprint(dag.job(i).op);
    std::shared_ptr<const TargetSetup> setup;
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      auto it = target_memo_.find(fp);
      if (it != target_memo_.end()) setup = it->second;
    }
    MemoCounter(setup != nullptr).Inc();
    if (setup == nullptr) {
      setup = MakeTargetSetup(dag.job(i).op);
      std::lock_guard<std::mutex> lock(memo_mu_);
      if (target_memo_.size() >= kMaxTargetMemo &&
          target_memo_.count(fp) == 0) {
        target_memo_.clear();
      }
      target_memo_.emplace(fp, setup);
    }
    state.finders[i].Init(std::move(setup), deps, &td);
  }
  outcome.original_cost = state.best_cost[dag.sink()];
  outcome.stats.convergence.emplace_back(0.0, outcome.original_cost);

  // Algorithm 1: main loop.
  constexpr size_t kMaxIterations = 10'000'000;
  for (size_t iter = 0; iter < kMaxIterations; ++iter) {
    auto [target, d] = state.FindNextMinTarget(dag.sink());
    if (target == -1) break;
    obs::TraceSpan round_span(trace, rewrite_span.id(),
                              "round:" + std::to_string(iter), "rewrite");
    round_span.AddArg("target", static_cast<int64_t>(target));
    round_span.AddArg("peek_cost", d);
    state.RefineTarget(target);
    round_span.AddArg("best_cost", state.best_cost[dag.sink()]);
  }

  for (size_t i = 0; i < n; ++i) {
    state.finders[i].DrainPrunedDecisions();
    TargetDecision& td = outcome.decisions.targets[i];
    td.best_cost = state.best_cost[i];
    td.predicted_benefit_s = std::max(td.original_cost - td.best_cost, 0.0);
  }
  // The process-wide search-effort counters, resolved once like
  // MemoCounter, advance by this rewrite's RewriteStats.
  static obs::Counter& candidates =
      obs::MetricRegistry::Global().counter("rewrite.candidates_considered");
  static obs::Counter& attempts =
      obs::MetricRegistry::Global().counter("rewrite.attempts");
  static obs::Counter& found =
      obs::MetricRegistry::Global().counter("rewrite.found");
  candidates.Inc(outcome.stats.candidates_considered);
  attempts.Inc(outcome.stats.rewrite_attempts);
  found.Inc(outcome.stats.rewrites_found);
  outcome.plan = plan::Plan(state.best_plan[dag.sink()], plan->name());
  outcome.est_cost = state.best_cost[dag.sink()];
  outcome.improved = outcome.est_cost + kEps < outcome.original_cost;
  outcome.stats.runtime_s = state.Elapsed();
  if (rewrite_span) {
    rewrite_span.AddArg("original_cost", outcome.original_cost);
    rewrite_span.AddArg("est_cost", outcome.est_cost);
    rewrite_span.AddArg("improved", outcome.improved);
    rewrite_span.AddArg("candidates",
                        static_cast<uint64_t>(outcome.stats.candidates_considered));
  }
  return outcome;
}

}  // namespace opd::rewrite
