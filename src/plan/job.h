// The MR job DAG W (Section 2.2): each non-scan plan node is one MR job that
// materializes its output; the prefix sub-graph ending at job i is the
// rewritable target W_i.

#ifndef OPD_PLAN_JOB_H_
#define OPD_PLAN_JOB_H_

#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "plan/plan.h"

namespace opd::plan {

/// One MR job (a non-scan operator node) and its DAG neighborhood.
struct Job {
  OpNodePtr op;
  /// Indices (into JobDag) of the jobs producing this job's inputs. A scan
  /// child contributes no producer (it reads base data directly).
  std::vector<int> producers;
  /// Indices of the jobs consuming this job's output.
  std::vector<int> consumers;
};

/// A plan for a target and its estimated cost.
struct CostedPlan {
  OpNodePtr root;
  double cost = 0;
};

/// \brief The job DAG of a plan, topologically ordered (producers first).
/// The sink (job n) computes the query result.
class JobDag {
 public:
  /// Builds the DAG from an *annotated* plan.
  static Result<JobDag> Build(const Plan& plan);

  size_t size() const { return jobs_.size(); }
  const Job& job(size_t i) const { return jobs_[i]; }
  int sink() const { return static_cast<int>(jobs_.size()) - 1; }

  /// COST(W_i): sum of the optimizer cost of job i and all its upstream jobs
  /// (requires the plan to have been costed).
  double TargetCost(size_t i) const;

  /// Job i's operator (scan children kept) over `plans[p]` for each
  /// producer p, and its cost given `costs[p]`: how an upstream rewrite
  /// propagates downstream.
  OpNodePtr Compose(size_t i, std::span<const OpNodePtr> plans) const;
  double ComposedCost(size_t i, std::span<const double> costs) const;

  /// The cheapest sink plan by DP over the jobs, given each job's best
  /// direct rewrite, if any: job i takes it if no costlier than the
  /// composition over its producers' choices, else that composition if a
  /// producer was rewritten and it beats the original, else the original.
  CostedPlan BestComposition(
      std::span<const std::optional<CostedPlan>> direct) const;

 private:
  std::vector<Job> jobs_;
};

}  // namespace opd::plan

#endif  // OPD_PLAN_JOB_H_
