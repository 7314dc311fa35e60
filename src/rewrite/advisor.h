// View advisor: which retained views actually earn their storage?
//
// The paper (Section 10) frames limited-budget view retention as the view
// selection problem and suggests cost-benefit policies. The advisor supplies
// the benefit side: it rewrites a representative workload against the
// current store and attributes each query's estimated savings to the views
// its rewrite scans. The resulting ranking drives the kCostBenefit eviction
// policy (catalog/eviction.h) or manual cleanup.

#ifndef OPD_REWRITE_ADVISOR_H_
#define OPD_REWRITE_ADVISOR_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/view_store.h"
#include "common/status.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "rewrite/rewriter.h"

namespace opd::rewrite {

/// Benefit attribution for one view.
struct ViewScore {
  catalog::ViewId id = -1;
  /// Total estimated execution-time savings attributed to this view across
  /// the workload (equal shares among the views each rewrite scans).
  double total_benefit_s = 0;
  /// Number of workload queries whose best rewrite scans this view.
  int queries_helped = 0;
  uint64_t bytes = 0;
};

struct AdvisorReport {
  /// Views ranked by total benefit, descending; unused views excluded.
  std::vector<ViewScore> ranking;
  /// Total estimated savings across the workload.
  double total_benefit_s = 0;
  /// Queries for which any rewrite was found.
  int queries_improved = 0;
  int queries_total = 0;

  /// Views never used by any rewrite (eviction candidates).
  std::vector<catalog::ViewId> unused;

  std::string ToString(const catalog::ViewStore& store) const;
};

/// \brief Scores the current view store against a workload.
class ViewAdvisor {
 public:
  ViewAdvisor(const optimizer::Optimizer* optimizer,
              const catalog::ViewStore* views, RewriteOptions options = {})
      : optimizer_(optimizer), views_(views), options_(std::move(options)) {}

  /// Rewrites every query (in place: plans are prepared) and attributes the
  /// benefits. The store is not modified.
  Result<AdvisorReport> Analyze(std::vector<plan::Plan>* workload) const;

 private:
  const optimizer::Optimizer* optimizer_;
  const catalog::ViewStore* views_;
  RewriteOptions options_;
};

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_ADVISOR_H_
