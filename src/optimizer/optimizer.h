// The query optimizer: annotation + cardinality estimation + job costing.
//
// Hive "lacks a mature query optimizer and cannot cost UDFs" (Section 2.1);
// like the paper's prototype we implement our own optimizer around the
// MRShare cost model, extended to UDFs via calibrated scalars.

#ifndef OPD_OPTIMIZER_OPTIMIZER_H_
#define OPD_OPTIMIZER_OPTIMIZER_H_

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "common/status.h"
#include "optimizer/cost_model.h"
#include "plan/annotate.h"
#include "plan/job.h"
#include "plan/plan.h"
#include "udf/udf_registry.h"

namespace opd::optimizer {

/// Selectivity defaults used when no better statistics exist.
struct OptimizerOptions {
  double cmp_selectivity = 0.33;
  double eq_selectivity = 0.05;
  double opaque_selectivity = 0.5;
  /// Width assumed for derived columns with no better information.
  double default_col_bytes = 8.0;
};

/// \brief Annotates plans and produces per-node cost estimates.
class Optimizer {
 public:
  Optimizer(plan::AnnotationContext ctx, CostModel model,
            OptimizerOptions options = {})
      : ctx_(ctx), model_(model), options_(options) {}

  /// PrepareNode over every node of `plan` in `Plan::TopoOrder` order,
  /// stopping at the first failure. Idempotent; resets previous estimates.
  Status Prepare(plan::Plan* plan,
                 const catalog::ViewSnapshot* views = nullptr) const;

  /// Total estimated cost of the plan: Prepare, summing the nodes' costs in
  /// `Plan::TopoOrder` order.
  Result<double> PlanCost(plan::Plan* plan,
                          const catalog::ViewSnapshot* views = nullptr) const;

  /// Annotates `node` (AFK + schema; kept if already annotated), estimates
  /// its cardinalities and costs its job. Its children must already be
  /// prepared: a plan built bottom-up, like REWRITEENUM's compensation
  /// chains, prepares each new node once. Resets the node's previous
  /// estimates. View scans resolve in `views` when given, else in the live
  /// store. The cost (`node->cost.total_s`) is never negative.
  Status PrepareNode(plan::OpNode* node,
                     const catalog::ViewSnapshot* views = nullptr) const;

  const CostModel& cost_model() const { return model_; }
  const plan::AnnotationContext& context() const { return ctx_; }
  const OptimizerOptions& options() const { return options_; }

 private:
  Status EstimateNode(plan::OpNode* node,
                      const plan::AnnotationContext& ctx) const;
  Status CostNode(plan::OpNode* node) const;

  plan::AnnotationContext ctx_;
  CostModel model_;
  OptimizerOptions options_;
};

}  // namespace opd::optimizer

#endif  // OPD_OPTIMIZER_OPTIMIZER_H_
