// Plan annotation (Section 3.2): computes the (A, F, K) annotation, aligned
// output attributes, and output schema of every node in a plan, bottom-up.
//
// The same attribute-construction helpers are used by the rewriter when it
// replays compensation operators symbolically, guaranteeing that identical
// computations yield identical attribute signatures.

#ifndef OPD_PLAN_ANNOTATE_H_
#define OPD_PLAN_ANNOTATE_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "common/status.h"
#include "plan/plan.h"
#include "udf/udf_registry.h"

namespace opd::plan {

/// Everything annotation needs to resolve names.
struct AnnotationContext {
  const catalog::Catalog* catalog = nullptr;
  const catalog::ViewStore* views = nullptr;
  const udf::UdfRegistry* udfs = nullptr;
  /// When set, view scans resolve in this snapshot instead of the live
  /// store: a rewrite costs its candidate plans against the snapshot it
  /// searches, so a concurrent Drop cannot fail it.
  const catalog::ViewSnapshot* snapshot = nullptr;

  Result<const catalog::ViewDefinition*> FindView(catalog::ViewId id) const {
    return snapshot != nullptr ? snapshot->Find(id) : views->Find(id);
  }
};

/// Annotates every node of `plan` (idempotent per node). Fails on unresolved
/// names, duplicate output names, or model/implementation schema drift.
Status AnnotatePlan(const Plan& plan, const AnnotationContext& ctx);

/// Annotates `node` alone, whose children are already annotated; a no-op on
/// an annotated node. Fails as AnnotatePlan does. `ctx` must be complete.
Status AnnotateNode(OpNode* node, const AnnotationContext& ctx);

/// Output type of an aggregate over an input of `input_type`.
storage::DataType AggOutputType(AggFn fn, storage::DataType input_type);

/// \brief Builds the derived attribute for `fn(input) AS out_name` grouped on
/// `group_keys` in creation context `context`.
///
/// The grouping keys are part of the signature: COUNT(*) grouped by user_id
/// is a different attribute than COUNT(*) grouped by location_id.
afk::Attribute MakeAggAttribute(AggFn fn,
                                const std::optional<afk::Attribute>& input,
                                const std::string& out_name,
                                const std::vector<afk::Attribute>& group_keys,
                                const std::string& context);

/// Resolves a FilterCond against an attribute set (by display name).
Result<afk::Predicate> ResolveFilter(const FilterCond& cond,
                                     const afk::Afk& input);

/// Runs the local-function schema chain of `udf` over `in_schema` to obtain
/// the UDF's physical output schema.
Result<storage::Schema> UdfOutputSchema(const udf::UdfDefinition& udf,
                                        const storage::Schema& in_schema,
                                        const udf::Params& params);

}  // namespace opd::plan

#endif  // OPD_PLAN_ANNOTATE_H_
