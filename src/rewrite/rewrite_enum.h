// REWRITEENUM (Section 7.2): brute-force enumeration of compensation
// sequences over a candidate view, tested for exact model equivalence with
// the target.
//
// The rewrite operator set is SPJGA plus a bounded set of UDFs (Section 5).
// Operator *instances* are drawn from the target plan itself (its filters,
// group-bys and UDF invocations are precisely the computations a
// compensation may need to replay), each usable at most k times.

#ifndef OPD_REWRITE_REWRITE_ENUM_H_
#define OPD_REWRITE_REWRITE_ENUM_H_

#include <optional>
#include <string>
#include <vector>

#include "afk/afk.h"
#include "catalog/view_store.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "rewrite/candidate.h"
#include "rewrite/rewriter.h"
#include "udf/udf_registry.h"

namespace opd::rewrite {

/// One compensation operator instance.
struct CompOp {
  enum class Kind { kFilter, kGroupBy, kUdf };
  Kind kind = Kind::kFilter;
  plan::FilterCond cond;      // kFilter
  plan::GroupBySpec group;    // kGroupBy
  std::string udf_name;       // kUdf
  udf::Params udf_params;     // kUdf
  std::string id;             // canonical payload string (dedup key)
};

/// Everything the enumeration knows about the target being rewritten.
struct TargetContext {
  afk::Afk afk;
  /// Output attributes in the target's natural column order.
  std::vector<afk::Attribute> out_attrs;
  /// Compensation operator instances available for this target.
  std::vector<CompOp> ops;
};

/// Shared dependencies of the enumeration.
struct EnumDeps {
  const optimizer::Optimizer* optimizer = nullptr;
  /// The snapshot the search runs against; candidate parts resolve here.
  const catalog::ViewSnapshot* views = nullptr;
  const udf::UdfRegistry* udfs = nullptr;
  RewriteOptions options;
};

/// Extracts the target context (annotation + compensation ops) from an
/// annotated target subtree. Every filter, group-by and UDF of the subtree
/// is a compensation op (they are by construction the most relevant
/// operators for compensating that target).
TargetContext MakeTargetContext(const plan::OpNodePtr& target_root);

/// Applies one compensation op symbolically; error Status if inapplicable in
/// the current state.
Result<afk::Afk> ApplyCompOp(const afk::Afk& state, const CompOp& op,
                             const udf::UdfRegistry& udfs);

/// A valid rewrite found by the enumeration.
struct EnumResult {
  plan::Plan plan;
  double cost = 0;
  /// Number of distinct valid rewrites encountered while searching (the
  /// returned plan is the cheapest).
  size_t rewrites_found = 0;
};

/// \brief Searches for an equivalent rewrite of `target` using `candidate`.
///
/// Returns nullopt when no compensation sequence yields exact equivalence
/// (GUESSCOMPLETE false positives land here). On success, returns the
/// minimum-cost valid rewrite.
Result<std::optional<EnumResult>> RewriteEnum(const TargetContext& target,
                                              const CandidateView& candidate,
                                              const EnumDeps& deps);

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_REWRITE_ENUM_H_
