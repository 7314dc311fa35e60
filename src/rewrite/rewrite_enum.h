// REWRITEENUM (Section 7.2): brute-force enumeration of compensation
// sequences over a candidate view, tested for exact model equivalence with
// the target.
//
// The rewrite operator set is SPJGA plus a bounded set of UDFs (Section 5).
// Operator *instances* are drawn from the target plan itself (its filters,
// group-bys and UDF invocations are precisely the computations a
// compensation may need to replay), each usable at most k times.
//
// Which sequences reach an equivalent state depends only on the target, the
// candidate's AFK (which also fixes the fix filters it is offered) and k —
// never on the candidate's view ids, bytes or statistics. So the DFS runs
// once per (target, canonical candidate AFK) and its outcome is memoized in
// the target's TargetSetup: the fix filters the candidate adds to the
// target's ops and the DFS's prefix tree, pruned to the paths that reached
// an equivalent state, as op indices in DFS order. Every call, hit or miss,
// then replays that tree depth-first against the candidate's own views: it
// builds and prepares the candidate scan once and each prefix's node once,
// on its parent's, and carries the partial cost down. Node costs are never
// negative, so a prefix that already costs at least the best rewrite so far
// is only annotated, not costed: none of its sequences can win. Costs
// (summed in the order Optimizer::PlanCost sums them), tie-breaks (the
// first cheapest sequence in DFS order wins) and `rewrites_found` are those
// of building and costing every sequence of a fresh enumeration, and view
// statistics still drive the cost. The replay's prepared nodes are counted
// by `rewrite.enum.nodes_costed`.

#ifndef OPD_REWRITE_REWRITE_ENUM_H_
#define OPD_REWRITE_REWRITE_ENUM_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
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

/// A memoized REWRITEENUM outcome (rewrite_enum.cc).
struct EnumOutcome;

/// The target side of a rewrite search. It depends only on the target
/// subplan and the fixed RewriteOptions (k), never on the view store, so
/// BfRewriter memoizes it across rewrites, and the DP baseline builds one
/// per target of a rewrite.
struct TargetSetup {
  TargetContext target;
  /// UsefulSignatures(target.afk), sorted.
  std::vector<std::string> useful_sigs;

  /// Most REWRITEENUM outcomes kept: an insert that would exceed it clears
  /// the memo first.
  static constexpr size_t kMaxEnumMemo = 256;
  /// REWRITEENUM's outcome memo, keyed by the candidate's canonical AFK
  /// (only RewriteEnum reads or writes it). A setup is shared by every
  /// rewrite of its target, across tenants, hence the mutex. Hits and
  /// misses are published as `rewrite.enum.memo_hit` / `..._miss`.
  mutable std::mutex enum_memo_mu;
  mutable std::unordered_map<std::string, std::shared_ptr<const EnumOutcome>>
      enum_memo;
};

/// Derives the target context and useful signatures of `target_root`.
std::shared_ptr<const TargetSetup> MakeTargetSetup(
    const plan::OpNodePtr& target_root);

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

/// \brief Searches for an equivalent rewrite of `setup`'s target using
/// `candidate`, replaying the memoized DFS outcome when `setup` has one for
/// the candidate's AFK (see above). `deps.options.max_op_repetition` must
/// be the same on every call with one setup.
///
/// Returns nullopt when no compensation sequence yields exact equivalence
/// (GUESSCOMPLETE false positives land here), and otherwise the
/// minimum-cost valid rewrite.
std::optional<EnumResult> RewriteEnum(const TargetSetup& setup,
                                      const CandidateView& candidate,
                                      const EnumDeps& deps);

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_REWRITE_ENUM_H_
