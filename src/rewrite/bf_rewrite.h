// BFREWRITE (Section 6, Algorithms 1-3): best-first search for the
// minimum-cost rewrite of a whole plan W.
//
// Every job i in W is a rewritable target W_i with its own ViewFinder.
// FINDNEXTMINTARGET recursively picks the target whose next candidate has
// the lowest OPTCOST; REFINETARGET refines it; PROPBESTREWRITE propagates an
// improved rewrite downstream by composing it with the consuming jobs.
// Terminates when no target can possibly improve BESTPLAN_n.

#ifndef OPD_REWRITE_BF_REWRITE_H_
#define OPD_REWRITE_BF_REWRITE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/view_store.h"
#include "common/status.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "rewrite/rewrite_enum.h"
#include "rewrite/rewriter.h"
#include "rewrite/view_finder.h"

namespace opd::rewrite {

/// \brief The paper's rewriter.
class BfRewriter {
 public:
  BfRewriter(const optimizer::Optimizer* optimizer,
             const catalog::ViewStore* views, RewriteOptions options = {})
      : optimizer_(optimizer), views_(views), options_(std::move(options)) {}

  /// Finds the minimum-cost rewrite of `plan` using the currently-published
  /// views (equivalent to Rewrite against `views->Snapshot()`). `plan` is
  /// prepared (annotated + costed) in place; the returned outcome contains
  /// the best plan (possibly the original) and search statistics.
  ///
  /// When `trace` is non-null the search opens a "rewrite" span under
  /// `parent_span` with one "round" span per refinement iteration.
  Result<RewriteOutcome> Rewrite(plan::Plan* plan,
                                 obs::Trace* trace = nullptr,
                                 uint64_t parent_span = 0) const;

  /// Same search against a fixed epoch-consistent snapshot of the store
  /// (serving layer: a query rewrites only against the views published at
  /// its admission epoch, never against views materializing concurrently).
  /// `snapshot` must outlive the call. Thread-safe: concurrent Rewrite
  /// calls share only the internal (mutex-guarded) target memo.
  Result<RewriteOutcome> Rewrite(plan::Plan* plan,
                                 const catalog::ViewSnapshot& snapshot,
                                 obs::Trace* trace = nullptr,
                                 uint64_t parent_span = 0) const;

  const RewriteOptions& options() const { return options_; }

  /// Most target-memo entries kept: an insert that would exceed it clears
  /// the memo first, so a long-running server's memo stays bounded.
  static constexpr size_t kMaxTargetMemo = 4096;

 private:
  const optimizer::Optimizer* optimizer_;
  const catalog::ViewStore* views_;
  RewriteOptions options_;

  /// Per-target setup cache, keyed by the target subplan's fingerprint.
  /// Analysts re-run structurally identical (sub)queries constantly, and
  /// the target side of ViewFinder::Init — the TargetContext and its
  /// useful-signature set — depends only on the subplan and the fixed
  /// RewriteOptions, never on the (growing) view store, so it is safe to
  /// reuse across Rewrite() calls. Entries are immutable and shared with
  /// the finders, so a hit copies one pointer. Hits/misses are published as
  /// `rewrite.viewfinder.memo_hit` / `..._miss`. Holds at most
  /// kMaxTargetMemo entries. Guarded by `memo_mu_` (Rewrite is const and
  /// may run from concurrent sessions).
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<std::string, std::shared_ptr<const TargetSetup>>
      target_memo_;
};

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_BF_REWRITE_H_
