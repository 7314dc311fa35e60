// VIEWFINDER (Section 7, Algorithm 4): the stateful per-target searcher.
// Maintains a priority queue of candidate views ordered by OPTCOST,
// incrementally grows the candidate space by merging popped candidates with
// previously-seen ones (MergeUseful, the rule the DP baseline shares), and
// attempts REWRITEENUM only on candidates that pass GUESSCOMPLETE. Neither
// the ordering nor the screening is optional: without them the search
// reaches the same optimum with more effort (EXPERIMENTS.md).
//
// One deliberate refinement over the paper's text: a *partial* candidate
// (GUESSCOMPLETE false) is prioritized by its read-cost bound rather than ∞,
// so that partial solutions can surface and merge incrementally — this is
// the behaviour the paper's Figure 11 narrative describes ("since they
// failed to produce a rewrite, BFREWRITE begins merging them with views
// that have the next lowest OPTCOST"). Truly irrelevant views (sharing no
// useful attribute with the target) are excluded at INIT.
//
// INIT also never queues a relevant view whose filters the target does not
// imply (`!F_q.ImpliesAll(F_v)`, logged as filter_not_implied): GUESSCOMPLETE
// condition (ii) rejects it, and MERGE takes a merge's filters as the union
// of its parts' (FilterSet::Union keeps every predicate, Afk::Join only adds
// join equalities), so every merge containing it fails (ii) as well — it can
// never be part of a rewrite. Queued, it would be popped and merged with
// everything seen, and in a store that grows by query revisions such views
// are most of the store. The cost is one ImpliesAll per relevant view, and
// no OPTCOST is computed for an excluded view. The DP baseline stays
// exhaustive and keeps them.
//
// INIT reads the snapshot's signature index rather than scanning the store:
// one walk over the postings of the target's useful signatures yields the
// relevant views and their coverage masks (exactly the views IsRelevant
// accepts and the masks ComputeCoverage computes). A relevant view enters
// the queue as its OPTCOST and its position; its CandidateView (with an AFK
// copy) is built only if REFINE pops it. A warm rewrite therefore costs in
// proportion to the views that share a useful signature with each target,
// not to the size of the store.

#ifndef OPD_REWRITE_VIEW_FINDER_H_
#define OPD_REWRITE_VIEW_FINDER_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "rewrite/candidate.h"
#include "rewrite/rewrite_enum.h"
#include "rewrite/rewriter.h"

namespace opd::rewrite {

/// \brief Incremental best-first searcher for rewrites of one target.
class ViewFinder {
 public:
  ViewFinder() = default;

  /// INIT: seeds the queue with every view of the snapshot `deps.views`
  /// that shares a useful signature with the target and whose filters the
  /// target implies, ordered by OPTCOST w.r.t. the target. `setup` is
  /// shared for the finder's lifetime (only its REWRITEENUM memo changes).
  ///
  /// `decision` (required, caller-owned, must outlive the finder) is the
  /// search's only record: INIT records its filter_not_implied exclusions,
  /// REFINE appends every pop with its OPTCOST and containment outcome, and
  /// DrainPrunedDecisions adds the relevant set and the leftovers. The
  /// caller classifies accepted vs not-cost-improving (only it knows the
  /// running best cost) and derives its RewriteStats from the pops.
  void Init(std::shared_ptr<const TargetSetup> setup, EnumDeps deps,
            TargetDecision* decision);

  /// PEEK: the OPTCOST of the next candidate, or +inf when exhausted.
  double Peek() const;

  /// REFINE: pops the next candidate, grows the space by merging it with the
  /// Seen set, and attempts a rewrite if the candidate passes GUESSCOMPLETE.
  /// Returns a valid rewrite when one is found, nullopt otherwise.
  std::optional<EnumResult> Refine();

  bool exhausted() const { return heap_.empty(); }

  /// Completes the decision record: hands it the relevant view positions
  /// and every candidate still queued (pruned by the bound: the search
  /// ended before refining them). Call once, when the search is over: it
  /// leaves the finder exhausted.
  void DrainPrunedDecisions();

 private:
  /// The candidate's view ids in join order.
  std::span<const catalog::ViewId> Parts(const QueuedCandidate& c) const;
  /// Heap order: a min-heap by (opt_cost, parts), deterministic because
  /// no two queued candidates share their parts.
  auto HeapGreater() const {
    return [this](const QueuedCandidate& a, const QueuedCandidate& b) {
      if (a.opt_cost != b.opt_cost) return a.opt_cost > b.opt_cost;
      const auto pa = Parts(a);
      const auto pb = Parts(b);
      return std::lexicographical_compare(pb.begin(), pb.end(), pa.begin(),
                                          pa.end());
    };
  }
  void PushMerged(CandidateView candidate, double floor_cost);

  std::shared_ptr<const TargetSetup> setup_;
  EnumDeps deps_;
  TargetDecision* decision_ = nullptr;

  /// Ascending snapshot positions of the relevant views, and their coverage
  /// masks (`words_` words each, in the same order).
  std::vector<uint32_t> relevant_;
  std::vector<uint64_t> masks_;
  size_t words_ = 0;

  /// Queued candidates: a single relevant view is only its OPTCOST and
  /// view (slot into relevant_); a merge's CandidateView is in merged_.
  std::vector<QueuedCandidate> heap_;
  std::vector<CandidateView> merged_;
  std::vector<CandidateView> seen_;
  /// Sorted parts of every merged candidate queued so far (base view ids
  /// are unique, so base candidates need no dedup).
  std::set<std::vector<catalog::ViewId>> enqueued_;
};

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_VIEW_FINDER_H_
