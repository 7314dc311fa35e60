#include "rewrite/view_finder.h"

#include <algorithm>

#include "rewrite/guess_complete.h"
#include "rewrite/merge.h"
#include "rewrite/opt_cost.h"

namespace opd::rewrite {

std::span<const catalog::ViewId> ViewFinder::Parts(
    const QueuedCandidate& c) const {
  if (c.view_id >= 0) return {&c.view_id, 1};
  return merged_[c.slot].parts;
}

void ViewFinder::Init(std::shared_ptr<const TargetSetup> setup, EnumDeps deps,
                      TargetDecision* decision) {
  setup_ = std::move(setup);
  deps_ = std::move(deps);
  decision_ = decision;
  relevant_.clear();
  masks_.clear();
  heap_.clear();
  merged_.clear();
  seen_.clear();
  enqueued_.clear();

  // One walk over the postings of the useful signatures: (position, sig)
  // hits sorted by position group into the relevant views, ascending, each
  // with its coverage mask.
  const catalog::ViewSnapshot& views = *deps_.views;
  const std::vector<std::string>& sigs = setup_->useful_sigs;
  words_ = (sigs.size() + 63) / 64;
  std::vector<uint64_t> hits;
  for (size_t i = 0; i < sigs.size(); ++i) {
    for (uint32_t pos : views.Postings(sigs[i])) {
      hits.push_back(uint64_t{pos} << 32 | i);
    }
  }
  std::sort(hits.begin(), hits.end());
  for (uint64_t hit : hits) {
    const auto pos = static_cast<uint32_t>(hit >> 32);
    const size_t sig = hit & 0xffffffffu;
    if (relevant_.empty() || relevant_.back() != pos) {
      relevant_.push_back(pos);
      masks_.resize(masks_.size() + words_, 0);
    }
    masks_[(relevant_.size() - 1) * words_ + sig / 64] |= uint64_t{1}
                                                          << (sig % 64);
  }

  const afk::Afk& q = setup_->target.afk;
  const optimizer::CostModel& model = deps_.optimizer->cost_model();
  heap_.reserve(relevant_.size());
  for (size_t r = 0; r < relevant_.size(); ++r) {
    const catalog::ViewDefinition& def = views.at(relevant_[r]);
    // GUESSCOMPLETE (ii) rejects this view, and every merge containing it:
    // a merge's filters are the union of its parts' (view_finder.h).
    if (!q.filters().ImpliesAll(def.afk.filters())) {
      decision_->filter_not_implied.push_back(relevant_[r]);
      continue;
    }
    heap_.push_back(
        QueuedCandidate{OptCost(q, def.afk, def.stats.TotalBytes(), 1, model),
                        def.id, static_cast<uint32_t>(r)});
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapGreater());
}

void ViewFinder::PushMerged(CandidateView candidate, double floor_cost) {
  std::vector<catalog::ViewId> key = candidate.parts;
  std::sort(key.begin(), key.end());
  if (!enqueued_.insert(std::move(key)).second) return;
  candidate.opt_cost = std::max(
      OptCost(setup_->target.afk, candidate, deps_.optimizer->cost_model()),
      floor_cost);
  heap_.push_back(QueuedCandidate{candidate.opt_cost, -1,
                                  static_cast<uint32_t>(merged_.size())});
  merged_.push_back(std::move(candidate));
  std::push_heap(heap_.begin(), heap_.end(), HeapGreater());
}

double ViewFinder::Peek() const {
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().opt_cost;
}

std::optional<EnumResult> ViewFinder::Refine() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), HeapGreater());
  const QueuedCandidate e = heap_.back();
  heap_.pop_back();
  CandidateView v;
  if (e.view_id >= 0) {
    v = MakeBaseCandidate(deps_.views->at(relevant_[e.slot]));
    const auto mask = masks_.begin() + static_cast<std::ptrdiff_t>(
                                           e.slot * words_);
    v.coverage.assign(mask, mask + static_cast<std::ptrdiff_t>(words_));
  } else {
    v = std::move(merged_[e.slot]);
  }
  v.opt_cost = e.opt_cost;
  PoppedCandidate& cd = decision_->pops.emplace_back();
  cd.parts = v.parts;
  cd.opt_cost = v.opt_cost;

  // Grow the space: merge v with every previously-seen candidate that
  // passes the usefulness rule. New candidates inherit v's OPTCOST as a
  // floor, preserving the monotone exploration order Algorithm 4 relies on.
  for (const CandidateView& s : seen_) {
    auto merged = MergeUseful(v, s, deps_.options.max_views_per_rewrite);
    if (merged.has_value()) PushMerged(std::move(*merged), v.opt_cost);
  }
  seen_.push_back(v);

  if (!GuessComplete(setup_->target.afk, v.afk)) {
    cd.reject = RejectReason::kAfkContainment;
    return std::nullopt;
  }
  cd.guess_complete = true;
  std::optional<EnumResult> result = RewriteEnum(*setup_, v, deps_);
  if (result.has_value()) {
    cd.rewrite_found = true;
    cd.rewrite_cost = result->cost;
  } else {
    // GUESSCOMPLETE said maybe, the exact enumeration said no: a confirmed
    // containment failure.
    cd.reject = RejectReason::kAfkContainment;
  }
  return result;
}

void ViewFinder::DrainPrunedDecisions() {
  decision_->relevant = std::move(relevant_);
  decision_->pruned = std::move(heap_);
  decision_->merges.reserve(merged_.size());
  for (CandidateView& c : merged_) {
    decision_->merges.push_back(std::move(c.parts));
  }
  heap_.clear();
}

}  // namespace opd::rewrite
