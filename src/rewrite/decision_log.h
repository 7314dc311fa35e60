// Structured record of every decision the rewrite search makes: which
// candidate views were enumerated for each target, why each was rejected
// (machine-readable reason codes), the OPTCOST ordering the search followed,
// and the chosen rewrite with its predicted benefit. This is the audit trail
// behind EXPLAIN REWRITE and the decision counts exported to the bench
// trajectory — the paper claims BFREWRITE finds the *minimum-cost* rewrite;
// the log is how that claim becomes inspectable per query.
//
// The search is serial (one ViewFinder refined at a time), so the log is
// deterministic: byte-identical across thread counts and execution modes.
//
// What is stored vs rendered. A warm rewrite against a large store examines
// thousands of candidates per query but refines only a few, so the search
// stores only what it cannot re-derive, and strings are built only by
// Candidates()/ToText()/ToJson():
//   * signature_mismatch exclusions are not stored: the log keeps the
//     snapshot the search ran against (a cheap handle) and each target's
//     relevant view positions; every other view of the snapshot was
//     excluded at INIT.
//   * filter_not_implied exclusions are the relevant views INIT never
//     queued, stored as their snapshot positions.
//   * refined candidates (pops) are stored with their view ids and outcome.
//   * pruned_by_bound entries are the candidates left queued, moved in
//     unsorted as (OPTCOST, view id or merge parts); rendering sorts them
//     by (OPTCOST, parts), the order the search would have popped them.
//   * each target is kept as its operator node, whose name is rendered.

#ifndef OPD_REWRITE_DECISION_LOG_H_
#define OPD_REWRITE_DECISION_LOG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalog/view_store.h"
#include "plan/operator.h"

namespace opd::rewrite {

/// Why a candidate did not become the target's rewrite. The string codes
/// (RejectReasonCode) are the stable machine-readable vocabulary used by the
/// JSON export and the bench records.
enum class RejectReason {
  kNone = 0,            ///< not rejected (the accepted candidate)
  kSignatureMismatch,   ///< shares no useful attribute with the target (INIT)
  kFilterNotImplied,    ///< relevant, but the target does not imply its
                        ///< filters, so neither it nor any merge containing
                        ///< it passes GUESSCOMPLETE (INIT)
  kAfkContainment,      ///< GUESSCOMPLETE false, or REWRITEENUM found no
                        ///< exact-equivalence compensation
  kNotCostImproving,    ///< valid rewrite, but not cheaper than the best
  kPrunedByBound,       ///< never refined: the search bound terminated first
};

/// Stable snake_case code for `reason` ("accepted" for kNone).
const char* RejectReasonCode(RejectReason reason);

/// Canonical candidate id: the sorted view ids joined by "+", e.g. "3+7".
std::string CandidateId(std::span<const catalog::ViewId> parts);

/// One candidate view (or merge of views) examined — or excluded — for one
/// target, as rendered by DecisionLog::Candidates.
struct CandidateDecision {
  /// Canonical candidate id: "+"-joined sorted view ids, e.g. "3+7".
  std::string candidate_id;
  int num_parts = 1;
  /// OPTCOST estimate w.r.t. the target; negative when never costed
  /// (INIT exclusions happen before costing).
  double opt_cost = -1;
  bool guess_complete = false;
  bool rewrite_found = false;
  /// Cost of the found rewrite (valid when `rewrite_found`).
  double rewrite_cost = 0;
  RejectReason reject = RejectReason::kNone;
};

/// A refined (popped) candidate, as stored.
struct PoppedCandidate {
  /// Constituent view ids, in join order.
  std::vector<catalog::ViewId> parts;
  double opt_cost = 0;
  bool guess_complete = false;
  bool rewrite_found = false;
  double rewrite_cost = 0;
  RejectReason reject = RejectReason::kNone;
};

/// A candidate still queued when the search ended (pruned_by_bound); the
/// ViewFinder's queue entry, moved into the log as it is.
struct QueuedCandidate {
  double opt_cost = 0;
  /// The view of a single-view candidate; -1 for a merge.
  catalog::ViewId view_id = -1;
  /// A single view's index in TargetDecision::relevant; a merge's index in
  /// TargetDecision::merges.
  uint32_t slot = 0;
};

/// The full decision record for one rewrite target (one job of the DAG).
struct TargetDecision {
  int target_index = 0;
  /// The target job's operator; ToText and ToJson render its DisplayName.
  plan::OpNodePtr target_op;
  double original_cost = 0;
  /// Best target cost when the search ended (== original_cost when the
  /// target kept its plan).
  double best_cost = 0;
  double predicted_benefit_s = 0;
  /// Ascending snapshot positions of the views INIT found relevant; every
  /// other view of the snapshot was a signature_mismatch.
  std::vector<uint32_t> relevant;
  /// The subset of `relevant` INIT excluded as filter_not_implied
  /// (ascending positions); the rest were queued.
  std::vector<uint32_t> filter_not_implied;
  /// Refined candidates, in OPTCOST (pop) order.
  std::vector<PoppedCandidate> pops;
  /// Index into `pops` of the accepted rewrite; -1 when the target kept its
  /// original plan (a producer rewrite may still have lowered best_cost).
  int chosen = -1;
  /// Candidates never refined, unsorted.
  std::vector<QueuedCandidate> pruned;
  /// Parts of the merged candidates the search created, indexed by
  /// QueuedCandidate::slot (empty for merges that were refined).
  std::vector<std::vector<catalog::ViewId>> merges;

  /// Candidate id of the accepted rewrite; empty when there is none.
  std::string ChosenId() const;
};

/// Aggregate decision counts (the bench-record summary).
struct DecisionCounts {
  size_t candidates = 0;
  size_t accepted = 0;
  size_t signature_mismatch = 0;
  size_t filter_not_implied = 0;
  size_t afk_containment = 0;
  size_t not_cost_improving = 0;
  size_t pruned_by_bound = 0;
};

/// \brief Everything the rewrite search decided, per target.
struct DecisionLog {
  /// The snapshot the search ran against (the signature_mismatch
  /// exclusions are its views outside each target's relevant set).
  catalog::ViewSnapshot views;
  std::vector<TargetDecision> targets;

  /// O(targets + refined candidates); never touches the excluded or
  /// pruned entries one by one.
  DecisionCounts Counts() const;

  /// Target `t`'s decisions in search order: INIT exclusions (both kinds)
  /// in id order, then refinements in OPTCOST order, then bound-pruned
  /// leftovers in (OPTCOST, parts) order.
  std::vector<CandidateDecision> Candidates(size_t t) const;

  /// Human-readable rendering (the body of EXPLAIN REWRITE). Deterministic.
  std::string ToText() const;
  /// Machine-readable export: {"targets":[...],"counts":{...}}.
  std::string ToJson() const;
};

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_DECISION_LOG_H_
