// Candidate views: a single stored view, or a MERGE-composition of several
// (Section 7). A candidate knows its AFK annotation, its constituents, and
// how to build a scan(+join) plan over them.

#ifndef OPD_REWRITE_CANDIDATE_H_
#define OPD_REWRITE_CANDIDATE_H_

#include <limits>
#include <string>
#include <vector>

#include "afk/afk.h"
#include "catalog/view_store.h"
#include "common/status.h"
#include "plan/plan.h"

namespace opd::rewrite {

/// \brief Bitmask of which useful signatures an annotation covers (bit i =
/// useful_sigs[i] present). Drives the MiniCon-style merge pruning: a merge
/// is only worth creating when the combined coverage strictly exceeds both
/// sides' coverage, i.e. each side contributes something the other lacks.
using Coverage = std::vector<uint64_t>;

/// \brief A candidate for rewriting a target: one or more stored views,
/// joined on their common attributes.
struct CandidateView {
  /// Constituent view ids, in join order (first is the left-most input).
  std::vector<catalog::ViewId> parts;
  afk::Afk afk;
  /// Estimated total bytes of all constituent views (from their stats).
  double total_bytes = 0;
  /// OPTCOST with respect to the current target (set by the ViewFinder).
  double opt_cost = std::numeric_limits<double>::infinity();
  /// Useful-signature coverage w.r.t. the current target (set by the search).
  Coverage coverage;

  size_t NumParts() const { return parts.size(); }
};

/// Builds the single-view candidate for `def`.
CandidateView MakeBaseCandidate(const catalog::ViewDefinition& def);

/// Builds the scan(+join) plan fragment reading this candidate: a left-deep
/// chain of equi-joins on the common attributes between the accumulated
/// result and each next part. Parts are resolved in `views`, the snapshot
/// the search runs against.
Result<plan::OpNodePtr> BuildCandidateScan(const CandidateView& candidate,
                                           const catalog::ViewSnapshot& views);

/// The attribute signatures a target could possibly use: its output
/// attributes, the transitive input dependencies of its derived attributes,
/// its key attributes, and its filter attributes. Candidates sharing none of
/// these are irrelevant to the target.
std::vector<std::string> UsefulSignatures(const afk::Afk& q);

/// True if any attribute of `v` appears in `useful_sigs` (sorted).
bool IsRelevant(const afk::Afk& v,
                const std::vector<std::string>& useful_sigs);

Coverage ComputeCoverage(const afk::Afk& v,
                         const std::vector<std::string>& useful_sigs);

/// a | b.
Coverage CoverageUnion(const Coverage& a, const Coverage& b);

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_CANDIDATE_H_
