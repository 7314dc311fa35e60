// The MERGE function (Section 7.1): composes two candidate views into a new
// candidate by equi-joining on their common attributes — the multi-input rule
// of the UDF model (Section 3.1): A = A1 ∪ A2, F = F1 ∧ F2 ∧ join,
// K = (K1 ∪ K2) ∩ join attributes.

#ifndef OPD_REWRITE_MERGE_H_
#define OPD_REWRITE_MERGE_H_

#include <optional>

#include "rewrite/candidate.h"

namespace opd::rewrite {

/// \brief Merges two candidates, or returns nullopt when they cannot merge:
/// overlapping parts, no common attributes, or exceeding `max_parts` (J).
std::optional<CandidateView> MergeCandidates(const CandidateView& a,
                                             const CandidateView& b,
                                             int max_parts);

/// \brief MERGE under the MiniCon-style usefulness rule, the one both
/// VIEWFINDER and the DP baseline grow their candidate spaces by: `a` and
/// `b` merge only when each contributes a useful attribute the other lacks
/// (their coverage union strictly exceeds both sides' coverage), since
/// otherwise the merge can never enable a rewrite its parts could not. The
/// merged candidate carries that union as its coverage.
std::optional<CandidateView> MergeUseful(const CandidateView& a,
                                         const CandidateView& b,
                                         int max_parts);

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_MERGE_H_
