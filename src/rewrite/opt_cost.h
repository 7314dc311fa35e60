// OPTCOST (Section 4.3): a quickly-computable lower bound on the cost of any
// valid rewrite of a target q using a candidate view v, obtained by costing a
// synthesized single-local-function UDF that performs the whole "fix" and
// charging it the cheapest operation in the fix (the non-subsumable cost
// property, Definition 1).
//
// Invariant: OPTCOST(q, v) <= COST(r) for every valid rewrite r over v.

#ifndef OPD_REWRITE_OPT_COST_H_
#define OPD_REWRITE_OPT_COST_H_

#include "afk/afk.h"
#include "optimizer/cost_model.h"
#include "rewrite/candidate.h"

namespace opd::rewrite {

/// \brief Lower bound on the cost of any rewrite of `q` that uses
/// `candidate` (directly, or merged into a larger candidate).
///
/// Zero when the candidate is already equivalent to q (the rewrite is a free
/// scan of the existing materialization). Otherwise: one job latency + the
/// mandatory read of every constituent view + the CPU of the cheapest fix
/// operation (Definition 1). Partial candidates (GUESSCOMPLETE false) carry
/// the same bound — it prices their potential to participate in a merged
/// rewrite, which is what lets the ViewFinder surface and merge them
/// incrementally; REWRITEENUM is still only attempted on GUESSCOMPLETE
/// survivors.
double OptCost(const afk::Afk& q, const CandidateView& candidate,
               const optimizer::CostModel& model);

/// The same bound from a candidate's parts: its annotation `v`, the summed
/// bytes of its views and their number. Lets INIT cost a stored view
/// without building its candidate.
double OptCost(const afk::Afk& q, const afk::Afk& v, double total_bytes,
               size_t num_parts, const optimizer::CostModel& model);

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_OPT_COST_H_
