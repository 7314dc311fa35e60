#include "rewrite/opt_cost.h"

#include <limits>

#include "rewrite/guess_complete.h"

namespace opd::rewrite {

namespace {

/// ComputeFix(q, v).empty() without building the fix: the same attributes
/// (both sorted and unique), the same keys, and every filter of q implied
/// by v's. Most views differ in their attribute count, which this rejects
/// first.
bool FixIsEmpty(const afk::Afk& q, const afk::Afk& v) {
  return q.attrs() == v.attrs() && q.keys() == v.keys() &&
         q.filters().MissingFrom(v.filters()).empty();
}

}  // namespace

double OptCost(const afk::Afk& q, const CandidateView& candidate,
               const optimizer::CostModel& model) {
  return OptCost(q, candidate.afk, candidate.total_bytes, candidate.NumParts(),
                 model);
}

double OptCost(const afk::Afk& q, const afk::Afk& v, double total_bytes,
               size_t num_parts, const optimizer::CostModel& model) {
  if (num_parts == 1 && FixIsEmpty(q, v) && GuessComplete(q, v)) {
    // Exact match: the rewrite is a scan of the already-materialized view.
    return 0.0;
  }
  // Any rewrite that *uses* this candidate — directly or after further
  // merging — runs at least one MR job that reads every constituent view and
  // applies at least the cheapest fix operation (non-subsumable cost
  // property). Partial candidates therefore carry this same bound: it prices
  // their potential to participate in a merged rewrite.
  double bound = model.job_latency();
  bound += model.ReadCost(total_bytes);
  bound += model.CheapestOpCpu(total_bytes);
  return bound;
}

}  // namespace opd::rewrite
