// EXPLAIN support: renders an annotated, costed plan as a per-job table —
// operator, estimated rows/bytes, cost breakdown (read/cpu/shuffle/write),
// and the AFK annotation on request.

#ifndef OPD_PLAN_EXPLAIN_H_
#define OPD_PLAN_EXPLAIN_H_

#include <string>

#include "plan/plan.h"

namespace opd::plan {

struct ExplainOptions {
  /// Include each node's (A, F, K) annotation.
  bool show_afk = false;
};

/// \brief Renders `plan` (which must already be prepared by the optimizer)
/// as an indented table, one row per operator.
///
/// Example:
///   JOIN(user_id)                 rows=240      12.1s (r 2.0 c 1.1 s 8.0 w 1.0)
///     UDF(UDF_CLASSIFY_WINE_...)  rows=38      801.2s (...)
///       SCAN(TWTR)                rows=20000      -
std::string Explain(const Plan& plan, const ExplainOptions& options = {});

/// Total estimated cost of a prepared plan (sum of job costs).
double TotalCost(const Plan& plan);

}  // namespace opd::plan

#endif  // OPD_PLAN_EXPLAIN_H_
