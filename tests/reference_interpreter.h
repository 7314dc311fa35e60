// A naive reference interpreter over the plan IR: the correctness oracle the
// engine is checked against (tests/oracle_test.cc).
//
// It shares no code with src/exec/. Every operator is its textbook
// row-at-a-time definition: scans read the base tables through the catalog
// (plans that scan views are rejected: the oracle judges original plans),
// project and compare-filter use afk::EvalCmp, opaque filters call the
// registered PredicateFn, the inner equi-join is a nested loop, group-by
// folds each group's rows in input order, and a UDF applies its local
// functions one stage at a time (map per row; reduce per key group, groups
// in key order, rows in input order). The plan is annotated first, so the
// oracle sees the same output schemas the engine does.
//
// Semantics mirrored from the engine's contract:
//  * Keys (join, group-by, UDF reduce) are equal under Value equality —
//    numerics through their double value (1 == 1.0 == true, -0.0 == 0.0),
//    nulls equal nulls — and NaN keys equal NaN keys.
//  * count counts every row of the group; sum over int64 wraps in int64
//    (Hive BIGINT); sum over doubles and avg accumulate in double in input
//    order; min/max keep the first of equal values.

#ifndef OPD_TESTS_REFERENCE_INTERPRETER_H_
#define OPD_TESTS_REFERENCE_INTERPRETER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "plan/annotate.h"
#include "plan/plan.h"
#include "storage/dfs.h"
#include "storage/schema.h"
#include "udf/udf.h"

namespace opd::reference {

/// Evaluates `plan` and returns its sink's rows. Annotates the plan's nodes
/// against `ctx` (a no-op for already annotated nodes).
Result<std::vector<storage::Row>> Evaluate(const plan::Plan& plan,
                                           const plan::AnnotationContext& ctx,
                                           storage::Dfs* dfs);

/// Applies `udf`'s local functions one stage at a time to `rows` (whose
/// schema is `schema`). Returns every stage's output, in stage order.
Result<std::vector<std::vector<storage::Row>>> RunUdfStages(
    const udf::UdfDefinition& udf, const storage::Schema& schema,
    std::vector<storage::Row> rows, const udf::Params& params);

/// The exact-equality multiset form of `rows`: one canonical string per row
/// (type-tagged cells, doubles by bit pattern), sorted. Two tables hold the
/// same answer iff their multisets are equal.
std::vector<std::string> Multiset(const std::vector<storage::Row>& rows);

}  // namespace opd::reference

#endif  // OPD_TESTS_REFERENCE_INTERPRETER_H_
