// Logical plan operators. A plan is a DAG of OpNodes; after annotation each
// non-scan node corresponds to one MR job (Section 2.2: "each node represents
// an MR job" and materializes its output).

#ifndef OPD_PLAN_OPERATOR_H_
#define OPD_PLAN_OPERATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "afk/afk.h"
#include "catalog/view_store.h"
#include "storage/schema.h"
#include "udf/local_function.h"

namespace opd::plan {

enum class OpKind {
  kScan,        // read a base table or a materialized view
  kProject,     // operation type 1
  kFilter,      // operation type 2
  kJoin,        // operation types 2+3
  kGroupByAgg,  // operation types 3+1
  kUdf,         // gray-box UDF application
};

const char* OpKindName(OpKind kind);

/// Aggregate functions supported by GROUP BY.
enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

const char* AggFnName(AggFn fn);

/// One aggregate in a group-by: fn(input) AS output.
struct AggSpec {
  AggFn fn = AggFn::kCount;
  std::string input;   // empty for COUNT(*)
  std::string output;  // output column name
};

/// GROUP BY `keys` with aggregates.
struct GroupBySpec {
  std::vector<std::string> keys;
  std::vector<AggSpec> aggs;
};

/// Equi-join on pairs of (left column, right column).
struct JoinSpec {
  std::vector<std::pair<std::string, std::string>> pairs;
};

/// A filter condition by column name; resolved to an afk::Predicate during
/// annotation.
struct FilterCond {
  enum class Kind { kCompare, kOpaque };
  Kind kind = Kind::kCompare;
  // kCompare:
  std::string column;
  afk::CmpOp op = afk::CmpOp::kGt;
  storage::Value literal;
  // kOpaque:
  std::string fn_name;
  std::vector<std::string> arg_columns;
  std::string params;

  static FilterCond Compare(std::string column, afk::CmpOp op,
                            storage::Value literal);
  static FilterCond Opaque(std::string fn_name,
                           std::vector<std::string> arg_columns,
                           std::string params = "");
  std::string ToDisplayString() const;
};

/// A UDF application: name + parameters.
struct UdfInvocation {
  std::string udf_name;
  udf::Params params;
};

struct OpNode;
using OpNodePtr = std::shared_ptr<OpNode>;

/// Cost breakdown of one MR job (filled by the optimizer).
struct JobCostInfo {
  double total_s = 0;
  double read_s = 0;
  double cpu_s = 0;
  double shuffle_s = 0;
  double write_s = 0;
  double latency_s = 0;
};

/// \brief One operator in a logical plan DAG.
///
/// The payload fields used depend on `kind`. Annotation fills the
/// `annotated` block; the optimizer fills estimates and cost.
struct OpNode {
  OpKind kind = OpKind::kScan;
  std::vector<OpNodePtr> children;

  // -- payload --
  std::string table;                 // kScan: base table name (if view_id<0)
  catalog::ViewId view_id = -1;      // kScan: view id (>=0 means view scan)
  std::vector<std::string> project;  // kProject
  FilterCond filter;                 // kFilter
  JoinSpec join;                     // kJoin
  GroupBySpec group;                 // kGroupByAgg
  UdfInvocation udf;                 // kUdf

  // -- filled by annotation (plan/annotate.h) --
  bool annotated = false;
  afk::Afk afk;
  std::vector<afk::Attribute> out_attrs;  // aligned with out_schema columns
  storage::Schema out_schema;
  afk::Predicate resolved_filter;  // kFilter only

  // -- filled by the optimizer --
  double est_rows = 0;
  double est_out_bytes = 0;
  /// Estimated per-column width and distinct counts (by column name).
  std::map<std::string, double> est_col_bytes;
  std::map<std::string, double> est_distinct;
  JobCostInfo cost;

  /// Short description, e.g. "FILTER(cmp(...))".
  std::string DisplayName() const;
};

/// Copies the node's operator (kind and payload) into a new node with no
/// children and no annotation. The one place that lists the payload fields.
OpNodePtr CopyOperator(const OpNode& node);

/// Creates a deep structural copy of the node (annotation cleared) sharing no
/// OpNode with the original. Used when grafting plan fragments.
OpNodePtr CloneTree(const OpNodePtr& node);

}  // namespace opd::plan

#endif  // OPD_PLAN_OPERATOR_H_
