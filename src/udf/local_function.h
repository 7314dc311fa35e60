// Local functions: the map/reduce building blocks of a UDF (Section 3.1).
//
// The MR framework makes map/reduce functions stateless over a single tuple
// (map) or a single key-group (reduce); the paper calls these *local
// functions*. A local function performs some combination of the three
// operation types:
//   (1) discard/add attributes, (2) discard tuples by filters,
//   (3) group tuples on a common key.
//
// A map function runs over a column batch and returns the batch of its
// output rows. It stays a per-tuple function: the output rows of input row
// i depend only on row i and come out in input order, so the result never
// depends on where the engine cuts batches (the reference interpreter calls
// it on one-row batches, the engine on split-sized slices). Input columns
// are shared with the input table and must never be mutated; a pass-through
// column is returned as is, or gathered when rows are dropped, and keeps its
// input dictionary. Only new columns are built.
//
// A reduce function runs once per key group and reads the group as columns:
// a GroupView names the group's rows, in input order, as references into
// the stage's input batches, and reads their cells in place. It appends its
// output rows, cell by cell, to a BatchBuilder laid out under
// `ctx.out_schema`: every column gets one cell per output row, and a key
// cell is usually copied from the group's first row with `AppendFrom`,
// which keeps its type and shares its string dictionary. The engine runs
// the groups of one shuffle bucket into one builder, so the output's bytes
// are summed as its cells are appended; the reference interpreter runs
// each group over a batch of its own rows.

#ifndef OPD_UDF_LOCAL_FUNCTION_H_
#define OPD_UDF_LOCAL_FUNCTION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace opd::udf {

/// UDF invocation parameters (e.g. thresholds, tile sizes).
using Params = std::map<std::string, storage::Value>;

/// Looks up a numeric parameter with a default.
double ParamDouble(const Params& params, const std::string& key,
                   double default_value);

/// Looks up a string parameter with a default.
std::string ParamString(const Params& params, const std::string& key,
                        const std::string& default_value);

/// Whether a local function runs as a map task or a reduce task.
enum class LfKind { kMap, kReduce };

/// Bitmask of the three operation types a local function performs.
enum OpTypeBits : uint8_t {
  kOpAttrs = 1 << 0,   // type 1: discard or add attributes
  kOpFilter = 1 << 1,  // type 2: discard tuples by filters
  kOpGroup = 1 << 2,   // type 3: group tuples on a common key
};

/// Runtime context handed to a local function.
struct LfContext {
  const storage::Schema* in_schema = nullptr;
  const storage::Schema* out_schema = nullptr;
  const Params* params = nullptr;

  /// Index of `name` in the input schema; asserts on absence at runtime via
  /// Status in the engine (local functions may assume validated schemas).
  /// Map functions resolve their columns once per batch.
  size_t In(const std::string& name) const {
    return *in_schema->IndexOf(name);
  }
};

/// Row-wise batch transform: each input row yields 0..n output rows, in
/// input order, laid out under `ctx.out_schema`.
using MapFn = std::function<storage::RowBatch(const storage::RowBatch&,
                                              const LfContext&)>;

/// The rows of one key group, in input order, read in place from the
/// batches they live in.
class GroupView {
 public:
  GroupView(const std::vector<storage::RowBatch>& batches,
            const storage::RowRef* rows, size_t size)
      : batches_(&batches), rows_(rows), size_(size) {}

  /// Rows in the group (at least one).
  size_t size() const { return size_; }
  /// Column `c` of the batch holding the group's row `i`, and that row's
  /// index in it: what `BatchBuilder::AppendFrom` copies from.
  const storage::ColumnVector& column(size_t i, size_t c) const {
    return (*batches_)[rows_[i].batch].column(c);
  }
  size_t row(size_t i) const { return rows_[i].idx; }

  bool IsNull(size_t i, size_t c) const { return column(i, c).IsNull(row(i)); }
  /// Cell (i, c) as `Value::ToDouble` reads it (null and strings read 0).
  double Number(size_t i, size_t c) const {
    return column(i, c).NumberAt(row(i));
  }
  /// Int64 cell (i, c); any other cell throws, as `Value::as_int64` does.
  int64_t Int64(size_t i, size_t c) const {
    return column(i, c).Int64At(row(i));
  }

 private:
  const std::vector<storage::RowBatch>* batches_;
  const storage::RowRef* rows_;
  size_t size_;
};

/// Per-group transform: reads one key group and appends its output rows.
using ReduceFn = std::function<void(const GroupView&, const LfContext&,
                                    storage::BatchBuilder*)>;

/// Computes the local function's output schema from its input schema.
using SchemaFn =
    std::function<Result<storage::Schema>(const storage::Schema&,
                                          const Params&)>;

/// \brief One map or reduce stage inside a UDF.
struct LocalFunction {
  std::string name;
  LfKind kind = LfKind::kMap;
  uint8_t op_types = 0;  // OpTypeBits mask; used by the cheapest-op bound
  /// Reduce only: the input columns forming the grouping key.
  std::vector<std::string> group_keys;
  SchemaFn out_schema;
  MapFn map_fn;        // set when kind == kMap
  ReduceFn reduce_fn;  // set when kind == kReduce
};

}  // namespace opd::udf

#endif  // OPD_UDF_LOCAL_FUNCTION_H_
