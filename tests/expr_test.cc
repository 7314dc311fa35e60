// Property tests for the fused expression evaluator (src/exec/expr/).
//
// The contract under test is *byte identity*: for any project+filter chain
// over any batch contents — every data type, null cells, dictionary-encoded
// strings with duplicate entries, variant (mixed-type) lanes, empty and full
// selections — `ExprProgram::Run` must reproduce exactly the rows that
//   (a) a per-row oracle produces by applying `afk::EvalCmp` and the
//       projection to `RowAt(i)` one row at a time, and
//   (b) the unfused path produces by running each source step as its own
//       single-step program with a gather in between (the shape of the
//       engine's per-operator batch path).
// Cell equality here is stricter than `Value::operator==` (which treats
// 1 == 1.0 == true and is what the engine's hashes are built on): we compare
// the type alternative and, for doubles, the raw bit pattern, so a fused
// path that "helpfully" normalized -0.0 to 0.0 or coerced an int64 to
// double would fail even though every hash in the system would still match.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "afk/predicate.h"
#include "exec/expr/expr_program.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace opd {
namespace {

using afk::CmpOp;
using exec::expr::EvalScratch;
using exec::expr::ExprProgram;
using exec::expr::ExprStep;
using storage::Column;
using storage::DataType;
using storage::DictionaryPtr;
using storage::Row;
using storage::RowBatch;
using storage::Schema;
using storage::Value;

// -- bit-level cell comparison ----------------------------------------------

bool CellsBitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kBool:
      return a.as_bool() == b.as_bool();
    case DataType::kInt64:
      return a.as_int64() == b.as_int64();
    case DataType::kDouble: {
      uint64_t ba = 0, bb = 0;
      double da = a.as_double(), db = b.as_double();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case DataType::kString:
      return a.as_string() == b.as_string();
  }
  return false;
}

std::string RowToString(const Row& row) {
  std::string s = "[";
  for (const Value& v : row) {
    if (s.size() > 1) s += ", ";
    s += v.is_null() ? "null" : v.ToString();
    s += ":";
    s += storage::DataTypeName(v.type());
  }
  return s + "]";
}

void ExpectRowsBitIdentical(const std::vector<Row>& got,
                            const std::vector<Row>& want,
                            const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what << ": row count diverges";
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << what << " row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      ASSERT_TRUE(CellsBitIdentical(got[r][c], want[r][c]))
          << what << " row " << r << " col " << c << ": got "
          << RowToString(got[r]) << " want " << RowToString(want[r]);
    }
  }
}

// -- oracles ----------------------------------------------------------------

// Applies the source chain one row at a time with the scalar primitives the
// row engine uses: `afk::EvalCmp` verdicts and plain cell copies.
std::vector<Row> RowOracle(const std::vector<Row>& rows,
                           const std::vector<ExprStep>& steps) {
  std::vector<Row> cur = rows;
  for (const ExprStep& s : steps) {
    std::vector<Row> next;
    if (s.kind == ExprStep::Kind::kFilterCompare) {
      for (const Row& row : cur) {
        if (afk::EvalCmp(row[s.col], s.op, s.literal)) next.push_back(row);
      }
    } else {
      for (const Row& row : cur) {
        Row out;
        out.reserve(s.cols.size());
        for (size_t c : s.cols) out.push_back(row[c]);
        next.push_back(std::move(out));
      }
    }
    cur = std::move(next);
  }
  return cur;
}

std::vector<Row> BatchRows(const std::vector<RowBatch>& batches) {
  std::vector<Row> rows;
  for (const RowBatch& b : batches) {
    for (size_t r = 0; r < b.num_rows(); ++r) rows.push_back(b.RowAt(r));
  }
  return rows;
}

// Runs the full chain as ONE fused program over every batch.
std::vector<Row> RunFused(const std::vector<RowBatch>& batches,
                          size_t num_cols, const std::vector<ExprStep>& steps) {
  std::optional<ExprProgram> prog = ExprProgram::Compile(num_cols, steps);
  EXPECT_TRUE(prog.has_value());
  prog->BindDictionaries(batches);
  EvalScratch scratch;
  std::vector<Row> rows;
  for (const RowBatch& b : batches) {
    RowBatch out = prog->Run(b, &scratch);
    for (size_t r = 0; r < out.num_rows(); ++r) rows.push_back(out.RowAt(r));
  }
  return rows;
}

// Runs the chain one step at a time — each step its own program, output
// batches of one step feeding the next (the unfused per-operator shape).
std::vector<Row> RunStepwise(std::vector<RowBatch> batches, size_t num_cols,
                             const std::vector<ExprStep>& steps) {
  EvalScratch scratch;
  for (const ExprStep& s : steps) {
    std::optional<ExprProgram> prog = ExprProgram::Compile(num_cols, {s});
    EXPECT_TRUE(prog.has_value());
    prog->BindDictionaries(batches);
    std::vector<RowBatch> next;
    next.reserve(batches.size());
    for (const RowBatch& b : batches) next.push_back(prog->Run(b, &scratch));
    batches = std::move(next);
    if (s.kind == ExprStep::Kind::kProject) num_cols = s.cols.size();
  }
  return BatchRows(batches);
}

// -- random batch / chain generation ----------------------------------------

struct Rng {
  std::mt19937_64 gen;
  explicit Rng(uint64_t seed) : gen(seed) {}
  size_t Index(size_t n) {  // uniform in [0, n)
    return std::uniform_int_distribution<size_t>(0, n - 1)(gen);
  }
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(gen) < p;
  }
};

const std::vector<Value>& PoolFor(DataType t) {
  static const std::vector<Value> kBoolPool = {Value(true), Value(false)};
  static const std::vector<Value> kIntPool = {
      Value(int64_t{-3}), Value(int64_t{0}),  Value(int64_t{1}),
      Value(int64_t{2}),  Value(int64_t{42}), Value(int64_t{1000000007})};
  static const std::vector<Value> kDoublePool = {
      Value(0.0),  Value(-0.0), Value(1.0),
      Value(1.5),  Value(-2.25), Value(1e18),
      Value(std::numeric_limits<double>::quiet_NaN())};
  static const std::vector<Value> kStringPool = {
      Value(""), Value("a"), Value("bb"), Value("ccc"), Value("dede")};
  switch (t) {
    case DataType::kBool: return kBoolPool;
    case DataType::kInt64: return kIntPool;
    case DataType::kString: return kStringPool;
    default: return kDoublePool;
  }
}

Value RandomCell(Rng* rng, DataType t, bool allow_nulls, bool variant_lane) {
  if (allow_nulls && rng->Chance(0.15)) return Value::Null();
  // A variant-lane column mixes in cells of a foreign type, demoting the
  // column out of its native array — the fused path must then fall back to
  // the per-row EvalCmp mask and still match byte-for-byte.
  if (variant_lane && rng->Chance(0.25)) {
    DataType other = t == DataType::kInt64 ? DataType::kDouble
                                           : DataType::kInt64;
    const std::vector<Value>& pool = PoolFor(other);
    return pool[rng->Index(pool.size())];
  }
  const std::vector<Value>& pool = PoolFor(t);
  return pool[rng->Index(pool.size())];
}

struct RandomInput {
  Schema schema;
  std::vector<Row> rows;
  std::vector<RowBatch> batches;
};

// Builds a random table: random column types, ~15% nulls in nullable
// columns, dictionary strings drawn from a tiny pool (lots of duplicate
// entries), occasionally a variant lane, split into many small batches that
// share one dictionary per string column (the Table::AppendRow shape).
RandomInput MakeRandomInput(Rng* rng, size_t num_cols, size_t num_rows,
                            size_t batch_rows) {
  static const DataType kTypes[] = {DataType::kBool, DataType::kInt64,
                                    DataType::kDouble, DataType::kString};
  RandomInput in;
  std::vector<DataType> types;
  std::vector<bool> nullable, variant;
  std::vector<Column> cols;
  for (size_t c = 0; c < num_cols; ++c) {
    DataType t = kTypes[rng->Index(4)];
    types.push_back(t);
    nullable.push_back(rng->Chance(0.6));
    variant.push_back((t == DataType::kInt64 || t == DataType::kDouble) &&
                      rng->Chance(0.15));
    cols.push_back({"c" + std::to_string(c), t});
  }
  in.schema = Schema(std::move(cols));

  for (size_t r = 0; r < num_rows; ++r) {
    Row row;
    for (size_t c = 0; c < num_cols; ++c) {
      row.push_back(RandomCell(rng, types[c], nullable[c], variant[c]));
    }
    in.rows.push_back(std::move(row));
  }

  std::vector<DictionaryPtr> shared_dicts(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    if (types[c] == DataType::kString) {
      shared_dicts[c] = std::make_shared<storage::Dictionary>();
    }
  }
  for (size_t begin = 0; begin < num_rows; begin += batch_rows) {
    size_t end = std::min(begin + batch_rows, num_rows);
    in.batches.push_back(RowBatch::FromRows(in.schema, in.rows, begin, end));
    for (size_t c = 0; c < num_cols; ++c) {
      if (shared_dicts[c] != nullptr) {
        in.batches.back().column_ptr(c)->MergeDictInto(shared_dicts[c]);
      }
    }
  }
  return in;
}

// A literal for a filter over column `c`: usually same-class (drawn from the
// column's own pool so equality predicates actually hit), sometimes null,
// sometimes cross-class — both of which must route through the EvalCmp
// fallback and still agree with the oracle.
Value RandomLiteral(Rng* rng, DataType col_type) {
  if (rng->Chance(0.1)) return Value::Null();
  if (rng->Chance(0.2)) {
    DataType other = col_type == DataType::kString ? DataType::kInt64
                                                   : DataType::kString;
    const std::vector<Value>& pool = PoolFor(other);
    return pool[rng->Index(pool.size())];
  }
  const std::vector<Value>& pool = PoolFor(col_type);
  return pool[rng->Index(pool.size())];
}

std::vector<ExprStep> RandomChain(Rng* rng, const RandomInput& in,
                                  size_t num_steps) {
  static const CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  std::vector<ExprStep> steps;
  // Tracks the current step's input columns in input-space, so literals can
  // be matched to the column's declared type through any projections.
  std::vector<size_t> colmap(in.schema.num_columns());
  for (size_t c = 0; c < colmap.size(); ++c) colmap[c] = c;

  for (size_t s = 0; s < num_steps; ++s) {
    if (colmap.empty()) break;
    if (rng->Chance(0.65)) {
      size_t col = rng->Index(colmap.size());
      DataType t = in.schema.column(colmap[col]).type;
      steps.push_back(ExprStep::FilterCompare(col, kOps[rng->Index(6)],
                                              RandomLiteral(rng, t)));
    } else {
      // Random subset, shuffled, occasionally with a duplicated column.
      std::vector<size_t> keep;
      for (size_t c = 0; c < colmap.size(); ++c) {
        if (rng->Chance(0.7)) keep.push_back(c);
      }
      if (keep.empty()) keep.push_back(rng->Index(colmap.size()));
      std::shuffle(keep.begin(), keep.end(), rng->gen);
      if (rng->Chance(0.2)) keep.push_back(keep[rng->Index(keep.size())]);
      std::vector<size_t> new_colmap;
      for (size_t c : keep) new_colmap.push_back(colmap[c]);
      colmap = std::move(new_colmap);
      steps.push_back(ExprStep::Project(std::move(keep)));
    }
  }
  return steps;
}

// -- the property -----------------------------------------------------------

TEST(ExprProgramPropertyTest, FusedMatchesRowOracleAndStepwiseEvaluation) {
  constexpr int kTrials = 120;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(trial));
    size_t num_cols = 1 + rng.Index(5);
    size_t num_rows = rng.Index(400);           // includes 0-row inputs
    size_t batch_rows = 1 + rng.Index(96);      // many partial batches
    RandomInput in = MakeRandomInput(&rng, num_cols, num_rows, batch_rows);
    std::vector<ExprStep> steps = RandomChain(&rng, in, 1 + rng.Index(4));
    SCOPED_TRACE("trial " + std::to_string(trial) + " schema " +
                 in.schema.ToString() + " rows " + std::to_string(num_rows) +
                 " batch_rows " + std::to_string(batch_rows) + " steps " +
                 std::to_string(steps.size()));

    // Sanity: batches round-trip the source rows exactly (otherwise the
    // oracle below would be vacuous).
    ExpectRowsBitIdentical(BatchRows(in.batches), in.rows, "round-trip");

    std::vector<Row> fused = RunFused(in.batches, num_cols, steps);
    std::vector<Row> oracle = RowOracle(in.rows, steps);
    ExpectRowsBitIdentical(fused, oracle, "fused vs row oracle");

    std::vector<Row> stepwise = RunStepwise(in.batches, num_cols, steps);
    ExpectRowsBitIdentical(stepwise, oracle, "stepwise vs row oracle");
  }
}

// Unbound dictionaries (no BindDictionaries pre-pass) take the on-the-fly
// evaluation path inside Run — same verdicts, just uncached.
TEST(ExprProgramPropertyTest, UnboundDictionariesMatchBoundEvaluation) {
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng(0xdeadbeefULL + static_cast<uint64_t>(trial));
    RandomInput in = MakeRandomInput(&rng, 3, 300, 64);
    std::vector<ExprStep> steps = RandomChain(&rng, in, 2);
    std::optional<ExprProgram> prog =
        ExprProgram::Compile(in.schema.num_columns(), steps);
    ASSERT_TRUE(prog.has_value());
    EvalScratch scratch;
    std::vector<Row> unbound;
    for (const RowBatch& b : in.batches) {
      RowBatch out = prog->Run(b, &scratch);
      for (size_t r = 0; r < out.num_rows(); ++r)
        unbound.push_back(out.RowAt(r));
    }
    ExpectRowsBitIdentical(
        unbound, RunFused(in.batches, in.schema.num_columns(), steps),
        "unbound vs bound dictionaries");
  }
}

// -- directed edge cases ----------------------------------------------------

TEST(ExprProgramTest, EmptyAndFullSelections) {
  Rng rng(11);
  RandomInput in = MakeRandomInput(&rng, 3, 200, 50);
  size_t nc = in.schema.num_columns();

  // Nothing passes: int64/double/bool/string all compare < "" as false only
  // for strings; use a predicate that is false for every live cell and for
  // null. kLt against the smallest pool value with kLt(null) == false.
  std::vector<ExprStep> none = {
      ExprStep::FilterCompare(0, CmpOp::kNe, in.rows.empty()
                                                 ? Value(int64_t{0})
                                                 : in.rows[0][0]),
      ExprStep::FilterCompare(0, CmpOp::kEq, in.rows.empty()
                                                 ? Value(int64_t{1})
                                                 : in.rows[0][0])};
  // ne(x) AND eq(x) is unsatisfiable — empty selection on every batch.
  std::vector<Row> got = RunFused(in.batches, nc, none);
  EXPECT_EQ(got.size(), 0u);
  ExpectRowsBitIdentical(got, RowOracle(in.rows, none), "empty selection");

  // Everything passes (null == null here, and x == x for NaN-free col 0 is
  // not guaranteed — use a tautology over the row oracle instead): kNe with
  // a literal no bool/int cell equals.
  std::vector<ExprStep> tautology = {
      ExprStep::FilterCompare(0, CmpOp::kNe, Value(std::string("nope")))};
  std::vector<Row> all = RunFused(in.batches, nc, tautology);
  ExpectRowsBitIdentical(all, RowOracle(in.rows, tautology), "vs oracle");
}

TEST(ExprProgramTest, ProjectOnlyIsZeroCopyColumnSwizzle) {
  Rng rng(13);
  RandomInput in = MakeRandomInput(&rng, 4, 128, 128);
  std::optional<ExprProgram> prog =
      ExprProgram::Compile(4, {ExprStep::Project({2, 0})});
  ASSERT_TRUE(prog.has_value());
  EvalScratch scratch;
  RowBatch out = prog->Run(in.batches[0], &scratch);
  ASSERT_EQ(out.num_columns(), 2u);
  EXPECT_EQ(out.column_ptr(0).get(), in.batches[0].column_ptr(2).get());
  EXPECT_EQ(out.column_ptr(1).get(), in.batches[0].column_ptr(0).get());
}

TEST(ExprProgramTest, FilteredStringColumnsShareTheInputDictionary) {
  Schema schema({{"s", DataType::kString}, {"n", DataType::kInt64}});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({i % 7 == 0 ? Value::Null()
                               : Value("tag" + std::to_string(i % 5)),
                    Value(int64_t{i})});
  }
  auto dict = std::make_shared<storage::Dictionary>();
  std::vector<RowBatch> batches = {RowBatch::FromRows(schema, rows, 0, 50),
                                   RowBatch::FromRows(schema, rows, 50, 100)};
  for (RowBatch& b : batches) b.column_ptr(0)->MergeDictInto(dict);

  std::vector<ExprStep> steps = {
      ExprStep::FilterCompare(0, CmpOp::kGe, Value(std::string("tag1"))),
      ExprStep::FilterCompare(1, CmpOp::kLt, Value(int64_t{80}))};
  std::optional<ExprProgram> prog = ExprProgram::Compile(2, steps);
  ASSERT_TRUE(prog.has_value());
  prog->BindDictionaries(batches);
  EvalScratch scratch;
  std::vector<Row> fused;
  for (const RowBatch& b : batches) {
    RowBatch out = prog->Run(b, &scratch);
    ASSERT_GT(out.num_rows(), 0u);
    // Dictionary passthrough: the filtered batch's string column shares the
    // table-wide dictionary by pointer — no strings were re-interned.
    EXPECT_EQ(out.column(0).dict().get(), b.column(0).dict().get());
    EXPECT_EQ(out.column(0).dict().get(), dict.get());
    for (size_t r = 0; r < out.num_rows(); ++r) fused.push_back(out.RowAt(r));
  }
  ExpectRowsBitIdentical(fused, RowOracle(rows, steps), "dict passthrough");
}

TEST(ExprProgramTest, AllNullStringColumn) {
  Schema schema({{"s", DataType::kString}});
  std::vector<Row> rows(40, Row{Value::Null()});
  std::vector<RowBatch> batches = {RowBatch::FromRows(schema, rows, 0, 40)};
  batches[0].column_ptr(0)->MergeDictInto(
      std::make_shared<storage::Dictionary>());
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt}) {
    std::vector<ExprStep> steps = {
        ExprStep::FilterCompare(0, op, Value(std::string("x")))};
    ExpectRowsBitIdentical(RunFused(batches, 1, steps), RowOracle(rows, steps),
                           "all-null string column");
  }
}

TEST(ExprProgramTest, CompileRejectsOutOfRangeColumns) {
  EXPECT_FALSE(ExprProgram::Compile(
                   2, {ExprStep::FilterCompare(2, CmpOp::kEq, Value(int64_t{0}))})
                   .has_value());
  EXPECT_FALSE(
      ExprProgram::Compile(3, {ExprStep::Project({1}),
                               ExprStep::FilterCompare(1, CmpOp::kEq,
                                                       Value(int64_t{0}))})
          .has_value());
  // Valid chain: filter column indices compose through the projection.
  EXPECT_TRUE(
      ExprProgram::Compile(3, {ExprStep::Project({2, 1}),
                               ExprStep::FilterCompare(1, CmpOp::kEq,
                                                       Value(int64_t{0}))})
          .has_value());
}

TEST(ExprProgramTest, EmptyBatchAndEmptyChain) {
  Rng rng(17);
  RandomInput in = MakeRandomInput(&rng, 2, 0, 32);
  // Zero batches is legal input to BindDictionaries and trivially correct.
  std::vector<Row> fused = RunFused(in.batches, 2, {ExprStep::FilterCompare(
                                                       0, CmpOp::kEq,
                                                       Value(int64_t{1}))});
  EXPECT_TRUE(fused.empty());
  // An empty chain is the identity program.
  RandomInput in2 = MakeRandomInput(&rng, 2, 64, 16);
  ExpectRowsBitIdentical(RunFused(in2.batches, 2, {}), in2.rows,
                         "identity program");
}

}  // namespace
}  // namespace opd
