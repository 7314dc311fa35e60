// Fused expression evaluation for the batch engine.
//
// An `ExprProgram` is the compiled form of a project+filter chain: a list of
// compare filters (all referencing *input-space* columns, composed through
// any interleaved projections at compile time) plus one final output column
// map. Running a program is a single pass over a RowBatch:
//
//   1. each filter computes a branchless pass/fail byte mask over the full
//      batch with the typed kernels in kernels.h (null lanes are overlaid
//      with the null-comparison verdict afterwards);
//   2. masks AND together — filters compose by refining one verdict per row,
//      no rows are gathered between filter steps;
//   3. the combined mask compacts into one selection vector, and only the
//      *output* columns gather through it (`ColumnVector::GatherTo`), so
//      columns dropped by the projection are never copied. A full selection
//      (or a filter-free program) degenerates to a zero-copy column swizzle.
//
// Dictionary-encoded string columns stay dictionary-encoded across the whole
// program: string predicates are evaluated once per distinct dictionary
// entry (`BindDictionaries`, a serial pre-pass over the input batches — one
// verdict bitmap per shared dictionary, typically a single table-wide
// dictionary), per-row work is a byte lookup by code, and gathers copy
// 32-bit codes while sharing the dictionary pointer.
//
// Semantics are byte-identical to per-row `afk::EvalCmp` evaluation and to
// running each step on its own: numeric comparisons go through double (`Value::ToDouble()`), null
// cells compare as `EvalCmp(null, op, literal)`, and mixed-type (variant
// lane) columns, null literals, and cross-class comparisons fall back to a
// per-row `EvalCmp` mask — same verdicts, same output bytes.

#ifndef OPD_EXEC_EXPR_EXPR_PROGRAM_H_
#define OPD_EXEC_EXPR_EXPR_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "afk/predicate.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace opd::exec::expr {

/// One source-level step of a project+filter chain. Column indices are
/// relative to the step's *input* (the previous step's output), exactly as
/// the operators would see them if run one at a time.
struct ExprStep {
  enum class Kind { kFilterCompare, kProject };

  static ExprStep FilterCompare(size_t col, afk::CmpOp op,
                                storage::Value literal) {
    ExprStep s;
    s.kind = Kind::kFilterCompare;
    s.col = col;
    s.op = op;
    s.literal = std::move(literal);
    return s;
  }
  static ExprStep Project(std::vector<size_t> cols) {
    ExprStep s;
    s.kind = Kind::kProject;
    s.cols = std::move(cols);
    return s;
  }

  Kind kind = Kind::kFilterCompare;
  size_t col = 0;                // kFilterCompare: column to compare
  afk::CmpOp op = afk::CmpOp::kEq;
  storage::Value literal;
  std::vector<size_t> cols;      // kProject: columns to keep, in order
};

/// Reusable per-thread buffers for `ExprProgram::Run`. Callers that loop
/// over batches keep one scratch alive to avoid per-batch allocation.
struct EvalScratch {
  std::vector<uint8_t> mask;   // combined verdict per row
  std::vector<uint8_t> step;   // current filter's verdict per row
  std::vector<uint32_t> sel;   // compacted selection
};

/// \brief A compiled, fused project+filter program.
class ExprProgram {
 public:
  /// Compiles `steps` against an input of `num_input_cols` columns.
  /// Projections compose into one output column map; filters are rewritten
  /// to input-space column indices. Returns nullopt when any step is out of
  /// range (callers treat that as "not fusable" and keep their own path).
  static std::optional<ExprProgram> Compile(size_t num_input_cols,
                                            const std::vector<ExprStep>& steps);

  /// Serial pre-pass: evaluates every string predicate once per distinct
  /// dictionary entry of every dictionary appearing in `batches`, caching
  /// one verdict bitmap per (filter, dictionary). After binding, `Run` is
  /// const and safe to call from many threads concurrently. Binding is
  /// optional — an unseen dictionary is evaluated on the fly inside `Run`
  /// (correct, just not cached).
  void BindDictionaries(const std::vector<storage::RowBatch>& batches);

  /// Evaluates the program over one batch: one fused pass computing the
  /// composed selection, then gathering the output columns through it.
  /// Byte-identical to running the source steps one operator at a time.
  storage::RowBatch Run(const storage::RowBatch& batch,
                        EvalScratch* scratch) const;

  size_t num_filters() const { return filters_.size(); }
  bool has_project() const { return has_project_; }
  /// Output columns in input space (identity when has_project() is false).
  const std::vector<size_t>& output_cols() const { return output_cols_; }

 private:
  struct Filter {
    size_t col = 0;  // input-space column index
    afk::CmpOp op = afk::CmpOp::kEq;
    storage::Value literal;
    bool null_passes = false;  // EvalCmp(null, op, literal)
    // Per-dictionary predicate verdicts (1 byte per entry), keyed by the
    // shared dictionary identity. Written only by BindDictionaries.
    std::unordered_map<const storage::Dictionary*, std::vector<uint8_t>>
        dict_pass;
  };

  /// Writes the filter's verdict mask for `batch` into mask[0..n).
  void EvalFilterMask(const Filter& f, const storage::RowBatch& batch,
                      uint8_t* mask) const;

  std::vector<Filter> filters_;
  std::vector<size_t> output_cols_;
  bool has_project_ = false;
};

}  // namespace opd::exec::expr

#endif  // OPD_EXEC_EXPR_EXPR_PROGRAM_H_
