#include "exec/expr/expr_program.h"

#include <utility>

#include "exec/expr/kernels.h"

namespace opd::exec::expr {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;
using storage::Dictionary;
using storage::RowBatch;
using storage::Value;

namespace {

bool IsNumericType(DataType t) {
  return t == DataType::kBool || t == DataType::kInt64 ||
         t == DataType::kDouble;
}

/// Per-entry verdicts for a string predicate over one dictionary, using the
/// per-row `afk::EvalCmp` so verdicts are definitionally identical.
std::vector<uint8_t> EvalDictionary(const Dictionary& dict, afk::CmpOp op,
                                    const Value& literal) {
  std::vector<uint8_t> pass(dict.size());
  for (size_t c = 0; c < dict.size(); ++c) {
    pass[c] = afk::EvalCmp(Value(dict.entries[c]), op, literal) ? 1 : 0;
  }
  return pass;
}

}  // namespace

std::optional<ExprProgram> ExprProgram::Compile(
    size_t num_input_cols, const std::vector<ExprStep>& steps) {
  ExprProgram p;
  // colmap[j] = input-space index of the current intermediate's column j.
  std::vector<size_t> colmap(num_input_cols);
  for (size_t i = 0; i < num_input_cols; ++i) colmap[i] = i;

  for (const ExprStep& step : steps) {
    switch (step.kind) {
      case ExprStep::Kind::kFilterCompare: {
        if (step.col >= colmap.size()) return std::nullopt;
        Filter f;
        f.col = colmap[step.col];
        f.op = step.op;
        f.literal = step.literal;
        f.null_passes = afk::EvalCmp(Value::Null(), f.op, f.literal);
        p.filters_.push_back(std::move(f));
        break;
      }
      case ExprStep::Kind::kProject: {
        std::vector<size_t> next;
        next.reserve(step.cols.size());
        for (size_t c : step.cols) {
          if (c >= colmap.size()) return std::nullopt;
          next.push_back(colmap[c]);
        }
        colmap = std::move(next);
        p.has_project_ = true;
        break;
      }
    }
  }
  p.output_cols_ = std::move(colmap);
  return p;
}

void ExprProgram::BindDictionaries(
    const std::vector<storage::RowBatch>& batches) {
  for (Filter& f : filters_) {
    if (f.literal.type() != DataType::kString) continue;
    for (const RowBatch& b : batches) {
      if (f.col >= b.num_columns()) continue;
      const ColumnVector& col = b.column(f.col);
      if (!col.is_native() || col.declared_type() != DataType::kString) {
        continue;
      }
      const Dictionary* dict = col.dict().get();
      if (dict == nullptr || f.dict_pass.count(dict) != 0) continue;
      f.dict_pass.emplace(dict, EvalDictionary(*dict, f.op, f.literal));
    }
  }
}

void ExprProgram::EvalFilterMask(const Filter& f, const RowBatch& batch,
                                 uint8_t* mask) const {
  const ColumnVector& col = batch.column(f.col);
  const size_t n = col.size();

  if (col.is_native() && !f.literal.is_null()) {
    if (IsNumericType(col.declared_type()) &&
        IsNumericType(f.literal.type())) {
      const double lit = f.literal.ToDouble();
      switch (col.declared_type()) {
        case DataType::kBool:
          CompareMaskBool(col.bools(), n, f.op, lit, mask);
          break;
        case DataType::kInt64:
          CompareMaskI64(col.ints(), n, f.op, lit, mask);
          break;
        case DataType::kDouble:
          CompareMaskF64(col.doubles(), n, f.op, lit, mask);
          break;
        default:
          break;  // unreachable: IsNumericType
      }
      if (col.null_count() != 0) {
        OverlayNullMask(col.valid_words(), n, f.null_passes, mask);
      }
      return;
    }
    if (col.declared_type() == DataType::kString &&
        f.literal.type() == DataType::kString) {
      const Dictionary* dict = col.dict().get();
      if (dict == nullptr || dict->size() == 0) {
        // No dictionary, or a (possibly shared, table-wide) dictionary that
        // no string was ever interned into: every cell is null, and null
        // cells carry code 0, which an empty verdict bitmap cannot index.
        for (size_t i = 0; i < n; ++i) mask[i] = f.null_passes ? 1 : 0;
        return;
      }
      auto it = f.dict_pass.find(dict);
      if (it != f.dict_pass.end()) {
        CompareMaskCodes(col.codes(), n, it->second.data(), mask);
      } else {
        // Dictionary not pre-bound: evaluate locally (uncached, correct).
        const std::vector<uint8_t> pass =
            EvalDictionary(*dict, f.op, f.literal);
        CompareMaskCodes(col.codes(), n, pass.data(), mask);
      }
      if (col.null_count() != 0) {
        OverlayNullMask(col.valid_words(), n, f.null_passes, mask);
      }
      return;
    }
  }
  // Generic lane: mixed-type columns, null literals, cross-class compares.
  for (size_t i = 0; i < n; ++i) {
    mask[i] = afk::EvalCmp(col.GetValue(i), f.op, f.literal) ? 1 : 0;
  }
}

RowBatch ExprProgram::Run(const RowBatch& batch, EvalScratch* scratch) const {
  const size_t n = batch.num_rows();
  const bool identity_project =
      !has_project_ && output_cols_.size() == batch.num_columns();

  if (filters_.empty()) {
    return identity_project ? batch : batch.Project(output_cols_);
  }

  if (scratch->mask.size() < n) scratch->mask.resize(n);
  uint8_t* mask = scratch->mask.data();
  EvalFilterMask(filters_[0], batch, mask);
  if (filters_.size() > 1) {
    if (scratch->step.size() < n) scratch->step.resize(n);
    uint8_t* step = scratch->step.data();
    for (size_t f = 1; f < filters_.size(); ++f) {
      EvalFilterMask(filters_[f], batch, step);
      AndMask(step, n, mask);
    }
  }

  if (scratch->sel.size() < n) scratch->sel.resize(n);
  const size_t k = MaskToSelection(mask, n, scratch->sel.data());

  // Full selection: nothing filtered out, fall back to the zero-copy
  // swizzle. Otherwise gather only the output columns through the
  // selection (dropped columns are never touched).
  RowBatch projected =
      identity_project ? batch : batch.Project(output_cols_);
  if (k == n) return projected;
  std::vector<ColumnVectorPtr> out;
  out.reserve(projected.num_columns());
  for (size_t c = 0; c < projected.num_columns(); ++c) {
    out.push_back(projected.column_ptr(c)->GatherTo(scratch->sel.data(), k));
  }
  return RowBatch(std::move(out), k);
}

}  // namespace opd::exec::expr
