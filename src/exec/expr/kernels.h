// Branchless, SIMD-friendly primitive kernels for the fused expression
// evaluator. Every loop here is written in autovectorizable form: no
// data-dependent branches in the body, fixed-trip-count iteration over flat
// arrays, one store per element. `#pragma omp simd` (compiled with
// -fopenmp-simd, no runtime dependency) marks the loops explicitly; they
// also vectorize under plain -O2.
//
// Masks are uint8_t lanes (1 = row passes) over the *full* batch, including
// null cells — null cells hold zero placeholders in the native arrays, so
// comparing them is harmless; `OverlayNullMask` then forces their lanes to
// the null comparison result. Selection vectors are ascending row indices;
// `MaskToSelection` compacts a mask into one without branching on pass/fail.
//
// Numeric comparisons go through double exactly like `afk::EvalCmp`:
// `Value::operator==`/`operator<` compare `ToDouble()` for any two numeric
// cells, so int64/bool lanes are converted per element before comparing.
// This keeps fused results byte-identical to per-row evaluation
// (1 == 1.0 == true).

#ifndef OPD_EXEC_EXPR_KERNELS_H_
#define OPD_EXEC_EXPR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "afk/predicate.h"

namespace opd::exec::expr {

/// mask[i] = (v[i] <op> lit), for all i in [0, n).
void CompareMaskF64(const double* v, size_t n, afk::CmpOp op, double lit,
                    uint8_t* mask);

/// mask[i] = ((double)v[i] <op> lit) — int64 lanes compare through double,
/// matching `Value::ToDouble()` row semantics.
void CompareMaskI64(const int64_t* v, size_t n, afk::CmpOp op, double lit,
                    uint8_t* mask);

/// mask[i] = ((v[i] ? 1.0 : 0.0) <op> lit) — bool lanes compare as 0/1.
void CompareMaskBool(const uint8_t* v, size_t n, afk::CmpOp op, double lit,
                     uint8_t* mask);

/// mask[i] = dict_pass[codes[i]] — dictionary-string predicate selected by
/// code; `dict_pass` is the per-entry verdict bitmap (1 byte per entry)
/// computed once per dictionary by `ExprProgram::BindDictionaries`.
void CompareMaskCodes(const uint32_t* codes, size_t n,
                      const uint8_t* dict_pass, uint8_t* mask);

/// Forces mask lanes of null cells to `null_pass` (the value of
/// `EvalCmp(null, op, literal)`); valid cells keep their computed verdict.
/// `valid_words` is the column's validity bitmap (bit i set = non-null).
void OverlayNullMask(const uint64_t* valid_words, size_t n, bool null_pass,
                     uint8_t* mask);

/// dst[i] &= src[i] — composes filter masks without materializing between
/// filter steps.
void AndMask(const uint8_t* src, size_t n, uint8_t* dst);

/// Compacts `mask` into ascending row indices: sel[k++] = i for every i
/// with mask[i] != 0. `sel` must have room for n entries. Returns the
/// selection length. Branchless: the store always happens, the cursor
/// advances by the mask bit.
size_t MaskToSelection(const uint8_t* mask, size_t n, uint32_t* sel);

}  // namespace opd::exec::expr

#endif  // OPD_EXEC_EXPR_KERNELS_H_
