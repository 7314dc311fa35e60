// UDF definitions: executable local-function pipelines plus the declarative
// gray-box model describing their end-to-end (A, F, K) transformation.

#ifndef OPD_UDF_UDF_H_
#define OPD_UDF_UDF_H_

#include <optional>
#include <string>
#include <vector>

#include "afk/afk.h"
#include "common/status.h"
#include "udf/local_function.h"

namespace opd::udf {

/// A new output attribute produced by a UDF, with its recorded dependencies
/// (the paper's attribute *signature*, Section 3.1).
struct UdfOutputSpec {
  std::string name;
  storage::DataType type = storage::DataType::kNull;
  /// Names of the input attributes the value depends on.
  std::vector<std::string> deps;
  /// Names of parameters that affect the produced *values* (not filters),
  /// e.g. a tile size. Threshold-style parameters that only filter do NOT
  /// belong here — that is what lets revised thresholds reuse earlier views.
  std::vector<std::string> value_param_keys;
};

/// A filter the UDF applies. Either a comparison whose literal comes from a
/// parameter, or an opaque named predicate over one attribute (arbitrary
/// user code, e.g. a validity check).
struct UdfFilterSpec {
  std::string attr;  // name among inputs or outputs
  afk::CmpOp op = afk::CmpOp::kGt;
  std::string param_key;
  double default_literal = 0.0;
  bool opaque = false;
  std::string opaque_fn;  // predicate name when opaque
};

/// \brief The declarative gray-box model of a UDF: how it transforms
/// (A, F, K) end to end. The system never sees inside the local functions.
struct UdfModelSpec {
  /// Input attribute names the UDF requires.
  std::vector<std::string> consumed;
  /// Input attributes passed through to the output. The single entry "*"
  /// means "all current attributes".
  std::vector<std::string> kept;
  std::vector<UdfOutputSpec> outputs;
  std::vector<UdfFilterSpec> filters;
  /// New grouping keys of the output (names among kept/outputs); nullopt
  /// keeps the input keying.
  std::optional<std::vector<std::string>> rekey;
  /// Whether the rekey is a grouping (increments aggregation depth). Pure
  /// map-side key relabeling would set this false.
  bool rekey_groups = true;
  /// Prior estimate of output rows per input row before calibration.
  double expansion_hint = 1.0;
};

/// \brief A complete UDF: name, model, executable stages, calibrated cost
/// scalars (Section 4.2).
struct UdfDefinition {
  std::string name;
  UdfModelSpec model;
  std::vector<LocalFunction> local_functions;

  /// Computational cost multipliers relative to the baseline data-only cost,
  /// set by Calibration (1 by default = plain data cost).
  double map_scalar = 1.0;
  double reduce_scalar = 1.0;
  /// Calibrated output-rows-per-input-row (overrides expansion_hint).
  std::optional<double> calibrated_expansion;

  double expansion() const {
    return calibrated_expansion.value_or(model.expansion_hint);
  }
  /// True if any local function is a reduce (the UDF shuffles data).
  bool HasShuffle() const;
};

/// \brief Applies the UDF's gray-box model to an input annotation, producing
/// the output annotation (Figure 2 / Figure 3(b) of the paper).
///
/// Derived output attributes record (producer = UDF name, resolved input
/// attributes, the input (F, K) context, value-affecting params) as their
/// signature.
Result<afk::Afk> ApplyUdfModel(const UdfDefinition& udf, const afk::Afk& in,
                               const Params& params);

}  // namespace opd::udf

#endif  // OPD_UDF_UDF_H_
