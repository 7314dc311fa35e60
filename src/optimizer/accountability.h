// Cost-model accountability: after every executed job, the engine compares
// the optimizer's plan-time prediction (cost model over *estimated* rows and
// bytes) against the same model re-evaluated on the *observed* byte counts.
// The signed residual of that comparison is the measure of how much the
// estimation layer — cardinality estimates, view statistics, calibrated UDF
// scalars — drifts from reality. The CostAccountant keeps an EWMA of the
// residual per operator class so the server can report when calibration
// has gone stale, and publishes `costmodel.job.residual_pct` /
// `costmodel.udf.drift` into the global MetricRegistry.

#ifndef OPD_OPTIMIZER_ACCOUNTABILITY_H_
#define OPD_OPTIMIZER_ACCOUNTABILITY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace opd::optimizer {

/// Signed residual in percent: 100 * (observed - predicted) / predicted.
/// Returns 0 when the prediction is too small to compare against (sub-
/// microsecond modeled jobs carry no calibration signal).
double ResidualPct(double predicted_s, double observed_s);

/// One executed job's prediction-vs-observation record.
struct JobResidual {
  /// Operator class: "PROJECT", "FILTER", "JOIN", "GROUPBY", or
  /// "UDF:<name>" (per-UDF classes carry the per-UDF calibration drift).
  std::string op_class;
  double predicted_s = 0;
  double observed_s = 0;
  double residual_pct = 0;
};

/// \brief Per-operator-class EWMA of cost-model residuals.
///
/// Thread-safe; Record() is called from the engine's serial finalize path,
/// readers may be any thread. Deterministic given a deterministic record
/// order (the engine finalizes jobs in topological order).
class CostAccountant {
 public:
  /// EWMA weight of the newest residual.
  static constexpr double kEwmaAlpha = 0.2;
  /// |EWMA| above this marks the class's calibration stale.
  static constexpr double kStalePct = 25.0;

  struct Options {
    /// Publish into obs::MetricRegistry::Global() on every Record().
    bool publish_metrics = true;
  };

  CostAccountant() = default;
  explicit CostAccountant(Options options) : options_(options) {}

  /// Folds one job's residual into its class EWMA (and the registry gauges
  /// when publishing is on).
  void Record(const JobResidual& residual);

  struct ClassDrift {
    std::string op_class;
    double ewma_pct = 0;
    uint64_t samples = 0;
    bool stale = false;
  };
  /// Every class seen so far, ordered by class name.
  std::vector<ClassDrift> Drifts() const;

  void Reset();

  const Options& options() const { return options_; }

 private:
  struct ClassState {
    double ewma = 0;
    uint64_t samples = 0;
  };

  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, ClassState> classes_;
};

}  // namespace opd::optimizer

#endif  // OPD_OPTIMIZER_ACCOUNTABILITY_H_
