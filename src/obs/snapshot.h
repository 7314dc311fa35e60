// Point-in-time snapshot and diff of a metric registry, with JSON and
// Prometheus-style text exposition. Diffing two snapshots taken around a
// window of work (e.g. Server::TenantSnapshot before and after) reports
// exactly what that window contributed (counters and histogram mass are
// diffed; gauges are levels and report their current value).

#ifndef OPD_OBS_SNAPSHOT_H_
#define OPD_OBS_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace opd::obs {

/// How a snapshot renders as Prometheus text exposition.
struct PrometheusOptions {
  /// Metric-name prefix; names mangle to `<prefix>_<name with non-alnum
  /// as underscores>`.
  std::string prefix = "opd";
  /// Labels attached to every sample, in the given order (e.g.
  /// {{"tenant", "ana"}} for a per-tenant scope). Values are escaped per
  /// the exposition format (`\\`, `"`, and newline).
  std::vector<std::pair<std::string, std::string>> labels;
  /// Optional `# HELP` text per (unmangled) metric name; escaped per the
  /// exposition format (`\\` and newline).
  std::map<std::string, std::string> help;
};

/// Escapes a Prometheus label value: `\` -> `\\`, `"` -> `\"`, newline ->
/// `\n` (the exposition format is line-oriented; an unescaped newline in a
/// label value corrupts every sample after it).
std::string PrometheusEscapeLabelValue(const std::string& value);

/// Escapes `# HELP` text: `\` -> `\\`, newline -> `\n` (quotes are legal in
/// help text and stay as-is).
std::string PrometheusEscapeHelp(const std::string& text);

/// \brief The values of every registered metric at one instant.
struct MetricsSnapshot {
  struct HistogramStat {
    uint64_t count = 0;
    double sum = 0;
    /// Min/max of the histogram's *lifetime*, not the diff window (the
    /// sketch cannot un-observe); a diff carries the current values.
    double min = 0;
    double max = 0;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStat> histograms;

  static MetricsSnapshot Capture(MetricRegistry& registry);

  /// What happened since `base`: counter values and histogram count/sum are
  /// subtracted (entries with zero delta are dropped); gauges keep their
  /// current value — they are levels, not accumulations.
  MetricsSnapshot DiffFrom(const MetricsSnapshot& base) const;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max}}} — compact, via json_writer.
  std::string ToJson() const;

  /// Prometheus text exposition: one `# TYPE` line per metric, names
  /// mangled `<prefix>_<name with dots as underscores>`. Histograms export
  /// as summaries (`_count`/`_sum`) plus `_min`/`_max` gauges.
  std::string ToPrometheus(const std::string& prefix = "opd") const;
  /// Full exposition control: label sets (escaped), `# HELP` lines, prefix.
  std::string ToPrometheus(const PrometheusOptions& options) const;
};

}  // namespace opd::obs

#endif  // OPD_OBS_SNAPSHOT_H_
