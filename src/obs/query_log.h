// Server-lifetime query history: a bounded ring of structured per-query
// records plus an optional JSONL sink and a byte-budgeted slow-query
// capture store. This is the layer that survives the queries it describes —
// each RunResult's metrics die with the result object, but the QueryLog
// keeps the last N completions so an operator can ask "what ran, how slow,
// and why" across every tenant (DESIGN.md §3, "Introspection & query
// history").
//
// Concurrency: one mutex guards the ring, the JSONL sink, the stats and the
// slow-profile store. The ring holds shared pointers to immutable records,
// so an append swaps one pointer and Snapshot()/Find() copy pointers under
// the lock and read the records after releasing it. The serving path only
// appends, once per completed query.

#ifndef OPD_OBS_QUERY_LOG_H_
#define OPD_OBS_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace opd::obs {

class MetricRegistry;

/// \brief One completed (or failed) query, as the server saw it.
///
/// Fields split into two classes. *Deterministic* fields are identical
/// between a concurrent run and its serial replay under pinned admission
/// epochs: tenant, epochs, status, rows, jobs, view counts, rewrite
/// decision counts, exec_time_s (modeled simulation time), max residual.
/// *Timing* fields (ticket, queue_wait_s, wall_time_s, recycle_hits,
/// recycle_misses) depend on scheduling and are excluded from determinism
/// comparisons.
struct QueryRecord {
  std::string tenant;
  std::string query;  ///< Source text as submitted (whitespace-trimmed).

  uint64_t ticket = 0;           ///< Admission ticket (timing-dependent).
  uint64_t admission_epoch = 0;  ///< View-store epoch the run snapshotted.
  uint64_t publish_epoch = 0;    ///< Epoch after this run's PublishBatch.

  double queue_wait_s = 0.0;  ///< Admission queue wait (wall clock).
  double wall_time_s = 0.0;   ///< End-to-end Run() wall time.
  double exec_time_s = 0.0;   ///< Modeled simulation time (deterministic).

  uint64_t rows_in = 0;   ///< Rows fed into jobs (incl. intermediates).
  uint64_t rows_out = 0;  ///< Rows in the final result table.
  uint64_t jobs = 0;

  uint64_t views_used = 0;
  uint64_t cross_tenant_views = 0;  ///< Subset of views_used from others.
  uint64_t views_published = 0;
  uint64_t recycle_hits = 0;    ///< Hash-table cache hits (timing-dependent).
  uint64_t recycle_misses = 0;  ///< Hash-table cache misses (timing-dependent).

  /// Rewrite decision counts (rewrite::DecisionCounts, flattened).
  uint64_t rw_candidates = 0;
  uint64_t rw_accepted = 0;
  uint64_t rw_signature_mismatch = 0;
  uint64_t rw_filter_not_implied = 0;
  uint64_t rw_afk_containment = 0;
  uint64_t rw_not_cost_improving = 0;
  uint64_t rw_pruned_by_bound = 0;

  /// Worst per-job |actual - predicted| cost residual, percent.
  double max_residual_pct = 0.0;

  std::string status = "ok";  ///< "ok" or "error".
  std::string error;          ///< Message when status == "error".

  /// One compact JSON object (the JSONL sink line, sans newline).
  std::string ToJson() const;
};

/// \brief Full diagnostic capture for one slow query: the artifacts that are
/// too big to keep for every query, kept only for offenders.
struct SlowQueryProfile {
  uint64_t ticket = 0;
  std::string tenant;
  double wall_time_s = 0.0;
  std::string explain_analyze;  ///< EXPLAIN ANALYZE tree at completion.
  std::string decision_log;     ///< Rewrite decision log (text form).
  std::string trace_json;       ///< Chrome-trace JSON ("" if tracing off).

  /// Bytes this profile charges against the capture budget.
  size_t ByteSize() const {
    return sizeof(SlowQueryProfile) + tenant.size() + explain_analyze.size() +
           decision_log.size() + trace_json.size();
  }
};

/// \brief Bounded ring of QueryRecords + JSONL sink + slow-query store.
class QueryLog {
 public:
  struct Options {
    /// Ring capacity in records; the newest `capacity` completions are
    /// retained, older ones are overwritten (counted as dropped).
    size_t capacity = 1024;
    /// When nonempty, every record is also appended as one JSON line.
    std::string jsonl_path;
    /// Queries with wall_time_s >= threshold get a full profile captured;
    /// negative disables capture entirely.
    double slow_threshold_s = -1.0;
    /// Byte budget for retained profiles; oldest-first eviction.
    size_t slow_capture_budget_bytes = 4u << 20;
    /// When set, the log maintains `server.querylog.*` counters/gauges.
    MetricRegistry* registry = nullptr;
  };

  struct Stats {
    uint64_t appended = 0;       ///< Records ever appended.
    uint64_t dropped = 0;        ///< Records overwritten out of the ring.
    uint64_t slow_captured = 0;  ///< Profiles ever captured.
    uint64_t slow_evicted = 0;   ///< Profiles evicted by the byte budget.
    uint64_t capture_bytes = 0;  ///< Bytes currently held by profiles.
  };

  explicit QueryLog(const Options& options);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends a completed-query record (and its JSONL line, if a sink is
  /// configured). Thread-safe.
  void Append(QueryRecord record);

  /// Whether `wall_time_s` crosses the slow-query threshold.
  bool ShouldCapture(double wall_time_s) const {
    return options_.slow_threshold_s >= 0.0 &&
           wall_time_s >= options_.slow_threshold_s;
  }

  /// Retains a slow-query profile, evicting oldest profiles until the
  /// byte budget holds. A profile larger than the whole budget is dropped
  /// (counted captured then evicted) rather than blowing the bound.
  void CaptureSlow(SlowQueryProfile profile);

  /// The retained records, oldest first. Records are immutable, so the
  /// pointers stay valid and unchanged across later appends.
  std::vector<std::shared_ptr<const QueryRecord>> Snapshot() const;

  /// The retained record with the given admission ticket, or nullptr.
  std::shared_ptr<const QueryRecord> Find(uint64_t ticket) const;

  /// The retained slow-query profile for `ticket`, if any.
  std::optional<SlowQueryProfile> FindProfile(uint64_t ticket) const;

  Stats stats() const;
  size_t capacity() const { return options_.capacity; }

 private:
  const Options options_;

  mutable std::mutex mu_;  // guards everything below
  // Slot seq % capacity holds the record appended as sequence number seq.
  std::vector<std::shared_ptr<const QueryRecord>> ring_;
  uint64_t next_seq_ = 0;
  std::ofstream sink_;
  Stats stats_;
  std::deque<SlowQueryProfile> profiles_;  // oldest first
};

}  // namespace opd::obs

#endif  // OPD_OBS_QUERY_LOG_H_
