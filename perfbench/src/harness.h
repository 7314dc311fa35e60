// Helpers of the repository benchmark (perfbench/): the latency percentile,
// the order-insensitive answer fingerprint the correctness oracle compares,
// DFS storage accounting (orphan bytes), and the in-memory span recorder
// behind the traced run's Chrome trace_event export.
//
// Everything here works from the outside of the system, through public
// calls only, so the benchmark measures the code it is pointed at without
// instrumenting it.

#ifndef OPD_PERFBENCH_HARNESS_H_
#define OPD_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "storage/dfs.h"
#include "storage/table.h"

namespace opd::perfbench {

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
/// the two closest ranks (the "linear" method of numpy.percentile). Returns
/// 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// A fingerprint of a table's answer that ignores row order: the schema
/// (column names and types, in order), the row count, and a commutative sum
/// of per-row hashes. A rewritten plan may emit the same rows in another
/// order; any changed, missing or duplicated row changes the fingerprint.
/// Reads cells through Table::Get, so it works for row- and batch-primary
/// tables alike.
uint64_t UnorderedTableFingerprint(const storage::Table& table);

/// Where the DFS bytes live: base tables, retained views, or nowhere.
struct StorageAccount {
  size_t dfs_files = 0;
  /// Dfs::used_bytes().
  uint64_t dfs_bytes = 0;
  /// Bytes of the files the catalog's base tables point at.
  uint64_t base_bytes = 0;
  /// ViewStore::TotalBytes(): the bytes of every retained view.
  uint64_t view_bytes = 0;
  /// Files (and their bytes) at paths no base table or view references.
  size_t orphan_files = 0;
  uint64_t orphan_bytes = 0;

  /// dfs_bytes / (base_bytes + view_bytes); 1.0 when nothing is wasted.
  double BytesPerLiveByte() const;
};

/// Walks every DFS path and classifies it against the catalog's base-table
/// paths and the view store's view paths.
StorageAccount AccountStorage(const storage::Dfs& dfs,
                              const catalog::Catalog& catalog,
                              const catalog::ViewStore& views);

/// One timed call. Spans of one query share `query`; `parent` is 0 for the
/// query's root span.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  int thread = 0;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;

  double Seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Spans of one client thread, kept in memory until the run ends.
/// Not thread-safe: give each thread its own recorder and merge afterwards.
class SpanRecorder {
 public:
  /// `id_base` keeps span and query ids unique across the recorders of a
  /// run (use a distinct multiple of a large stride per thread).
  SpanRecorder(int thread, uint64_t id_base)
      : thread_(thread), next_id_(id_base + 1) {}

  /// Opens a new query root span and returns its id (the query id).
  uint64_t BeginQuery(const std::string& name);
  /// Closes the span BeginQuery opened last.
  void EndQuery();

  /// Runs `fn` inside a child span of `query` named `name`.
  template <typename Fn>
  auto Time(uint64_t query, const char* name, Fn&& fn) {
    Span span;
    span.name = name;
    span.id = next_id_++;
    span.parent = query;
    span.query = query;
    span.thread = thread_;
    span.start = std::chrono::steady_clock::now();
    struct Closer {
      SpanRecorder* self;
      Span* span;
      ~Closer() {
        span->end = std::chrono::steady_clock::now();
        self->spans_.push_back(std::move(*span));
      }
    } closer{this, &span};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  uint64_t next_id_;
  std::vector<Span> spans_;
  /// Index in spans_ of the open query span (one per thread at a time).
  size_t open_query_ = 0;
};

/// Per-name totals over a set of spans.
struct LayerTotals {
  /// Query root spans and their summed duration.
  size_t queries = 0;
  double query_s = 0;
  /// Summed self time (duration minus the child spans it contains) of
  /// every non-root span name.
  std::map<std::string, double> self_s;
};

LayerTotals SumLayers(const std::vector<Span>& spans);

/// Renders `spans` as Chrome trace_event JSON (complete "X" events, times
/// in microseconds from the earliest span), loadable in chrome://tracing or
/// Perfetto.
std::string ToChromeTraceJson(const std::vector<Span>& spans);

}  // namespace opd::perfbench

#endif  // OPD_PERFBENCH_HARNESS_H_
