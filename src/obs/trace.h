// Query-lifecycle tracing: RAII spans recorded into a per-query Trace that
// serializes to Chrome trace_event JSON (chrome://tracing, Perfetto).
//
// Span taxonomy (see DESIGN.md "Observability"):
//   query -> rewrite -> round                    (search side)
//   query -> job -> map|partition|reduce -> task (execution side)
//
// Determinism contract: span *structure* (ids, parents, names, order) is
// identical for every thread count and bucket count — only durations and
// timestamps vary. Ids are therefore only allocated on serial code paths;
// parallel task waves pre-allocate a contiguous id block before the wave
// starts (`TracedParallelFor`) so task i always gets the same id, and
// concurrent MR jobs each record into a trace of their own on the query's
// clock, spliced into the query's trace in job order (`Trace::Splice`).
//
// Disabled tracing is near-zero cost: every entry point takes a `Trace*`
// and a null trace reduces spans to an inert pointer check.

#ifndef OPD_OBS_TRACE_H_
#define OPD_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"

namespace opd::obs {

/// One finished span. `args` values are pre-encoded JSON (numbers raw,
/// strings quoted/escaped), so serialization is a plain splice.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string cat;
  double start_us = 0;
  double dur_us = 0;
  /// Chrome "tid" lane: 0 for serial spans, 1 + task index for task spans
  /// (keeps concurrent tasks on separate tracks in the viewer). Lanes are
  /// derived from ids/indices, never from real thread identity, so they are
  /// deterministic.
  uint32_t lane = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// \brief Thread-safe recorder for one query's spans.
class Trace {
 public:
  explicit Trace(std::chrono::steady_clock::time_point epoch =
                     std::chrono::steady_clock::now());

  /// The instant NowUs() counts from (a trace built on it shares the clock).
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Reserves `n` consecutive span ids and returns the first. Call only from
  /// serial code (before a parallel wave) to keep ids deterministic.
  uint64_t AllocSpanIds(uint64_t n);

  /// Appends a finished span (thread-safe).
  void Record(SpanRecord rec);

  /// Moves the spans of `part`, a trace on this trace's clock, into this
  /// one under a freshly allocated block of ids, in `part`'s id order, as
  /// if they had been recorded here; its root spans get parent `parent`.
  /// Serial code paths only, like AllocSpanIds.
  void Splice(Trace& part, uint64_t parent);

  /// Microseconds since this trace's epoch.
  double NowUs() const;

  size_t size() const;

  /// All spans sorted by id — the canonical (thread-count invariant) order.
  std::vector<SpanRecord> Sorted() const;

  /// Full Chrome trace_event document: {"traceEvents":[...]}.
  std::string ToChromeJson() const;

  /// Appends this trace's events (without the surrounding document) as
  /// comma-separated trace_event objects — lets callers merge several
  /// traces into one file.
  void AppendEventsJson(std::string* out, bool* first) const;

  /// One "id parent name" line per span in id order; equal across thread
  /// counts by the determinism contract (durations are excluded).
  std::string StructureString() const;

 private:
  mutable std::mutex mu_;
  std::atomic<uint64_t> next_id_{1};
  std::vector<SpanRecord> spans_;
  std::chrono::steady_clock::time_point epoch_;
};

/// \brief RAII span: records itself into the trace when destroyed (or on
/// End()). A default-constructed or null-trace span is inert.
class TraceSpan {
 public:
  TraceSpan() = default;
  /// Opens a span with a freshly allocated id. Serial code paths only.
  TraceSpan(Trace* trace, uint64_t parent, std::string name,
            std::string cat = "");

  /// Opens a span over a pre-allocated id (parallel task waves).
  static TraceSpan Adopt(Trace* trace, uint64_t id, uint64_t parent,
                         std::string name, std::string cat = "",
                         uint32_t lane = 0);

  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { End(); }

  /// Records the span now (idempotent).
  void End();

  uint64_t id() const { return rec_.id; }
  explicit operator bool() const { return trace_ != nullptr; }

  void AddArg(std::string key, std::string_view value);  // JSON string
  void AddArg(std::string key, double value);
  void AddArg(std::string key, int64_t value);
  void AddArg(std::string key, uint64_t value);
  void AddArg(std::string key, bool value);

 private:
  TraceSpan(Trace* trace, SpanRecord rec) : trace_(trace), rec_(std::move(rec)) {}

  Trace* trace_ = nullptr;
  SpanRecord rec_;
};

/// ParallelFor with one "task" span per index. The id block is allocated
/// before the wave, so span structure is identical at any thread count.
/// With a null/disabled trace this is exactly ParallelFor.
Status TracedParallelFor(ThreadPool* pool, size_t n, Trace* trace,
                         uint64_t parent, const char* task_name,
                         const std::function<Status(size_t)>& fn,
                         double* max_task_seconds = nullptr);

/// Writes the merged Chrome trace_event document of `traces` to `path`.
Status WriteChromeTraceFile(const std::string& path,
                            const std::vector<const Trace*>& traces);

}  // namespace opd::obs

#endif  // OPD_OBS_TRACE_H_
