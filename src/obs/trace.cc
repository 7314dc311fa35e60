#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/json_writer.h"

namespace opd::obs {

Trace::Trace(std::chrono::steady_clock::time_point epoch) : epoch_(epoch) {}

uint64_t Trace::AllocSpanIds(uint64_t n) {
  return next_id_.fetch_add(n, std::memory_order_relaxed);
}

void Trace::Record(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

void Trace::Splice(Trace& part, uint64_t parent) {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(part.mu_);
    spans.swap(part.spans_);
  }
  // `part` allocated ids 1 .. next_id_ - 1.
  const uint64_t base =
      AllocSpanIds(part.next_id_.load(std::memory_order_relaxed) - 1) - 1;
  for (SpanRecord& s : spans) {
    s.id += base;
    s.parent = s.parent == 0 ? parent : s.parent + base;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

double Trace::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<SpanRecord> Trace::Sorted() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

namespace {

void AppendEvent(const SpanRecord& s, JsonWriter* w) {
  w->BeginObject();
  w->Key("name").String(s.name);
  w->Key("cat").String(s.cat.empty() ? "opd" : s.cat);
  w->Key("ph").String("X");
  w->Key("ts").Double(s.start_us);
  w->Key("dur").Double(s.dur_us);
  w->Key("pid").Int(1);
  w->Key("tid").UInt(1 + s.lane);
  w->Key("args");
  w->BeginObject();
  w->Key("id").UInt(s.id);
  if (s.parent != 0) w->Key("parent").UInt(s.parent);
  for (const auto& [key, value] : s.args) {
    w->Key(key).Raw(value);
  }
  w->EndObject();
  w->EndObject();
}

}  // namespace

void Trace::AppendEventsJson(std::string* out, bool* first) const {
  for (const SpanRecord& s : Sorted()) {
    JsonWriter w;
    AppendEvent(s, &w);
    if (!*first) out->push_back(',');
    *first = false;
    *out += w.str();
  }
}

std::string Trace::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  AppendEventsJson(&out, &first);
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string Trace::StructureString() const {
  std::string out;
  for (const SpanRecord& s : Sorted()) {
    out += std::to_string(s.id);
    out.push_back(' ');
    out += std::to_string(s.parent);
    out.push_back(' ');
    out += s.name;
    out.push_back('\n');
  }
  return out;
}

TraceSpan::TraceSpan(Trace* trace, uint64_t parent, std::string name,
                     std::string cat)
    : trace_(trace) {
  if (trace_ == nullptr) return;
  rec_.id = trace_->AllocSpanIds(1);
  rec_.parent = parent;
  rec_.name = std::move(name);
  rec_.cat = std::move(cat);
  rec_.start_us = trace_->NowUs();
}

TraceSpan TraceSpan::Adopt(Trace* trace, uint64_t id, uint64_t parent,
                           std::string name, std::string cat, uint32_t lane) {
  if (trace == nullptr) return TraceSpan();
  SpanRecord rec;
  rec.id = id;
  rec.parent = parent;
  rec.name = std::move(name);
  rec.cat = std::move(cat);
  rec.lane = lane;
  rec.start_us = trace->NowUs();
  return TraceSpan(trace, std::move(rec));
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : trace_(other.trace_), rec_(std::move(other.rec_)) {
  other.trace_ = nullptr;
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    trace_ = other.trace_;
    rec_ = std::move(other.rec_);
    other.trace_ = nullptr;
  }
  return *this;
}

void TraceSpan::End() {
  if (trace_ == nullptr) return;
  rec_.dur_us = trace_->NowUs() - rec_.start_us;
  trace_->Record(std::move(rec_));
  trace_ = nullptr;
}

void TraceSpan::AddArg(std::string key, std::string_view value) {
  if (trace_ == nullptr) return;
  rec_.args.emplace_back(std::move(key), JsonWriter::Quote(value));
}

void TraceSpan::AddArg(std::string key, double value) {
  if (trace_ == nullptr) return;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  rec_.args.emplace_back(std::move(key), buf);
}

void TraceSpan::AddArg(std::string key, int64_t value) {
  if (trace_ == nullptr) return;
  rec_.args.emplace_back(std::move(key), std::to_string(value));
}

void TraceSpan::AddArg(std::string key, uint64_t value) {
  if (trace_ == nullptr) return;
  rec_.args.emplace_back(std::move(key), std::to_string(value));
}

void TraceSpan::AddArg(std::string key, bool value) {
  if (trace_ == nullptr) return;
  rec_.args.emplace_back(std::move(key), value ? "true" : "false");
}

Status TracedParallelFor(ThreadPool* pool, size_t n, Trace* trace,
                         uint64_t parent, const char* task_name,
                         const std::function<Status(size_t)>& fn,
                         double* max_task_seconds) {
  if (trace == nullptr) return ParallelFor(pool, n, fn, max_task_seconds);
  const uint64_t base = trace->AllocSpanIds(n);  // serial: before the wave
  return ParallelFor(
      pool, n,
      [&](size_t i) -> Status {
        TraceSpan span = TraceSpan::Adopt(
            trace, base + i, parent,
            std::string(task_name) + ":" + std::to_string(i), "task",
            static_cast<uint32_t>(1 + i));
        return fn(i);
      },
      max_task_seconds);
}

Status WriteChromeTraceFile(const std::string& path,
                            const std::vector<const Trace*>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Trace* t : traces) {
    if (t != nullptr) t->AppendEventsJson(&out, &first);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::Internal("cannot open trace file: " + path);
  file << out << "\n";
  if (!file.good()) return Status::Internal("trace write failed: " + path);
  return Status::OK();
}

}  // namespace opd::obs
