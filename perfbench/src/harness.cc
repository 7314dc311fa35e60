#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "common/hash.h"

namespace opd::perfbench {

namespace {

// splitmix64's finalizer: spreads a row hash over all 64 bits so that the
// commutative sum of rows does not cancel structured hash values.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

uint64_t UnorderedTableFingerprint(const storage::Table& table) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const std::vector<storage::Column>& columns = table.schema().columns();
  for (const storage::Column& col : columns) {
    HashCombine(&h, HashString(col.name));
    HashCombine(&h, static_cast<uint64_t>(col.type));
  }
  HashCombine(&h, table.num_rows());
  uint64_t rows_sum = 0;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    uint64_t row_hash = 0xcbf29ce484222325ULL;
    for (const storage::Column& col : columns) {
      Result<storage::Value> cell = table.Get(i, col.name);
      HashCombine(&row_hash, cell.ok() ? cell->Hash() : 0);
    }
    rows_sum += Mix(row_hash);
  }
  HashCombine(&h, rows_sum);
  return h;
}

double StorageAccount::BytesPerLiveByte() const {
  const uint64_t live = base_bytes + view_bytes;
  return live > 0 ? static_cast<double>(dfs_bytes) / static_cast<double>(live)
                  : 0.0;
}

StorageAccount AccountStorage(const storage::Dfs& dfs,
                              const catalog::Catalog& catalog,
                              const catalog::ViewStore& views) {
  StorageAccount account;
  std::set<std::string> live;
  std::set<std::string> base_paths;
  for (const std::string& name : catalog.Names()) {
    Result<const catalog::BaseTableEntry*> entry = catalog.Find(name);
    if (!entry.ok()) continue;
    live.insert((*entry)->dfs_path);
    base_paths.insert((*entry)->dfs_path);
  }
  const catalog::ViewSnapshot snapshot = views.Snapshot();
  for (const catalog::ViewDefinition* def : snapshot.All()) {
    live.insert(def->dfs_path);
  }
  account.view_bytes = views.TotalBytes();
  account.dfs_bytes = dfs.used_bytes();
  for (const std::string& path : dfs.ListPaths()) {
    ++account.dfs_files;
    Result<storage::TablePtr> table = dfs.Peek(path);
    const uint64_t bytes = table.ok() ? (*table)->ByteSize() : 0;
    if (base_paths.count(path) > 0) account.base_bytes += bytes;
    if (live.count(path) == 0) {
      ++account.orphan_files;
      account.orphan_bytes += bytes;
    }
  }
  return account;
}

uint64_t SpanRecorder::BeginQuery(const std::string& name) {
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.query = span.id;
  span.thread = thread_;
  span.start = std::chrono::steady_clock::now();
  open_query_ = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::EndQuery() {
  spans_[open_query_].end = std::chrono::steady_clock::now();
}

LayerTotals SumLayers(const std::vector<Span>& spans) {
  LayerTotals totals;
  std::unordered_map<uint64_t, double> child_s;
  for (const Span& span : spans) {
    if (span.parent != 0) child_s[span.parent] += span.Seconds();
  }
  for (const Span& span : spans) {
    if (span.parent == 0) {
      ++totals.queries;
      totals.query_s += span.Seconds();
      continue;
    }
    auto it = child_s.find(span.id);
    const double children = it != child_s.end() ? it->second : 0.0;
    totals.self_s[span.name] += std::max(span.Seconds() - children, 0.0);
  }
  return totals;
}

std::string ToChromeTraceJson(const std::vector<Span>& spans) {
  std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::time_point::max();
  for (const Span& span : spans) origin = std::min(origin, span.start);
  auto micros = [&](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  // Span names are benchmark-chosen identifiers and query ids ("A3v1"), so
  // they need no JSON escaping. Times keep nanosecond digits (%.3f us).
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"query\":%llu}}",
        i == 0 ? "" : ",", span.name.c_str(),
        span.parent == 0 ? "query" : "layer", micros(span.start),
        micros(span.end) - micros(span.start), span.thread,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.query));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace opd::perfbench
