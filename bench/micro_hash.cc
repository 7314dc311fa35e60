// Shuffle-hash microbench: the flat open-addressing tables and vectorized
// key hashing (src/exec/hash/) in isolation — no engine, no DFS — against
// the legacy packed-std::string + std::unordered_map reduce path on the
// same data, plus a heap-allocation audit of the flat inner loops.
//
// `micro_hash --json` runs the suite once and prints one JSON line;
// scripts/bench.sh appends it to BENCH_engine.json, and --check gates
// `numeric_build_allocs_per_row` / `numeric_probe_allocs_per_row` at zero:
// with the table fully Reserve()d from the build-side count, a numeric-key
// build+probe must not touch the heap per row (KeyScratch stays in its
// inline buffer, key bytes land in the pre-sized arena). The run exits
// non-zero if the flat results diverge from the unordered_map oracle.
// scripts/check.sh also runs this binary under ASan+UBSan.
//
// Without --json it runs google-benchmark microbenchmarks of the same
// loops for interactive profiling.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json_writer.h"
#include "common/rng.h"
#include "exec/hash/flat_table.h"
#include "exec/hash/hash_kernels.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/table.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new bumps it, so a delta around
// a loop counts that loop's heap allocations (single-threaded here).
// ---------------------------------------------------------------------------
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace opd;  // NOLINT

namespace {

using exec::hash::FlatGroupIndex;
using exec::hash::FlatMultiMap;
using exec::hash::KeyCodec;
using exec::hash::KeyScratch;
using storage::DataType;
using storage::Row;
using storage::RowBatch;
using storage::Schema;
using storage::Table;
using storage::Value;

constexpr size_t kBuildRows = 64 * 1024;
constexpr size_t kProbeRows = 256 * 1024;
constexpr size_t kKeySpace = 16 * 1024;  // ~4 duplicates per build key

// One int64 key column + one payload column; probe keys half-overlap the
// build key space so probes see both hits and misses.
Table MakeSide(const char* name, size_t rows, size_t key_lo, uint64_t seed) {
  Schema s;
  if (!s.AddColumn({"k", DataType::kInt64}).ok()) std::abort();
  if (!s.AddColumn({"v", DataType::kInt64}).ok()) std::abort();
  Table t(name, s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    Row row{Value(static_cast<int64_t>(key_lo + rng.Uniform(kKeySpace))),
            Value(static_cast<int64_t>(r))};
    if (!t.AppendRow(std::move(row)).ok()) std::abort();
  }
  return t;
}

const std::vector<RowBatch>& BuildBatches() {
  static Table t = MakeSide("build", kBuildRows, 0, 1);
  static auto b = t.ToBatches();
  return *b;
}
const std::vector<RowBatch>& ProbeBatches() {
  static Table t = MakeSide("probe", kProbeRows, kKeySpace / 2, 2);
  static auto b = t.ToBatches();
  return *b;
}

const std::vector<size_t> kKeyCols{0};

// Batch-wide flat hashes of every row of `batches`.
std::vector<uint64_t> FlatHashes(const std::vector<RowBatch>& batches) {
  size_t n = 0;
  for (const RowBatch& b : batches) n += b.num_rows();
  std::vector<uint64_t> hashes(n);
  size_t off = 0;
  for (const RowBatch& b : batches) {
    exec::hash::HashKeys(b, 0, b.num_rows(), kKeyCols, hashes.data() + off);
    off += b.num_rows();
  }
  return hashes;
}

// Legacy key encoding (mirrors the engine's PackCell for an int64 lane).
void LegacyPack(const RowBatch& b, size_t i, std::string* out) {
  out->clear();
  const auto& col = b.column(0);
  if (col.IsNull(i)) {
    out->push_back('\0');
    return;
  }
  double d = static_cast<double>(col.ints()[i]);
  out->push_back('\1');
  char bits[sizeof(double)];
  std::memcpy(bits, &d, sizeof(d));
  out->append(bits, sizeof(d));
}

struct JoinResult {
  uint64_t matches = 0;
  double wall_s = 0;
  double build_allocs_per_row = 0;
  double probe_allocs_per_row = 0;
  uint64_t table_bytes = 0;
};

// Flat join: HashKeys pass + fully reserved FlatMultiMap build + probe.
// The allocation deltas cover exactly the per-row build and probe loops.
// `prefetch` toggles the probe-slot __builtin_prefetch in the linear-probe
// loops and `distinct_hint` feeds Reserve's duplicate-chain pre-sizing (the
// engine passes the optimizer's est_distinct) — both ablated in --json.
JoinResult FlatJoin(int iterations, bool prefetch = true,
                    size_t distinct_hint = 0) {
  const auto& build = BuildBatches();
  const auto& probe = ProbeBatches();
  JoinResult res;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    const std::vector<uint64_t> bh = FlatHashes(build);
    const std::vector<uint64_t> ph = FlatHashes(probe);
    const std::vector<KeyCodec> codecs = exec::hash::PlanKeyCodecs(
        {{&build, &kKeyCols}, {&probe, &kKeyCols}});
    FlatMultiMap<uint32_t> ht;
    ht.Reserve(kBuildRows, codecs[0].bounded ? codecs[0].width_bound : 0,
               distinct_hint);
    ht.set_prefetch(prefetch);
    KeyScratch key;
    uint64_t matches = 0;

    const uint64_t allocs_before_build =
        g_allocs.load(std::memory_order_relaxed);
    size_t g = 0;
    for (const RowBatch& b : build) {
      for (size_t i = 0; i < b.num_rows(); ++i, ++g) {
        exec::hash::NormalizeKey(b, i, codecs[0], &key);
        ht.Insert(bh[g], key.data(), key.size(), static_cast<uint32_t>(g));
      }
    }
    const uint64_t allocs_before_probe =
        g_allocs.load(std::memory_order_relaxed);
    g = 0;
    for (const RowBatch& b : probe) {
      for (size_t i = 0; i < b.num_rows(); ++i, ++g) {
        exec::hash::NormalizeKey(b, i, codecs[1], &key);
        ht.ForEachMatch(ph[g], key.data(), key.size(),
                        [&](uint32_t) { ++matches; });
      }
    }
    const uint64_t allocs_after =
        g_allocs.load(std::memory_order_relaxed);
    res.matches = matches;
    res.table_bytes = ht.memory_bytes();
    res.build_allocs_per_row =
        static_cast<double>(allocs_before_probe - allocs_before_build) /
        static_cast<double>(kBuildRows);
    res.probe_allocs_per_row =
        static_cast<double>(allocs_after - allocs_before_probe) /
        static_cast<double>(kProbeRows);
  }
  res.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() /
               iterations;
  return res;
}

// Legacy join: per-row RowHash bucketing hash + packed std::string keys in
// a node-based std::unordered_map — the pre-flat reduce path.
JoinResult LegacyJoin(int iterations) {
  const auto& build = BuildBatches();
  const auto& probe = ProbeBatches();
  JoinResult res;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    std::unordered_map<std::string, std::vector<uint32_t>> ht;
    ht.reserve(kBuildRows);
    std::string key;
    uint64_t matches = 0, hash_sink = 0;
    size_t g = 0;
    for (const RowBatch& b : build) {
      for (size_t i = 0; i < b.num_rows(); ++i, ++g) {
        hash_sink ^= b.HashKeysAt(i, kKeyCols);  // the bucketing hash
        LegacyPack(b, i, &key);
        ht[key].push_back(static_cast<uint32_t>(g));
      }
    }
    for (const RowBatch& b : probe) {
      for (size_t i = 0; i < b.num_rows(); ++i) {
        hash_sink ^= b.HashKeysAt(i, kKeyCols);
        LegacyPack(b, i, &key);
        auto it2 = ht.find(key);
        if (it2 != ht.end()) matches += it2->second.size();
      }
    }
    benchmark::DoNotOptimize(hash_sink);
    res.matches = matches;
  }
  res.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() /
               iterations;
  return res;
}

struct GroupResult {
  uint64_t groups = 0;
  double wall_s = 0;
};

GroupResult FlatGroupBy(int iterations, bool prefetch = true) {
  const auto& in = ProbeBatches();
  GroupResult res;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    const std::vector<uint64_t> h = FlatHashes(in);
    const std::vector<KeyCodec> codecs =
        exec::hash::PlanKeyCodecs({{&in, &kKeyCols}});
    FlatGroupIndex index;
    index.Reserve(kKeySpace, codecs[0].bounded ? codecs[0].width_bound : 0);
    index.set_prefetch(prefetch);
    std::vector<uint64_t> counts;
    counts.reserve(kKeySpace);
    KeyScratch key;
    size_t g = 0;
    for (const RowBatch& b : in) {
      for (size_t i = 0; i < b.num_rows(); ++i, ++g) {
        exec::hash::NormalizeKey(b, i, codecs[0], &key);
        auto [id, inserted] = index.InsertOrGet(h[g], key.data(), key.size());
        if (inserted) counts.push_back(0);
        ++counts[id];
      }
    }
    res.groups = counts.size();
  }
  res.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() /
               iterations;
  return res;
}

GroupResult LegacyGroupBy(int iterations) {
  const auto& in = ProbeBatches();
  GroupResult res;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    std::unordered_map<std::string, size_t> index;
    index.reserve(kKeySpace);
    std::vector<uint64_t> counts;
    counts.reserve(kKeySpace);
    std::string key;
    uint64_t hash_sink = 0;
    for (const RowBatch& b : in) {
      for (size_t i = 0; i < b.num_rows(); ++i) {
        hash_sink ^= b.HashKeysAt(i, kKeyCols);  // the bucketing hash
        LegacyPack(b, i, &key);
        auto [it2, inserted] = index.try_emplace(key, counts.size());
        if (inserted) counts.push_back(0);
        ++counts[it2->second];
      }
    }
    benchmark::DoNotOptimize(hash_sink);
    res.groups = counts.size();
  }
  res.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() /
               iterations;
  return res;
}

double RowsPerSec(size_t rows, double wall_s) {
  return wall_s > 0 ? static_cast<double>(rows) / wall_s : 0;
}

int RunJsonMode() {
  constexpr int kIters = 5;
  // Warm the data, code paths, and allocator once so lane ordering doesn't
  // bias the speedup ratios (the first timed lane otherwise pays every
  // cold-cache and page-fault cost and the later ablation lanes run warm).
  FlatJoin(1);
  LegacyJoin(1);
  FlatGroupBy(1);
  LegacyGroupBy(1);
  const JoinResult flat_join = FlatJoin(kIters);
  const JoinResult legacy_join = LegacyJoin(kIters);
  const GroupResult flat_group = FlatGroupBy(kIters);
  const GroupResult legacy_group = LegacyGroupBy(kIters);
  // Ablation lanes (measured, not gated): the same loops with the
  // linear-probe prefetch off, and with the duplicate-chain arrays
  // pre-sized from the exact distinct-key count the way the engine seeds
  // Reserve from est_rows/est_distinct.
  const JoinResult join_noprefetch = FlatJoin(kIters, /*prefetch=*/false);
  const GroupResult group_noprefetch =
      FlatGroupBy(kIters, /*prefetch=*/false);
  const JoinResult join_presized =
      FlatJoin(kIters, /*prefetch=*/true, /*distinct_hint=*/kKeySpace);

  const bool match = flat_join.matches == legacy_join.matches &&
                     flat_group.groups == legacy_group.groups;
  const size_t join_rows = kBuildRows + kProbeRows;

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("micro_hash");
  w.Key("schema_version").Int(1);
  w.Key("mode").String("hash");
  w.Key("build_rows").UInt(kBuildRows);
  w.Key("probe_rows").UInt(kProbeRows);
  w.Key("iterations").Int(kIters);
  w.Key("flat_join_rows_per_sec").Double(RowsPerSec(join_rows, flat_join.wall_s));
  w.Key("legacy_join_rows_per_sec")
      .Double(RowsPerSec(join_rows, legacy_join.wall_s));
  w.Key("join_speedup")
      .Double(flat_join.wall_s > 0 ? legacy_join.wall_s / flat_join.wall_s
                                   : 0);
  w.Key("flat_groupby_rows_per_sec")
      .Double(RowsPerSec(kProbeRows, flat_group.wall_s));
  w.Key("legacy_groupby_rows_per_sec")
      .Double(RowsPerSec(kProbeRows, legacy_group.wall_s));
  w.Key("groupby_speedup")
      .Double(flat_group.wall_s > 0 ? legacy_group.wall_s / flat_group.wall_s
                                    : 0);
  w.Key("numeric_build_allocs_per_row").Double(flat_join.build_allocs_per_row);
  w.Key("numeric_probe_allocs_per_row").Double(flat_join.probe_allocs_per_row);
  w.Key("prefetch_join_speedup")
      .Double(flat_join.wall_s > 0 ? join_noprefetch.wall_s / flat_join.wall_s
                                   : 0);
  w.Key("prefetch_groupby_speedup")
      .Double(flat_group.wall_s > 0
                  ? group_noprefetch.wall_s / flat_group.wall_s
                  : 0);
  w.Key("presize_join_speedup")
      .Double(join_presized.wall_s > 0
                  ? flat_join.wall_s / join_presized.wall_s
                  : 0);
  // Pre-sizing's main win: the distinct-hint lane retains a fraction of
  // the all-distinct worst-case table footprint.
  w.Key("presize_join_bytes_ratio")
      .Double(flat_join.table_bytes > 0
                  ? static_cast<double>(join_presized.table_bytes) /
                        static_cast<double>(flat_join.table_bytes)
                  : 0);
  w.Key("join_matches").UInt(flat_join.matches);
  w.Key("groups").UInt(flat_group.groups);
  w.Key("outputs_match").Bool(match);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return match ? 0 : 1;
}

}  // namespace

static void BM_FlatJoinBuildProbe(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlatJoin(1).matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBuildRows + kProbeRows));
}
BENCHMARK(BM_FlatJoinBuildProbe)->Unit(benchmark::kMillisecond);

static void BM_LegacyJoinBuildProbe(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(LegacyJoin(1).matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBuildRows + kProbeRows));
}
BENCHMARK(BM_LegacyJoinBuildProbe)->Unit(benchmark::kMillisecond);

static void BM_FlatGroupBy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlatGroupBy(1).groups);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kProbeRows));
}
BENCHMARK(BM_FlatGroupBy)->Unit(benchmark::kMillisecond);

static void BM_LegacyGroupBy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(LegacyGroupBy(1).groups);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kProbeRows));
}
BENCHMARK(BM_LegacyGroupBy)->Unit(benchmark::kMillisecond);

static void BM_HashKeysBatchWide(benchmark::State& state) {
  const auto& in = ProbeBatches();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlatHashes(in));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kProbeRows));
}
BENCHMARK(BM_HashKeysBatchWide)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return RunJsonMode();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
