// google-benchmark microbenchmarks for the MapReduce simulator: per-operator
// execution throughput and UDF local-function pipelines.
//
// `micro_engine --json` instead runs a fixed engine workload at 1, 2, 4 and
// 8 threads and prints one JSON line with wall-clock ms and rows/sec per
// thread count — the BENCH_engine.json perf trajectory (scripts/bench.sh
// wraps this). `micro_engine --dump-metrics` prints every registered metric
// name after a cold and a warm rewrite pass (scripts/lint_metrics.py).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/json_writer.h"
#include "common/thread_pool.h"
#include "exec/udf_exec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "udf/builtin_udfs.h"
#include "workload/datagen.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

namespace {

struct Env {
  std::unique_ptr<workload::TestBed> bed;
  storage::TablePtr twtr;

  Env() {
    workload::TestBedConfig config;
    config.data.n_tweets = 5000;
    config.data.n_checkins = 2000;
    config.data.n_locations = 300;
    config.calibrate_udfs = false;
    auto result = workload::TestBed::Create(config);
    if (!result.ok()) std::abort();
    bed = std::move(result).value();
    twtr = workload::GenerateTwitterLog(config.data);
  }
};

Env& GetEnv() {
  static Env env;
  return env;
}

}  // namespace

static void BM_ExecProject(benchmark::State& state) {
  Env& env = GetEnv();
  for (auto _ : state) {
    plan::Plan p(plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"}));
    benchmark::DoNotOptimize(env.bed->engine().Execute(&p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.twtr->num_rows()));
}
BENCHMARK(BM_ExecProject)->Unit(benchmark::kMillisecond);

static void BM_ExecGroupBy(benchmark::State& state) {
  Env& env = GetEnv();
  for (auto _ : state) {
    plan::Plan p(plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                               {plan::AggSpec{plan::AggFn::kCount, "", "c"}}));
    benchmark::DoNotOptimize(env.bed->engine().Execute(&p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.twtr->num_rows()));
}
BENCHMARK(BM_ExecGroupBy)->Unit(benchmark::kMillisecond);

static void BM_ExecJoin(benchmark::State& state) {
  Env& env = GetEnv();
  for (auto _ : state) {
    auto counts =
        plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                      {plan::AggSpec{plan::AggFn::kCount, "", "c"}});
    plan::Plan p(plan::Join(plan::Project(plan::Scan("TWTR"),
                                          {"tweet_id", "user_id"}),
                            counts, {{"user_id", "user_id"}}));
    benchmark::DoNotOptimize(env.bed->engine().Execute(&p));
  }
}
BENCHMARK(BM_ExecJoin)->Unit(benchmark::kMillisecond);

static void BM_UdfWineScore(benchmark::State& state) {
  Env& env = GetEnv();
  udf::UdfDefinition udf = udf::MakeClassifyWineScoreUdf();
  udf::Params params = {{"threshold", storage::Value(0.5)}};
  for (auto _ : state) {
    storage::Table out;
    benchmark::DoNotOptimize(
        exec::RunLocalFunctions(udf, *env.twtr, params, &out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.twtr->num_rows()));
}
BENCHMARK(BM_UdfWineScore)->Unit(benchmark::kMillisecond);

static void BM_UdfTokenize(benchmark::State& state) {
  Env& env = GetEnv();
  udf::UdfDefinition udf = udf::MakeTokenizeUdf();
  for (auto _ : state) {
    storage::Table out;
    benchmark::DoNotOptimize(
        exec::RunLocalFunctions(udf, *env.twtr, {}, &out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.twtr->num_rows()));
}
BENCHMARK(BM_UdfTokenize)->Unit(benchmark::kMillisecond);

static void BM_DataGenTwitter(benchmark::State& state) {
  workload::DataGenConfig config;
  config.n_tweets = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::GenerateTwitterLog(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataGenTwitter)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

namespace {

// Version tag of the BENCH_engine.json record layout. Bump when keys change
// meaning; scripts/bench.sh quarantines records predating the tag.
constexpr int kBenchSchemaVersion = 3;

// The five-plan workload: one of every operator class (map-only project and
// filter, shuffle aggregation, shuffle join, UDF pipeline) over the
// synthetic log.
std::vector<plan::Plan> FivePlans() {
  std::vector<plan::Plan> plans;
  plans.emplace_back(
      plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"}));
  plans.emplace_back(plan::Filter(
      plan::Scan("TWTR"),
      plan::FilterCond::Compare("retweets", afk::CmpOp::kGt,
                                storage::Value(int64_t{1}))));
  plans.emplace_back(
      plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                    {plan::AggSpec{plan::AggFn::kCount, "", "c"},
                     plan::AggSpec{plan::AggFn::kAvg, "retweets", "avg"}}));
  auto counts = plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                              {plan::AggSpec{plan::AggFn::kCount, "", "c"}});
  plans.emplace_back(plan::Join(
      plan::Project(plan::Scan("TWTR"), {"tweet_id", "user_id"}), counts,
      {{"user_id", "user_id"}}));
  plans.emplace_back(plan::Udf(plan::Scan("TWTR"), "UDF_TOKENIZE", {}));
  return plans;
}

// The --json engine workload: FivePlans, run with rewriting off.
struct JsonRun {
  double wall_ms = 0;
  double rows_per_sec = 0;        // aggregate over all iterations
  double best_iter_rows_per_sec = 0;  // fastest single iteration (noise-robust)
  uint64_t output_hash = 0;   // order-sensitive hash of every result table
  exec::ExecMetrics metrics;  // accumulated across iterations
};

JsonRun RunEngineWorkload(int num_threads, size_t n_tweets, int iterations,
                          bool traced = false,
                          std::vector<std::shared_ptr<obs::Trace>>* traces =
                              nullptr) {
  workload::TestBedConfig config;
  config.data.n_tweets = n_tweets;
  config.data.n_checkins = n_tweets / 2;
  config.data.n_locations = 300;
  config.calibrate_udfs = false;
  config.session.engine.num_threads = num_threads;
  config.session.obs.tracing = traced;
  auto bed_result = workload::TestBed::Create(config);
  if (!bed_result.ok()) std::abort();
  auto bed = std::move(bed_result).value();

  JsonRun run;
  uint64_t rows_processed = 0;
  double best_iter_s = 0;
  RunOptions off;
  off.rewrite = false;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    const auto iter_start = std::chrono::steady_clock::now();
    for (plan::Plan& p : FivePlans()) {
      auto result = bed->session().Run(std::move(p), off);
      if (!result.ok()) std::abort();
      run.metrics += result.value().metrics;
      if (it == 0 && result.value().table != nullptr) {
        // Determinism receipt: every thread count must produce the same
        // bytes in the same order, so hash rows in order, through HashRowAt
        // (== RowHash over the row, per the batch-layer contract).
        const storage::TablePtr& table = result.value().table;
        for (const storage::RowBatch& b : *table->ToBatches()) {
          for (size_t r = 0; r < b.num_rows(); ++r) {
            HashCombine(&run.output_hash, b.HashRowAt(r));
          }
        }
      }
      if (traces != nullptr && it == 0 && result.value().trace != nullptr) {
        traces->push_back(result.value().trace);
      }
      rows_processed += n_tweets;  // each job scans the full TWTR log
    }
    // Iteration 0 pays for the determinism hash and trace capture, so the
    // fastest iteration is a steady-state measurement: one five-job pass
    // with nothing bolted on — a single noisy-neighbor stall in one
    // iteration does not skew it.
    const double iter_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - iter_start)
                              .count();
    if (iter_s > 0 && (best_iter_s == 0 || iter_s < best_iter_s)) {
      best_iter_s = iter_s;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.wall_ms = wall_s * 1000.0;
  run.rows_per_sec =
      wall_s > 0 ? static_cast<double>(rows_processed) / wall_s : 0;
  run.best_iter_rows_per_sec =
      best_iter_s > 0 && iterations > 0
          ? static_cast<double>(rows_processed) /
                static_cast<double>(iterations) / best_iter_s
          : 0;
  return run;
}

// One rewrite pass over FivePlans: every plan runs with BFREWRITE against
// whatever the view store holds, so the first pass over a fresh bed creates
// the opportunistic views (cold) and the next one rewrites against them
// (warm).
void RunRewritePass(workload::TestBed* bed) {
  for (plan::Plan& p : FivePlans()) {
    if (!bed->session().Run(std::move(p)).ok()) std::abort();
  }
}

// Prints the "pipelined" record (the name earlier trajectory records gave
// the path that is now the engine's only one): the five-job workload,
// sweeping thread counts {1, 2, 4, 8} untraced plus one traced run at
// the top thread count (the traced-vs-untraced delta is the tracing
// overhead). The record carries an order-sensitive hash of the result tables; `outputs_match_threads`
// asserts the determinism contract across thread counts, and `hw_cores`
// records how much real parallelism backed the numbers (speedups are
// meaningless on a 1-core runner). scripts/bench.sh timestamps and appends
// every line to BENCH_engine.json, so the perf trajectory across PRs
// accumulates instead of being overwritten.
int RunJsonMode(const char* trace_path) {
  constexpr size_t kTweets = 12000;
  constexpr int kIters = 3;
  constexpr int kThreads[] = {1, 2, 4, 8};
  constexpr size_t kNumThreads = sizeof(kThreads) / sizeof(kThreads[0]);
  const int hw_cores = ThreadPool::DefaultThreads(0);
  std::vector<std::shared_ptr<obs::Trace>> traces;
  // On a 1-core host every lane above 1 thread measures the same inline
  // execution three more times; skip them. The skipped lanes stay in the
  // JSON arrays as nulls so the record schema (and the trajectory tooling
  // reading it) is identical on every runner.
  const size_t measured_lanes = hw_cores > 1 ? kNumThreads : 1;
  JsonRun runs[kNumThreads];
  for (size_t i = 0; i < measured_lanes; ++i) {
    runs[i] = RunEngineWorkload(kThreads[i], kTweets, kIters);
  }
  JsonRun traced = RunEngineWorkload(
      kThreads[measured_lanes - 1], kTweets, kIters, /*traced=*/true,
      trace_path != nullptr ? &traces : nullptr);
  const bool have_speedup = measured_lanes == kNumThreads;
  const double speedup = have_speedup && runs[kNumThreads - 1].wall_ms > 0
                             ? runs[0].wall_ms / runs[kNumThreads - 1].wall_ms
                             : 0;
  bool outputs_match = true;
  for (size_t i = 0; i < measured_lanes; ++i) {
    outputs_match &= runs[i].output_hash == runs[0].output_hash;
  }
  // Writes one value per thread lane, null for unmeasured lanes.
  auto lanes = [&](JsonWriter& w, const char* key, double JsonRun::*field) {
    w.Key(key).BeginArray();
    for (size_t i = 0; i < kNumThreads; ++i) {
      if (i < measured_lanes) {
        w.Double(runs[i].*field);
      } else {
        w.Null();
      }
    }
    w.EndArray();
  };

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("micro_engine");
  w.Key("schema_version").Int(kBenchSchemaVersion);
  w.Key("mode").String("pipelined");
  w.Key("n_tweets").UInt(kTweets);
  w.Key("iterations").Int(kIters);
  w.Key("hw_cores").Int(hw_cores);
  w.Key("threads").BeginArray();
  for (int t : kThreads) w.Int(t);
  w.EndArray();
  lanes(w, "wall_ms", &JsonRun::wall_ms);
  lanes(w, "rows_per_sec", &JsonRun::rows_per_sec);
  lanes(w, "best_iter_rows_per_sec", &JsonRun::best_iter_rows_per_sec);
  if (have_speedup) {
    w.Key("speedup_8v1").Double(speedup);
  } else {
    w.Key("speedup_8v1").Null();
  }
  // The floor scripts/bench.sh --check enforces: honest about hardware.
  // A 1-core runner cannot demonstrate a parallel speedup at all.
  w.Key("speedup_floor_8v1")
      .Double(hw_cores >= 8 ? 3.0 : (hw_cores >= 2 ? 1.2 : 0.0));
  w.Key("output_hash").UInt(runs[0].output_hash);
  w.Key("outputs_match_threads").Bool(outputs_match);
  w.Key("traced_rows_per_sec").Double(traced.rows_per_sec);
  w.Key("untraced_rows_per_sec")
      .Double(runs[measured_lanes - 1].rows_per_sec);
  w.Key("metrics").Raw(runs[measured_lanes - 1].metrics.ToJson());
  w.EndObject();
  std::printf("%s\n", w.str().c_str());

  if (trace_path != nullptr) {
    std::vector<const obs::Trace*> ptrs;
    ptrs.reserve(traces.size());
    for (const auto& t : traces) ptrs.push_back(t.get());
    Status st = obs::WriteChromeTraceFile(trace_path, ptrs);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", trace_path);
  }
  return 0;
}

// `--dump-metrics`: runs a small warmed workload that touches every
// subsystem (engine, view store, DFS, rewriter, cost accountability), then
// prints every metric name registered in the global registry, one per line.
// scripts/lint_metrics.py diffs this against the metric-name literals in
// src/ to catch dead or misnamed metrics.
int RunDumpMetricsMode() {
  workload::TestBedConfig config;
  config.data.n_tweets = 2000;
  config.data.n_checkins = 1000;
  config.data.n_locations = 300;
  config.calibrate_udfs = false;
  config.session.engine.num_threads = 2;
  auto bed_result = workload::TestBed::Create(config);
  if (!bed_result.ok()) std::abort();
  auto bed = std::move(bed_result).value();
  RunRewritePass(bed.get());  // cold: create views
  RunRewritePass(bed.get());  // warm: rewrite hits, residuals
  {
    // A join that carries a string column through the vectorized gather —
    // the only path that publishes the storage.dict.* metrics.
    auto counts =
        plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                      {plan::AggSpec{plan::AggFn::kCount, "", "c"}});
    plan::Plan sjoin(plan::Join(
        plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"}),
        counts, {{"user_id", "user_id"}}));
    RunOptions off;
    off.rewrite = false;
    if (!bed->session().Run(std::move(sjoin), off).ok()) {
      std::abort();
    }
    // Re-materializing a plan the store already holds (rewrite off, so the
    // job really executes) registers viewstore.add.dedup.
    plan::Plan dup(
        plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"}));
    if (!bed->session().Run(std::move(dup), off).ok()) {
      std::abort();
    }
  }
  (void)bed->views().Find(999999999);  // register viewstore.find.miss
  bed->DropAllViews();                 // register dfs.files_deleted
  for (const std::string& name : obs::MetricRegistry::Global().AllNames()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--dump-metrics") == 0)
      return RunDumpMetricsMode();
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  if (json || trace_path != nullptr) return RunJsonMode(trace_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
