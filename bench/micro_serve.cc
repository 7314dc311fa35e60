// Serving-layer microbench: the continuous-observability tax of
// interleaved multi-tenant query streams against one opd::Server (shared
// DFS / catalog / ViewStore, admission control, snapshot-consistent view
// visibility — DESIGN.md §3).
//
// `micro_serve --json` prints one JSON line, the `serve_observed` record;
// scripts/bench.sh appends it to BENCH_engine.json.
//
// The same 4-tenant x 8-query interleaved pass runs with full
// observability (query-history ring + JSONL sink + SLO gauges + slow-query
// capture of the offending tail) and with the query log disabled
// (query_log_capacity = 0), lanes interleaved best-of-7 after an untimed
// warm-up to damp noisy-neighbor stalls. The record carries
// `queries_per_sec` with observability on, `querylog_overhead_pct`
// (observed vs baseline wall), the retained `slow_capture_bytes`, and the
// server's own `latency_p95_s` SLO gauge. `--check` (scripts/bench.sh)
// gates querylog_overhead_pct < 5 and one logged record per query.
//
// Serving correctness (byte-identical serial replay, cross-tenant view
// reuse, lossless query history) is checked by
// ServerStressTest.InterleavedOutputsMatchSerialReplay in
// tests/server_test.cc.
//
// Without --json it prints the same numbers human-readably plus a
// paper-shape check.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/json_writer.h"
#include "server/server.h"
#include "session/session.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

namespace {

constexpr int kTenants = 4;
constexpr int kQueriesPerTenant = 8;

workload::TestBedConfig BenchConfig() {
  workload::TestBedConfig config;
  config.data.n_tweets = 2000;
  config.data.n_checkins = 1200;
  config.data.n_locations = 200;
  config.data.n_users = 100;
  // Wall-clock-calibrated UDF scalars differ bed to bed; disable so the
  // replay bed makes identical rewrite decisions.
  config.calibrate_udfs = false;
  return config;
}

// Per-tenant shuffled (analyst, version) streams; seeded so every lane
// (observed, baseline) serves the identical workload.
std::vector<std::vector<std::pair<int, int>>> BuildStreams() {
  std::vector<std::vector<std::pair<int, int>>> streams(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    std::vector<std::pair<int, int>> all;
    for (int a = 1; a <= workload::kNumAnalysts; ++a) {
      for (int v = 1; v <= workload::kNumVersions; ++v) {
        all.emplace_back(a, v);
      }
    }
    std::mt19937 rng(7u + static_cast<unsigned>(t));
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(kQueriesPerTenant);
    streams[t] = std::move(all);
  }
  return streams;
}

// One interleaved pass over `bed`'s server; returns wall seconds. Outputs
// are discarded — this is the timing body of the observability-overhead
// lanes. Each tenant serves its stream `rounds` times: the overhead lanes
// use 2 rounds so the timed region is long enough for a stable ratio on a
// 1-core runner (the second round is the all-warm steady state where the
// query log is the only extra work).
double TimedPass(workload::TestBed& bed, int rounds) {
  Server& server = bed.session().server();
  const auto streams = BuildStreams();
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ClientSession client = server.Connect("tenant" + std::to_string(t));
      for (int round = 0; round < rounds; ++round) {
        for (const auto& [analyst, version] : streams[t]) {
          plan::Plan plan = bench::CheckResult(
              workload::BuildQuery(analyst, version), "BuildQuery");
          bench::CheckOk(client.Run(std::move(plan)).status(), "Server::Run");
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       wall_start)
      .count();
}

// The continuous-observability tax: full query history + slow capture +
// JSONL sink vs the query log disabled (capacity 0). The p95 read off the
// server's own SLO gauge (MetricRegistry::Global() is process-wide) covers
// only these lanes, all of which serve the identical query stream.
struct ObservedLane {
  int queries = 0;  // queries per timed pass (streams x rounds)
  double observed_wall_s = 0;
  double baseline_wall_s = 0;
  double overhead_pct = 0;
  double latency_p95_s = 0;
  uint64_t querylog_appended = 0;
  uint64_t slow_captured = 0;
  uint64_t slow_capture_bytes = 0;
};

ObservedLane RunObservedLane() {
  const std::string jsonl =
      "/tmp/opd_micro_serve_querylog." +
      std::to_string(static_cast<unsigned long>(::getpid())) + ".jsonl";

  workload::TestBedConfig observed_cfg = BenchConfig();
  // Slow capture targets offending queries only (DESIGN.md §3): on this
  // workload the threshold catches the cold view-materializing queries
  // (tens of ms) while the warmed view-reading ones (single-digit ms)
  // stay cheap. Capture-everything (threshold 0) is the pathological
  // config and is exercised by tests, not by the perf gate.
  observed_cfg.session.server.slow_query_threshold_s = 0.05;
  observed_cfg.session.server.query_log_path = jsonl;

  workload::TestBedConfig baseline_cfg = BenchConfig();
  baseline_cfg.session.server.query_log_capacity = 0;  // log disabled

  ObservedLane lane;
  lane.observed_wall_s = 1e30;
  lane.baseline_wall_s = 1e30;
  constexpr int kRounds = 2;
  constexpr int kReps = 7;
  lane.queries = kTenants * kQueriesPerTenant * kRounds;
  // Untimed warm-up pass: absorbs first-touch costs (allocator, page
  // faults, lazy statics) that would otherwise land on whichever lane
  // runs first.
  {
    auto warm = bench::CheckResult(workload::TestBed::Create(baseline_cfg),
                                   "warmup TestBed::Create");
    TimedPass(*warm, 1);
  }
  // Interleave the lanes so adjacent passes see the same machine weather.
  // Timing noise on a busy 1-core runner is one-sided — a stall only ever
  // ADDS time — so two upward-biased estimators are computed and the lower
  // one wins: the ratio of each lane's best pass (min-of-kReps converges
  // on the stall-free cost) and the median of the per-rep paired ratios
  // (a stall corrupts one pair, the median discards it).
  std::vector<double> ratios;
  ratios.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    std::remove(jsonl.c_str());
    double observed_wall = 0;
    {
      auto bed = bench::CheckResult(workload::TestBed::Create(observed_cfg),
                                    "observed TestBed::Create");
      observed_wall = TimedPass(*bed, kRounds);
      Server& server = bed->session().server();
      const obs::QueryLog::Stats stats = server.query_log()->stats();
      lane.querylog_appended = stats.appended;
      lane.slow_captured = stats.slow_captured;
      lane.slow_capture_bytes = stats.capture_bytes;
      lane.latency_p95_s = server.Introspect().global.latency_p95_s;
    }
    auto bed = bench::CheckResult(workload::TestBed::Create(baseline_cfg),
                                  "baseline TestBed::Create");
    const double baseline_wall = TimedPass(*bed, kRounds);
    lane.observed_wall_s = std::min(lane.observed_wall_s, observed_wall);
    lane.baseline_wall_s = std::min(lane.baseline_wall_s, baseline_wall);
    if (baseline_wall > 0) ratios.push_back(observed_wall / baseline_wall);
  }
  std::remove(jsonl.c_str());
  if (!ratios.empty() && lane.baseline_wall_s > 0) {
    std::sort(ratios.begin(), ratios.end());
    const double median_ratio = ratios[ratios.size() / 2];
    const double best_ratio = lane.observed_wall_s / lane.baseline_wall_s;
    lane.overhead_pct = 100.0 * (std::min(median_ratio, best_ratio) - 1.0);
  }
  return lane;
}

int RunObserved(bool json) {
  const ObservedLane lane = RunObservedLane();
  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").String("micro_serve");
    w.Key("mode").String("serve_observed");
    w.Key("tenants").Int(kTenants);
    w.Key("queries").Int(lane.queries);
    w.Key("wall_s").Double(lane.observed_wall_s);
    w.Key("baseline_wall_s").Double(lane.baseline_wall_s);
    w.Key("queries_per_sec")
        .Double(lane.observed_wall_s > 0 ? lane.queries / lane.observed_wall_s
                                         : 0.0);
    w.Key("querylog_overhead_pct").Double(lane.overhead_pct);
    w.Key("querylog_appended").UInt(lane.querylog_appended);
    w.Key("slow_captured").UInt(lane.slow_captured);
    w.Key("slow_capture_bytes").UInt(lane.slow_capture_bytes);
    w.Key("latency_p95_s").Double(lane.latency_p95_s);
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    bench::Header("micro_serve: continuous-observability tax");
    std::printf("tenants %d x %d queries x 2 rounds\n", kTenants,
                kQueriesPerTenant);
    std::printf("full observability %.3fs vs log-off %.3fs -> %+.1f%% "
                "overhead (%llu records, %llu slow profiles / %llu bytes "
                "retained, p95 %.3fs)\n",
                lane.observed_wall_s, lane.baseline_wall_s,
                lane.overhead_pct,
                static_cast<unsigned long long>(lane.querylog_appended),
                static_cast<unsigned long long>(lane.slow_captured),
                static_cast<unsigned long long>(lane.slow_capture_bytes),
                lane.latency_p95_s);
    bench::ShapeCheck(lane.querylog_appended ==
                          static_cast<uint64_t>(lane.queries),
                      "observed lane logged every query exactly once");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  return RunObserved(json);
}
