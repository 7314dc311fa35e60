// Hash-recycler microbench: cross-query reuse of built hash tables
// (src/exec/hash/recycler.h, DESIGN.md §2h).
//
// Two workloads, each on its own Server (so the recycler starts cold):
//
//  1. *Repeated join* — the same join (64k-row build side, 64k-row probe
//     side, rewrite off) runs once cold and `kWarmIters` times warm. The
//     cold run builds the flat per-bucket tables and inserts them into the
//     server's recycler; every warm run must hit and probe the cached
//     build. Reported: cold vs warm wall time, their ratio (the recycle
//     speedup scripts/bench.sh gates at >= 1.3x), an output-fingerprint
//     receipt, and `zero_rebuild` — the recycler's insert counter must not
//     move during the warm runs (hits only, no rebuild ever).
//
//  2. *Warm rewrite* — a group-by materializes an opportunistic view; six
//     follow-up queries join that group-by against six distinct probe
//     tables with rewrite ON, so BFREWRITE replaces the group-by subtree
//     with a scan of the published view. The join's build side is then a
//     view scan (identity `view:<id>@<epoch>`): the first rewritten query
//     misses and caches, the rest hit. Reported as `warm_rewrite_hit_rate`.
//
// `micro_recycle --json` prints one JSON line (mode "recycle") that
// scripts/bench.sh appends to BENCH_engine.json and gates in --check.
// Exit status is 1 when outputs diverge or a warm run rebuilt.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/json_writer.h"
#include "exec/hash/recycler.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/table.h"
#include "storage/value.h"

using namespace opd;  // NOLINT

namespace {

constexpr int64_t kBuildRows = 64 * 1024;
constexpr int64_t kProbeRows = 64 * 1024;
constexpr int64_t kMatchingProbes = 2048;
constexpr int kWarmIters = 6;

constexpr int64_t kGroupRows = 40 * 1024;
constexpr int64_t kGroupKeys = 8 * 1024;
constexpr int64_t kRewriteProbeRows = 12 * 1024;
constexpr int kRewriteProbeTables = 6;

uint64_t TableFingerprint(const storage::Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  HashCombine(&h, t.num_rows());
  const storage::RowHash row_hash;
  for (const storage::Row& row : t.ToRows()) HashCombine(&h, row_hash(row));
  return h;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

storage::TablePtr MakeBuildTable() {
  auto t = std::make_shared<storage::Table>(
      "RBUILD", storage::Schema({{"k", storage::DataType::kInt64},
                                 {"bv", storage::DataType::kInt64}}));
  for (int64_t i = 0; i < kBuildRows; ++i) {
    bench::CheckOk(
        t->AppendRow({storage::Value(i), storage::Value(i * 3 % 1001)}),
        "RBUILD AppendRow");
  }
  return t;
}

storage::TablePtr MakeProbeTable() {
  auto t = std::make_shared<storage::Table>(
      "RPROBE", storage::Schema({{"k", storage::DataType::kInt64},
                                 {"pv", storage::DataType::kInt64}}));
  // The first kMatchingProbes rows hit the build side; the rest miss, so
  // the join output (and its materialization cost) stays small relative to
  // the build/probe work the bench is measuring.
  for (int64_t i = 0; i < kProbeRows; ++i) {
    const int64_t key = i < kMatchingProbes ? i : (1 << 20) + i;
    bench::CheckOk(
        t->AppendRow({storage::Value(key), storage::Value(i % 997)}),
        "RPROBE AppendRow");
  }
  return t;
}

struct RepeatedJoinResult {
  double cold_ms = 0;
  double warm_ms = 0;
  double speedup = 0;
  bool outputs_match = true;
  bool zero_rebuild = true;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t bytes = 0;
};

RepeatedJoinResult RunRepeatedJoin() {
  // The cold run publishes the join's output as a view; each warm run's
  // copy is AFK-identical, so the store deduplicates it and the server
  // deletes its DFS file.
  auto server = bench::CheckResult(Server::Create(), "Server::Create");
  ClientSession session = server->Connect("default");
  bench::CheckOk(server->RegisterTable(MakeBuildTable(), {"k"}),
                 "RegisterTable RBUILD");
  bench::CheckOk(server->RegisterTable(MakeProbeTable(), {"k"}),
                 "RegisterTable RPROBE");

  // RBUILD on the right: the engine builds on the smaller-or-equal side
  // (ties keep build-on-right), so the cached structure covers RBUILD.
  const std::string oql =
      "p = scan RPROBE;"
      "b = scan RBUILD;"
      "r = join p b on k = k;";
  RunOptions opts;
  opts.rewrite = false;

  RepeatedJoinResult out;
  exec::hash::HashRecycler& recycler = server->recycler();

  auto cold_start = std::chrono::steady_clock::now();
  auto cold = bench::CheckResult(session.Run(oql, opts), "cold join Run");
  out.cold_ms = MsSince(cold_start);
  const uint64_t cold_fp = TableFingerprint(*cold.table);
  const exec::hash::RecyclerStats after_cold = recycler.stats();

  double warm_total_ms = 0;
  for (int i = 0; i < kWarmIters; ++i) {
    auto warm_start = std::chrono::steady_clock::now();
    auto warm = bench::CheckResult(session.Run(oql, opts), "warm join Run");
    warm_total_ms += MsSince(warm_start);
    if (TableFingerprint(*warm.table) != cold_fp) {
      out.outputs_match = false;
      std::fprintf(stderr, "warm run %d output diverged from cold run\n", i);
    }
  }
  out.warm_ms = warm_total_ms / kWarmIters;
  out.speedup = out.warm_ms > 0 ? out.cold_ms / out.warm_ms : 0;

  const exec::hash::RecyclerStats stats = recycler.stats();
  out.hits = stats.hits;
  out.misses = stats.misses;
  out.inserts = stats.inserts;
  out.bytes = stats.bytes;
  // Warm runs may only hit: any insert after the cold run means a warm run
  // rebuilt a table the cache should have served.
  out.zero_rebuild = stats.inserts == after_cold.inserts &&
                     stats.hits >= after_cold.hits + kWarmIters;
  return out;
}

struct WarmRewriteResult {
  int queries = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double hit_rate = 0;
  bool rewrites_used_view = true;
};

WarmRewriteResult RunWarmRewrite() {
  auto server = bench::CheckResult(Server::Create(), "Server::Create");
  ClientSession session = server->Connect("default");

  auto gt = std::make_shared<storage::Table>(
      "GT", storage::Schema({{"k", storage::DataType::kInt64},
                             {"v", storage::DataType::kInt64}}));
  for (int64_t i = 0; i < kGroupRows; ++i) {
    bench::CheckOk(gt->AppendRow({storage::Value(i % kGroupKeys),
                                  storage::Value(i % 97)}),
                   "GT AppendRow");
  }
  bench::CheckOk(server->RegisterTable(std::move(gt), {"k"}),
                 "RegisterTable GT");
  for (int t = 0; t < kRewriteProbeTables; ++t) {
    const std::string name = "RP" + std::to_string(t);
    auto p = std::make_shared<storage::Table>(
        name, storage::Schema({{"k", storage::DataType::kInt64},
                               {"w", storage::DataType::kInt64}}));
    for (int64_t i = 0; i < kRewriteProbeRows; ++i) {
      bench::CheckOk(
          p->AppendRow({storage::Value((i * 31 + t) % kGroupKeys),
                        storage::Value(i % 53)}),
          "probe AppendRow");
    }
    bench::CheckOk(server->RegisterTable(std::move(p), {"k"}),
                   "RegisterTable probe");
  }

  // Query 0 materializes the group-by as an opportunistic view; queries
  // 1..N-1 (distinct probe tables, so no full-plan view match) are
  // rewritten to join against a scan of that view — the recyclable shape.
  WarmRewriteResult out;
  for (int t = 0; t < kRewriteProbeTables; ++t) {
    const std::string oql =
        "a = scan GT | groupby k sum(v) as s;"
        "p = scan RP" + std::to_string(t) + ";"
        "r = join p a on k = k;";
    auto run = bench::CheckResult(session.Run(oql), "warm-rewrite Run");
    if (t > 0) {
      ++out.queries;
      if (run.views_used.empty()) out.rewrites_used_view = false;
      for (const exec::JobRun& jr : run.jobs) {
        out.hits += jr.recycle_hits;
        out.misses += jr.recycle_misses;
      }
    }
  }
  const uint64_t looked_up = out.hits + out.misses;
  out.hit_rate = looked_up > 0
                     ? static_cast<double>(out.hits) /
                           static_cast<double>(looked_up)
                     : 0;
  return out;
}

int RunRecycleBench(bool json) {
  const RepeatedJoinResult rj = RunRepeatedJoin();
  const WarmRewriteResult wr = RunWarmRewrite();

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").String("micro_recycle");
    w.Key("mode").String("recycle");
    w.Key("build_rows").Int(static_cast<int>(kBuildRows));
    w.Key("probe_rows").Int(static_cast<int>(kProbeRows));
    w.Key("warm_iters").Int(kWarmIters);
    w.Key("repeated_join_cold_ms").Double(rj.cold_ms);
    w.Key("repeated_join_warm_ms").Double(rj.warm_ms);
    w.Key("repeated_join_speedup").Double(rj.speedup);
    w.Key("outputs_match").Bool(rj.outputs_match);
    w.Key("zero_rebuild").Bool(rj.zero_rebuild);
    w.Key("recycle_hits").UInt(rj.hits);
    w.Key("recycle_misses").UInt(rj.misses);
    w.Key("recycle_inserts").UInt(rj.inserts);
    w.Key("recycle_bytes").UInt(rj.bytes);
    w.Key("warm_rewrite_queries").Int(wr.queries);
    w.Key("warm_rewrite_hit_rate").Double(wr.hit_rate);
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    bench::Header("micro_recycle: cross-query hash-table recycling");
    std::printf("repeated join (%lld build x %lld probe rows, %d warm "
                "iters):\n",
                static_cast<long long>(kBuildRows),
                static_cast<long long>(kProbeRows), kWarmIters);
    std::printf("  cold %.2fms, warm %.2fms  ->  %.2fx recycle speedup\n",
                rj.cold_ms, rj.warm_ms, rj.speedup);
    std::printf("  recycler: %llu hits, %llu misses, %llu inserts, "
                "%llu bytes retained\n",
                static_cast<unsigned long long>(rj.hits),
                static_cast<unsigned long long>(rj.misses),
                static_cast<unsigned long long>(rj.inserts),
                static_cast<unsigned long long>(rj.bytes));
    std::printf("warm rewrite: %llu hits / %llu misses over %d rewritten "
                "queries  ->  %.0f%% hit rate\n",
                static_cast<unsigned long long>(wr.hits),
                static_cast<unsigned long long>(wr.misses), wr.queries,
                100.0 * wr.hit_rate);
    bench::ShapeCheck(rj.outputs_match,
                      "recycled outputs byte-identical to cold build");
    bench::ShapeCheck(rj.zero_rebuild,
                      "warm runs never rebuilt (hits only, zero inserts)");
    bench::ShapeCheck(rj.speedup >= 1.3,
                      "recycled join >= 1.3x faster than cold build");
    bench::ShapeCheck(wr.rewrites_used_view && wr.hit_rate > 0,
                      "rewritten view joins recycle the view's hash table");
  }
  return rj.outputs_match && rj.zero_rebuild ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  return RunRecycleBench(json);
}
