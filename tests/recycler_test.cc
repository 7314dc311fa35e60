// HashRecycler correctness: the cache's own contracts (pinning, codec
// matching, budgeted eviction, view invalidation), the serving-layer wiring
// (epoch sweep on publish, cross-tenant sharing), cold-vs-warm determinism
// at {1,8} threads checked against the reference interpreter, and a
// concurrent-tenant stress run (TSan target: shared recycler under
// racing lookups/inserts).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "exec/hash/recycler.h"
#include "obs/trace.h"
#include "reference_interpreter.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/table.h"
#include "storage/value.h"

namespace opd {
namespace {

using exec::hash::BaseIdentity;
using exec::hash::CachedBuild;
using exec::hash::HashRecycler;
using exec::hash::RecycleKey;
using exec::hash::RecycleKind;

// --- HashRecycler unit tests ------------------------------------------------

RecycleKey MakeKey(const std::string& table,
                   std::vector<uint8_t> codec_modes = {}) {
  RecycleKey key;
  key.kind = RecycleKind::kJoinBuild;
  key.identity = BaseIdentity(table);
  key.key_cols = {0};
  key.codec_modes = std::move(codec_modes);
  key.num_buckets = 1;
  return key;
}

std::shared_ptr<CachedBuild> MakeBuild(const void* pin, uint64_t bytes,
                                       double build_cost_s,
                                       int64_t view_id = -1) {
  auto build = std::make_shared<CachedBuild>();
  build->pin = pin;
  build->bytes = bytes;
  build->build_cost_s = build_cost_s;
  build->view_id = view_id;
  return build;
}

TEST(HashRecyclerTest, LookupHitsOnlyWithMatchingPin) {
  HashRecycler recycler;
  int pinned = 0;
  int other = 0;
  const RecycleKey key = MakeKey("T");

  EXPECT_EQ(recycler.Lookup(key, &pinned), nullptr);  // cold miss
  auto build = MakeBuild(&pinned, 100, 0.5);
  EXPECT_TRUE(recycler.Insert(key, build).inserted);
  EXPECT_EQ(recycler.Lookup(key, &pinned).get(), build.get());

  // Same identity, different live input object: the cached indices are
  // meaningless, so the stale entry must be dropped, not served.
  EXPECT_EQ(recycler.Lookup(key, &other), nullptr);
  const auto stats = recycler.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // Dropped for real: even the original pin misses now.
  EXPECT_EQ(recycler.Lookup(key, &pinned), nullptr);
}

TEST(HashRecyclerTest, CodecMismatchMissesWithoutDroppingEntry) {
  HashRecycler recycler;
  int pin = 0;
  const RecycleKey dict = MakeKey("T", {2, 2});
  const RecycleKey raw = MakeKey("T", {0, 0});

  ASSERT_TRUE(recycler.Insert(dict, MakeBuild(&pin, 100, 0.5)).inserted);
  // A different planned codec stores different key bytes — must miss, and
  // must NOT evict the entry keyed to the other codec.
  EXPECT_EQ(recycler.Lookup(raw, &pin), nullptr);
  EXPECT_EQ(recycler.stats().entries, 1u);
  EXPECT_NE(recycler.Lookup(dict, &pin), nullptr);
}

TEST(HashRecyclerTest, DuplicateInsertKeepsFirstBuild) {
  HashRecycler recycler;
  int pin = 0;
  const RecycleKey key = MakeKey("T");
  auto first = MakeBuild(&pin, 100, 0.5);
  auto second = MakeBuild(&pin, 100, 0.5);

  EXPECT_TRUE(recycler.Insert(key, first).inserted);
  // Two queries racing to build the same table both built correct
  // structures; the first insert wins and the second is a no-op.
  EXPECT_FALSE(recycler.Insert(key, second).inserted);
  EXPECT_EQ(recycler.Lookup(key, &pin).get(), first.get());
  const auto stats = recycler.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
}

TEST(HashRecyclerTest, OversizedBuildIsNeverInserted) {
  HashRecycler::Config config;
  config.budget_bytes = 1000;
  HashRecycler recycler(config);
  int pin = 0;

  EXPECT_FALSE(recycler.Insert(MakeKey("BIG"),
                               MakeBuild(&pin, 2000, 9.0))
                   .inserted);
  const auto stats = recycler.stats();
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(HashRecyclerTest, EvictsLowestBenefitPerByteFirst) {
  HashRecycler::Config config;
  config.budget_bytes = 1000;
  HashRecycler recycler(config);
  int pin = 0;

  // A earns benefit via two hits; B never hits. When C overflows the
  // budget, B (benefit 0, oldest zero-benefit entry) must go first and the
  // single eviction restores the budget.
  ASSERT_TRUE(recycler.Insert(MakeKey("A"), MakeBuild(&pin, 400, 0.2))
                  .inserted);
  ASSERT_NE(recycler.Lookup(MakeKey("A"), &pin), nullptr);
  ASSERT_NE(recycler.Lookup(MakeKey("A"), &pin), nullptr);
  ASSERT_TRUE(recycler.Insert(MakeKey("B"), MakeBuild(&pin, 400, 0.2))
                  .inserted);

  const auto result = recycler.Insert(MakeKey("C"), MakeBuild(&pin, 400, 0.2));
  EXPECT_TRUE(result.inserted);
  EXPECT_EQ(result.evicted, 1u);

  const auto stats = recycler.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 800u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(recycler.Lookup(MakeKey("B"), &pin), nullptr);
  EXPECT_NE(recycler.Lookup(MakeKey("A"), &pin), nullptr);
  EXPECT_NE(recycler.Lookup(MakeKey("C"), &pin), nullptr);
}

TEST(HashRecyclerTest, EvictionTieBreaksByInsertionOrder) {
  HashRecycler::Config config;
  config.budget_bytes = 1000;
  HashRecycler recycler(config);
  int pin = 0;

  // Three zero-benefit entries with identical bytes: identical scores, so
  // insertion sequence decides deterministically — oldest first.
  ASSERT_TRUE(recycler.Insert(MakeKey("A"), MakeBuild(&pin, 400, 0.2))
                  .inserted);
  ASSERT_TRUE(recycler.Insert(MakeKey("B"), MakeBuild(&pin, 400, 0.2))
                  .inserted);
  const auto result = recycler.Insert(MakeKey("C"), MakeBuild(&pin, 400, 0.2));
  EXPECT_TRUE(result.inserted);
  EXPECT_EQ(result.evicted, 1u);
  EXPECT_EQ(recycler.Lookup(MakeKey("A"), &pin), nullptr);
  EXPECT_NE(recycler.Lookup(MakeKey("B"), &pin), nullptr);
  EXPECT_NE(recycler.Lookup(MakeKey("C"), &pin), nullptr);
}

TEST(HashRecyclerTest, InvalidateViewsSweepsOnlyDeadViewEntries) {
  HashRecycler recycler;
  int pin = 0;
  ASSERT_TRUE(recycler
                  .Insert(MakeKey("BASE"),
                          MakeBuild(&pin, 100, 0.1, /*view_id=*/-1))
                  .inserted);
  ASSERT_TRUE(recycler
                  .Insert(MakeKey("VLIVE"),
                          MakeBuild(&pin, 100, 0.1, /*view_id=*/7))
                  .inserted);
  ASSERT_TRUE(recycler
                  .Insert(MakeKey("VDEAD"),
                          MakeBuild(&pin, 100, 0.1, /*view_id=*/9))
                  .inserted);

  EXPECT_EQ(recycler.InvalidateViews([](int64_t id) { return id == 7; }), 1u);
  const auto stats = recycler.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 200u);
  EXPECT_NE(recycler.Lookup(MakeKey("BASE"), &pin), nullptr);
  EXPECT_NE(recycler.Lookup(MakeKey("VLIVE"), &pin), nullptr);
  EXPECT_EQ(recycler.Lookup(MakeKey("VDEAD"), &pin), nullptr);
}

// --- Serving-layer integration ----------------------------------------------

// Order- and name-insensitive content hash of a result table (schema +
// every row), mirroring the server test's fingerprint helper.
uint64_t TableFingerprint(const storage::Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const storage::Column& col : t.schema().columns()) {
    HashCombine(&h, HashString(col.name));
    HashCombine(&h, static_cast<uint64_t>(col.type));
  }
  HashCombine(&h, t.num_rows());
  const storage::RowHash row_hash;
  for (const storage::Row& row : t.ToRows()) HashCombine(&h, row_hash(row));
  return h;
}

// k = (i * mult + salt) % mod (or k = i when mod == 0), value column = i % 97.
// Joined tables need distinct value-column names (JOIN output rejects
// duplicates), hence `val_name`.
storage::TablePtr MakeKV(const std::string& name, int64_t rows, int64_t mult,
                         int64_t salt, int64_t mod,
                         const std::string& val_name = "v") {
  auto table = std::make_shared<storage::Table>(
      name, storage::Schema({{"k", storage::DataType::kInt64},
                             {val_name, storage::DataType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t key = mod > 0 ? (i * mult + salt) % mod : i;
    EXPECT_TRUE(
        table->AppendRow({storage::Value(key), storage::Value(i % 97)}).ok());
  }
  return table;
}

// Sums the per-job recycler tallies of one run.
std::pair<uint64_t, uint64_t> RecycleCounts(const RunResult& run) {
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const exec::JobRun& jr : run.jobs) {
    hits += jr.recycle_hits;
    misses += jr.recycle_misses;
  }
  return {hits, misses};
}

TEST(RecyclerServingTest, CrossTenantJoinBuildIsSharedOnce) {
  SessionOptions options;
  options.engine.num_threads = 1;
  auto server = Server::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)
                  ->RegisterTable(MakeKV("JB", 1500, 1, 0, 0, "bv"), {"k"})
                  .ok());
  ASSERT_TRUE((*server)
                  ->RegisterTable(MakeKV("JP", 2000, 7, 0, 3000), {"k"})
                  .ok());

  const std::string oql =
      "p = scan JP;"
      "b = scan JB;"
      "r = join p b on k = k;";
  RunOptions opts;
  opts.rewrite = false;

  ClientSession alice = (*server)->Connect("alice");
  auto r1 = alice.Run(oql, opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_NE(r1->table, nullptr);
  const auto [hits1, misses1] = RecycleCounts(*r1);
  EXPECT_EQ(hits1, 0u);
  EXPECT_GE(misses1, 1u);  // cold server: the build side misses and inserts

  // A different tenant running the same join probes alice's cached build
  // instead of rebuilding — one build serves the whole server.
  ClientSession bob = (*server)->Connect("bob");
  const obs::MetricsSnapshot bob_before = (*server)->TenantSnapshot("bob");
  auto r2 = bob.Run(oql, opts);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_NE(r2->table, nullptr);
  const auto [hits2, misses2] = RecycleCounts(*r2);
  EXPECT_GE(hits2, 1u);
  EXPECT_EQ(misses2, 0u);
  EXPECT_EQ(TableFingerprint(*r2->table), TableFingerprint(*r1->table));

  // The hit is attributed to bob's private metric scope.
  const obs::MetricsSnapshot bob_delta =
      (*server)->TenantSnapshot("bob").DiffFrom(bob_before);
  auto it = bob_delta.counters.find("server.recycle.hits");
  ASSERT_NE(it, bob_delta.counters.end());
  EXPECT_GE(it->second, 1u);

  const auto stats = (*server)->recycler().stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.inserts, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(RecyclerServingTest, ViewKeyedEntriesAreSweptWhenViewsDie) {
  SessionOptions options;
  options.engine.num_threads = 1;
  auto server = Server::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ClientSession client = (*server)->Connect("default");
  ASSERT_TRUE(
      (*server)->RegisterTable(MakeKV("VG", 4000, 1, 0, 64), {"k"}).ok());
  ASSERT_TRUE(
      (*server)->RegisterTable(MakeKV("VP0", 2000, 31, 0, 64, "pv"), {"k"}).ok());
  ASSERT_TRUE(
      (*server)->RegisterTable(MakeKV("VP1", 2000, 31, 1, 64, "pv"), {"k"}).ok());

  HashRecycler& recycler = (*server)->recycler();

  // Query 0 materializes the group-by as an opportunistic view.
  auto r0 = client.Run("a = scan VG | groupby k sum(v) as s;");
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  ASSERT_GT((*server)->views().size(), 0u);

  // Query 1's group-by subtree rewrites to a scan of that view; the join's
  // build side is then the view scan, so its built table is cached under a
  // view:<id>@<epoch> identity.
  auto r1 = client.Run(
      "a = scan VG | groupby k sum(v) as s;"
      "p = scan VP0;"
      "r = join p a on k = k;");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1->rewritten);
  const size_t entries_cached = recycler.stats().entries;
  EXPECT_GE(entries_cached, 2u);  // base group-by route + view join build

  // Proof the view-keyed entry is live: a second rewritten query (distinct
  // probe, same group-by subtree) hits it instead of rebuilding.
  auto r2 = client.Run(
      "a = scan VG | groupby k sum(v) as s;"
      "p = scan VP1;"
      "r = join p a on k = k;");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_GE(RecycleCounts(*r2).first, 1u);

  // Kill every view, then run any query: RunAdmitted's publish-time sweep
  // must drop the view-keyed entries (their identity can never match
  // again) while base-keyed entries survive.
  (*server)->views().DropAll();
  RunOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto sweep = client.Run("r = scan VG;", no_rewrite);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_LT(recycler.stats().entries, entries_cached);
}

// The determinism contract under recycling, at 1 and 8 threads: the cold
// repetition of a query is a recycler miss (a fresh build) and is the
// reference for the warm one (a hit) — byte-identical rows, in order — and
// both must equal the reference interpreter's answer.
TEST(RecyclerDeterminismTest, RecycleMatrixIsByteIdentical) {
  const std::vector<plan::Plan> queries = {
      plan::Plan(plan::Join(plan::Scan("MP"), plan::Scan("MB"), {{"k", "k"}}),
                 "r"),
      plan::Plan(plan::GroupBy(plan::Scan("MG"), {"k"},
                               {plan::AggSpec{plan::AggFn::kCount, "", "n"},
                                plan::AggSpec{plan::AggFn::kSum, "v", "s"}}),
                 "g")};
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SessionOptions options;
    options.engine.num_threads = threads;
    auto server = Server::Create(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ClientSession client = (*server)->Connect("default");
    ASSERT_TRUE(
        (*server)->RegisterTable(MakeKV("MB", 1500, 1, 0, 0, "bv"), {"k"}).ok());
    ASSERT_TRUE(
        (*server)->RegisterTable(MakeKV("MP", 2000, 7, 0, 3000), {"k"}).ok());
    ASSERT_TRUE(
        (*server)->RegisterTable(MakeKV("MG", 3000, 1, 0, 64), {"k"}).ok());
    const plan::AnnotationContext ctx{&(*server)->catalog(),
                                      &(*server)->views(),
                                      &(*server)->udfs()};
    for (const plan::Plan& query : queries) {
      SCOPED_TRACE(query.name());
      auto expected = reference::Evaluate(
          plan::Plan(plan::CloneTree(query.root())), ctx, &(*server)->dfs());
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_FALSE(expected->empty());
      RunOptions opts;
      opts.rewrite = false;
      auto cold = client.Run(plan::Plan(plan::CloneTree(query.root())), opts);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      auto warm = client.Run(plan::Plan(plan::CloneTree(query.root())), opts);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      EXPECT_EQ(RecycleCounts(*cold), std::make_pair(uint64_t{0}, uint64_t{1}));
      EXPECT_EQ(RecycleCounts(*warm), std::make_pair(uint64_t{1}, uint64_t{0}));
      const auto want = reference::Multiset(*expected);
      EXPECT_EQ(reference::Multiset(cold->table->ToRows()), want);
      EXPECT_EQ(reference::Multiset(warm->table->ToRows()), want);
      EXPECT_EQ(warm->table->ToRows(), cold->table->ToRows());  // and in order
    }
  }
}

// Names of the task spans under each "reduce" phase span of `trace`, one
// list per phase, in id order.
std::vector<std::vector<std::string>> ReduceTaskNames(const obs::Trace& trace) {
  const std::vector<obs::SpanRecord> spans = trace.Sorted();
  std::vector<std::vector<std::string>> phases;
  for (const obs::SpanRecord& phase : spans) {
    if (phase.name != "reduce") continue;
    phases.emplace_back();
    for (const obs::SpanRecord& task : spans) {
      if (task.parent == phase.id) phases.back().push_back(task.name);
    }
  }
  return phases;
}

// A group-by's reduce tasks are named "reduce:<b>" whether the job builds
// its groups (a recycler miss, the shuffle's reduce wave) or replays
// recycled routes (a hit), so a trace reads the same either way.
TEST(RecyclerDeterminismTest, GroupByReduceTaskSpansMatchOnMissAndHit) {
  SessionOptions options;
  options.engine.num_threads = 4;
  options.engine.num_reduce_tasks = 3;
  options.obs.tracing = true;
  auto server = Server::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(
      (*server)->RegisterTable(MakeKV("TG", 3000, 1, 0, 64), {"k"}).ok());
  ClientSession client = (*server)->Connect("default");
  RunOptions opts;
  opts.rewrite = false;
  const std::string oql = "g = scan TG | groupby k sum(v) as s;";

  auto miss = client.Run(oql, opts);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  auto hit = client.Run(oql, opts);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(RecycleCounts(*miss), std::make_pair(uint64_t{0}, uint64_t{1}));
  EXPECT_EQ(RecycleCounts(*hit), std::make_pair(uint64_t{1}, uint64_t{0}));

  const std::vector<std::vector<std::string>> want = {
      {"reduce:0", "reduce:1", "reduce:2"}};
  ASSERT_NE(miss->trace, nullptr);
  ASSERT_NE(hit->trace, nullptr);
  EXPECT_EQ(ReduceTaskNames(*miss->trace), want);
  EXPECT_EQ(ReduceTaskNames(*hit->trace), want);
}

// Four tenants hammer the same join on one server: every lookup races every
// insert on the shared recycler, and every result must still be
// byte-identical to the cold run. This is the TSan target.
TEST(RecyclerStressTest, ConcurrentTenants) {
  SessionOptions options;
  options.engine.num_threads = 2;
  options.server.max_concurrent_queries = 4;
  auto server = Server::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)
                  ->RegisterTable(MakeKV("SB", 1500, 1, 0, 0, "bv"), {"k"})
                  .ok());
  ASSERT_TRUE((*server)
                  ->RegisterTable(MakeKV("SP", 2000, 7, 0, 3000), {"k"})
                  .ok());

  const std::string oql =
      "p = scan SP;"
      "b = scan SB;"
      "r = join p b on k = k;";
  RunOptions opts;
  opts.rewrite = false;

  ClientSession cold = (*server)->Connect("cold");
  auto baseline_run = cold.Run(oql, opts);
  ASSERT_TRUE(baseline_run.ok()) << baseline_run.status().ToString();
  ASSERT_NE(baseline_run->table, nullptr);
  const uint64_t baseline = TableFingerprint(*baseline_run->table);

  const int kTenants = 4;
  const int kItersPerTenant = 6;
  std::mutex mu;
  std::vector<std::string> errors;
  std::vector<uint64_t> fingerprints;
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ClientSession client =
          (*server)->Connect("tenant" + std::to_string(t));
      for (int i = 0; i < kItersPerTenant; ++i) {
        auto run = client.Run(oql, opts);
        std::lock_guard<std::mutex> lock(mu);
        if (!run.ok()) {
          errors.push_back(run.status().ToString());
          continue;
        }
        fingerprints.push_back(run->table ? TableFingerprint(*run->table)
                                          : 0);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_EQ(fingerprints.size(),
            static_cast<size_t>(kTenants) * kItersPerTenant);
  for (uint64_t fp : fingerprints) EXPECT_EQ(fp, baseline);

  const auto stats = (*server)->recycler().stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.inserts, 1u);
  EXPECT_GE(stats.entries, 1u);
}

}  // namespace
}  // namespace opd
