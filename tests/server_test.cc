// Serving-layer tests (DESIGN.md §3): admission control determinism, epoch
// snapshot visibility, per-tenant metric isolation, and the interleaved
// multi-tenant stress test whose outputs must match a serial replay of the
// recorded schedule byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "plan/plan.h"
#include "server/admission.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/table.h"
#include "storage/value.h"
#include "udf/builtin_udfs.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

namespace opd {
namespace {

using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

// Order- and content-sensitive fingerprint of a result table (schema +
// every row). Deliberately excludes the table *name*, which embeds the
// engine's run counter and so differs between a concurrent run and its
// serial replay even when the data is byte-identical.
uint64_t TableFingerprint(const Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Column& col : t.schema().columns()) {
    HashCombine(&h, HashString(col.name));
    HashCombine(&h, static_cast<uint64_t>(col.type));
  }
  HashCombine(&h, t.num_rows());
  const storage::RowHash row_hash;
  for (const storage::Row& row : t.ToRows()) HashCombine(&h, row_hash(row));
  return h;
}

workload::TestBedConfig TinyConfig() {
  workload::TestBedConfig config;
  config.data.n_tweets = 800;
  config.data.n_checkins = 500;
  config.data.n_locations = 120;
  config.data.n_users = 80;
  // UDF cost scalars are calibrated from wall-clock throughput and so
  // differ run to run; disable calibration so two beds built from this
  // config make identical rewrite decisions (the serial-replay oracle).
  config.calibrate_udfs = false;
  return config;
}

std::unique_ptr<workload::TestBed> MakeBed(workload::TestBedConfig config) {
  auto bed = workload::TestBed::Create(std::move(config));
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  return bed.ok() ? std::move(bed).value() : nullptr;
}

plan::Plan MustBuildQuery(int analyst, int version) {
  auto plan = workload::BuildQuery(analyst, version);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? std::move(plan).value() : plan::Plan();
}

// Spins until `pred` holds (10s cap) — used to sequence admissions across
// test threads without relying on sleeps for correctness.
template <typename Pred>
bool WaitUntil(Pred pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// --- AdmissionController unit tests ----------------------------------------

TEST(AdmissionControllerTest, TryAdmitEnforcesCapacityAndQuota) {
  server::AdmissionController::Options opts;
  opts.max_concurrent = 2;
  opts.per_tenant_quota = 1;
  server::AdmissionController ctrl(opts);

  auto t1 = ctrl.TryAdmit("a");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(*t1, 1u);
  // Quota: "a" already holds its one slot.
  auto quota = ctrl.TryAdmit("a");
  ASSERT_FALSE(quota.ok());
  EXPECT_EQ(quota.status().code(), StatusCode::kOutOfRange);
  auto t2 = ctrl.TryAdmit("b");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, 2u);
  // Capacity: both slots held.
  auto full = ctrl.TryAdmit("c");
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kOutOfRange);

  ctrl.Release("a");
  auto t3 = ctrl.TryAdmit("c");
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(*t3, 3u);

  const auto stats = ctrl.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 2);
  EXPECT_EQ(stats.waiting, 0);
  EXPECT_EQ(ctrl.admission_log(),
            (std::vector<std::string>{"a", "b", "c"}));
  ctrl.Release("b");
  ctrl.Release("c");
}

TEST(AdmissionControllerTest, FairSchedulingFavorsLeastLoadedTenant) {
  server::AdmissionController::Options opts;
  opts.max_concurrent = 2;
  server::AdmissionController ctrl(opts);

  EXPECT_EQ(ctrl.Admit("a"), 1u);
  EXPECT_EQ(ctrl.Admit("a"), 2u);

  // Queue a third "a", then a first "b" — strictly in this arrival order.
  std::thread wa([&] { ctrl.Admit("a"); });
  ASSERT_TRUE(WaitUntil([&] { return ctrl.stats().waiting == 1; }));
  std::thread wb([&] { ctrl.Admit("b"); });
  ASSERT_TRUE(WaitUntil([&] { return ctrl.stats().waiting == 2; }));

  // Fair pick: the free slot goes to "b" (0 running) over the
  // earlier-arrived "a" (1 running after the release).
  ctrl.Release("a");
  ASSERT_TRUE(WaitUntil([&] { return ctrl.stats().waiting == 1; }));
  EXPECT_EQ(ctrl.admission_log(),
            (std::vector<std::string>{"a", "a", "b"}));

  ctrl.Release("a");
  ASSERT_TRUE(WaitUntil([&] { return ctrl.stats().waiting == 0; }));
  EXPECT_EQ(ctrl.admission_log(),
            (std::vector<std::string>{"a", "a", "b", "a"}));
  wa.join();
  wb.join();

  const auto stats = ctrl.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.queued, 2u);
  ctrl.Release("a");
  ctrl.Release("b");
}

// --- Server integration: admission under a held slot ------------------------

TEST(ServerAdmissionTest, FailFastRejectsWhileSlotHeldThenSucceeds) {
  SessionOptions options;
  options.server.max_concurrent_queries = 1;
  auto server_or = Server::Create(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  Server& server = **server_or;

  Schema schema({Column{"id", DataType::kInt64},
                 Column{"txt", DataType::kString}});
  auto table = std::make_shared<Table>("T", schema);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        table->AppendRow({Value(int64_t{i}), Value("row")}).ok());
  }
  ASSERT_TRUE(server.RegisterTable(table, {"id"}).ok());

  // An opaque predicate that parks its query inside execution until the
  // gate opens — a deterministic way to keep the single slot occupied.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  ASSERT_TRUE(server.udfs()
                  .RegisterPredicate(
                      "block_gate",
                      [gate](const std::vector<Value>&, const udf::Params&) {
                        std::unique_lock<std::mutex> lock(gate->mu);
                        if (!gate->entered) {
                          gate->entered = true;
                          gate->cv.notify_all();
                        }
                        gate->cv.wait(lock, [&] { return gate->open; });
                        return true;
                      })
                  .ok());

  std::thread runner([&] {
    ClientSession alice = server.Connect("alice");
    plan::Plan plan(plan::Filter(
        plan::Scan("T"), plan::FilterCond::Opaque("block_gate", {"txt"})));
    RunOptions opts;
    opts.rewrite = false;
    auto run = alice.Run(std::move(plan), opts);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
  });
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->entered; });
  }

  // The only slot is provably held inside Execute: fail-fast admission
  // must reject instead of queueing.
  ClientSession bob = server.Connect("bob");
  RunOptions fail_fast;
  fail_fast.rewrite = false;
  fail_fast.admission.fail_fast = true;
  auto rejected =
      bob.Run(plan::Plan(plan::Project(plan::Scan("T"), {"id"})), fail_fast);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfRange);

  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->open = true;
  }
  gate->cv.notify_all();
  runner.join();

  auto accepted =
      bob.Run(plan::Plan(plan::Project(plan::Scan("T"), {"id"})), fail_fast);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->admission_ticket, 2u);
  EXPECT_EQ(accepted->tenant, "bob");
  EXPECT_EQ(server.admission_log(),
            (std::vector<std::string>{"alice", "bob"}));
  const auto stats = server.admission_stats();
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.waiting, 0);
}

// --- Serving semantics over the paper workload ------------------------------

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto bed = MakeBed(TinyConfig());
    ASSERT_NE(bed, nullptr);
    bed_ = bed.release();
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }

  static workload::TestBed* bed_;
};

workload::TestBed* ServingTest::bed_ = nullptr;

TEST_F(ServingTest, SnapshotVisibilityAndCrossTenantReuse) {
  Server& server = bed_->session().server();
  bed_->DropAllViews();
  const catalog::Epoch e0 = server.views().epoch();

  ClientSession alice = server.Connect("alice");
  auto r1 = alice.Run(MustBuildQuery(1, 1));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->tenant, "alice");
  EXPECT_EQ(r1->admission_epoch, e0);
  EXPECT_EQ(r1->publish_epoch, e0 + 1);
  // Empty store at admission: nothing to reuse, but views materialized.
  EXPECT_TRUE(r1->views_used.empty());
  ASSERT_GT(server.views().size(), 0u);
  ASSERT_NE(r1->table, nullptr);
  const uint64_t baseline = TableFingerprint(*r1->table);

  // A second tenant running the identical query reuses alice's views —
  // and sees exactly the store as of its own admission epoch.
  ClientSession bob = server.Connect("bob");
  const obs::MetricsSnapshot bob_before = server.TenantSnapshot("bob");
  auto r2 = bob.Run(MustBuildQuery(1, 1));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->admission_epoch, e0 + 1);
  EXPECT_EQ(r2->publish_epoch, e0 + 2);
  ASSERT_FALSE(r2->views_used.empty());
  for (const ViewUse& use : r2->views_used) {
    EXPECT_EQ(use.tenant, "alice");
    EXPECT_GE(use.publish_epoch, e0 + 1);
    EXPECT_LE(use.publish_epoch, r2->admission_epoch);
  }
  const obs::MetricsSnapshot bob_delta =
      server.TenantSnapshot("bob").DiffFrom(bob_before);
  auto cross = bob_delta.counters.find("server.views.cross_reuse");
  ASSERT_NE(cross, bob_delta.counters.end());
  EXPECT_GE(cross->second, 1u);
  ASSERT_NE(r2->table, nullptr);
  EXPECT_EQ(TableFingerprint(*r2->table), baseline);

  // Pinning the admission epoch back to e0 hides every later view: the
  // rewrite sees an empty snapshot and the original plan runs.
  RunOptions pinned;
  pinned.admission.pin_epoch = static_cast<int64_t>(e0);
  auto r3 = bob.Run(MustBuildQuery(1, 1), pinned);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3->admission_epoch, e0);
  EXPECT_TRUE(r3->views_used.empty());
  ASSERT_NE(r3->table, nullptr);
  EXPECT_EQ(TableFingerprint(*r3->table), baseline);
}

TEST_F(ServingTest, PerTenantMetricDeltasAreIsolated) {
  Server& server = bed_->session().server();

  ClientSession carol = server.Connect("carol");
  ClientSession dave = server.Connect("dave");
  auto c1 = carol.Run(MustBuildQuery(2, 1));
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  auto d1 = dave.Run(MustBuildQuery(3, 1));
  ASSERT_TRUE(d1.ok()) << d1.status().ToString();
  auto d2 = dave.Run(MustBuildQuery(3, 2));
  ASSERT_TRUE(d2.ok()) << d2.status().ToString();

  // Cumulative per-tenant scopes count only the tenant's own traffic, even
  // though the shared global registry saw all three queries.
  EXPECT_EQ(server.TenantSnapshot("carol")
                .counters.at("server.queries.completed"),
            1u);
  EXPECT_EQ(server.TenantSnapshot("dave")
                .counters.at("server.queries.completed"),
            2u);

  const auto tenants = server.Tenants();
  EXPECT_TRUE(std::count(tenants.begin(), tenants.end(), "carol"));
  EXPECT_TRUE(std::count(tenants.begin(), tenants.end(), "dave"));
}

// A publish the view store deduplicates must not leave the engine's copy of
// the duplicate behind: every DFS file under views/ belongs to a view.
TEST_F(ServingTest, DeduplicatedPublishLeavesNoOrphanFile) {
  Server& server = bed_->session().server();
  bed_->DropAllViews();
  ClientSession frank = server.Connect("frank");
  RunOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto first = frank.Run(MustBuildQuery(1, 1), no_rewrite);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->metrics.views_created, 0);
  auto second = frank.Run(MustBuildQuery(1, 1), no_rewrite);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->metrics.views_created, 0);  // all duplicates

  size_t view_files = 0;
  for (const std::string& path : server.dfs().ListPaths()) {
    if (path.rfind("views/", 0) == 0) ++view_files;
  }
  EXPECT_EQ(view_files, server.views().size());
}

// A query that fails after an earlier job was finalized must not orphan
// that job's output: the group-by (job 0) writes views/run<N>/job0, then
// the UDF job's map function throws. The failed run leaves the DFS as it
// found it, releases its admission slot, and is logged as an error.
TEST_F(ServingTest, FailedQueryLeavesNoDfsOutput) {
  Server& server = bed_->session().server();
  const std::string kUdf = "UDF_CLASSIFY_WINE_SCORE_THROWS";
  if (!server.udfs().Find(kUdf).ok()) {
    udf::UdfDefinition broken = udf::MakeClassifyWineScoreUdf();
    broken.name = kUdf;
    ASSERT_EQ(broken.local_functions.front().kind, udf::LfKind::kMap);
    broken.local_functions.front().map_fn =
        [](const storage::RowBatch&,
           const udf::LfContext&) -> storage::RowBatch {
          throw std::runtime_error("injected map failure");
        };
    ASSERT_TRUE(server.udfs().Register(std::move(broken)).ok());
  }
  plan::Plan plan(
      plan::Udf(plan::GroupBy(plan::Scan("TWTR"), {"user_id", "tweet_text"},
                              {plan::AggSpec{plan::AggFn::kCount, "", "n"}}),
                kUdf, {}),
      "failing");

  const std::vector<std::string> before = server.dfs().ListPaths();
  ClientSession gina = server.Connect("gina");
  RunOptions no_rewrite;  // run both jobs as written, whatever the store holds
  no_rewrite.rewrite = false;
  auto run = gina.Run(std::move(plan), no_rewrite);
  ASSERT_FALSE(run.ok());

  EXPECT_EQ(server.dfs().ListPaths(), before);
  EXPECT_EQ(server.admission_stats().running, 0);
  ASSERT_NE(server.query_log(), nullptr);
  const auto history = server.query_log()->Snapshot();
  ASSERT_FALSE(history.empty());
  const auto newest = *std::max_element(
      history.begin(), history.end(),
      [](const auto& a, const auto& b) { return a->ticket < b->ticket; });
  EXPECT_EQ(newest->tenant, "gina");
  EXPECT_EQ(newest->status, "error");
}

// A job that throws outside any task wave (here a UDF whose out_schema
// passes Prepare and then throws when the job runs) fails its query whether
// it runs as a pool task (a group-by job, then the UDF job) or on the
// calling thread (the UDF job alone). The query returns an error, leaves the
// DFS as it found it and releases its admission slot.
TEST_F(ServingTest, JobThrowingOutsideAWaveFailsItsQuery) {
  Server& server = bed_->session().server();
  struct Trap {
    std::atomic<int> calls{0};
    std::atomic<int> allowed{std::numeric_limits<int>::max()};
  };
  static const auto trap = std::make_shared<Trap>();
  const std::string kUdf = "UDF_TOKENIZE_SCHEMA_THROWS";
  if (!server.udfs().Find(kUdf).ok()) {
    udf::UdfDefinition udf = udf::MakeTokenizeUdf();
    udf.name = kUdf;
    udf::SchemaFn inner = udf.local_functions.front().out_schema;
    udf.local_functions.front().out_schema =
        [inner](const storage::Schema& in,
                const udf::Params& params) -> Result<storage::Schema> {
      if (trap->calls.fetch_add(1) >= trap->allowed.load()) {
        throw std::runtime_error("injected out_schema failure");
      }
      return inner(in, params);
    };
    ASSERT_TRUE(server.udfs().Register(std::move(udf)).ok());
  }
  const auto two_job_plan = [&] {
    return plan::Plan(
        plan::Udf(plan::GroupBy(plan::Scan("TWTR"), {"user_id", "tweet_text"},
                                {plan::AggSpec{plan::AggFn::kCount, "", "n"}}),
                  kUdf, {}),
        "throws_after_group_by");
  };
  const auto one_job_plan = [&] {
    return plan::Plan(plan::Udf(plan::Scan("TWTR"), kUdf, {}),
                      "throws_alone");
  };

  ClientSession gina = server.Connect("gina");
  RunOptions no_rewrite;  // run the jobs as written, whatever the store holds
  no_rewrite.rewrite = false;
  for (const auto& make_plan :
       {std::function<plan::Plan()>(two_job_plan),
        std::function<plan::Plan()>(one_job_plan)}) {
    // Arm the trap for the first out_schema call after Prepare's.
    trap->allowed = std::numeric_limits<int>::max();
    trap->calls = 0;
    plan::Plan probe = make_plan();
    ASSERT_TRUE(bed_->optimizer().Prepare(&probe).ok());
    trap->allowed = trap->calls.load();
    trap->calls = 0;

    const std::vector<std::string> before = server.dfs().ListPaths();
    auto run = gina.Run(make_plan(), no_rewrite);
    trap->allowed = std::numeric_limits<int>::max();
    ASSERT_FALSE(run.ok()) << make_plan().name();
    EXPECT_NE(run.status().ToString().find(
                  "job threw: injected out_schema failure"),
              std::string::npos)
        << run.status().ToString();
    EXPECT_EQ(server.dfs().ListPaths(), before);
    EXPECT_EQ(server.admission_stats().running, 0);
  }
}

TEST_F(ServingTest, AdmissionTicketsAreSequential) {
  Server& server = bed_->session().server();
  const uint64_t before = server.admission_stats().admitted;
  ClientSession erin = server.Connect("erin");
  for (int version = 1; version <= 3; ++version) {
    auto run = erin.Run(MustBuildQuery(4, version));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->admission_ticket, before + static_cast<uint64_t>(version));
  }
  const auto stats = server.admission_stats();
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.waiting, 0);
}

// --- The interleaved stress test and its serial-replay oracle ---------------

struct StressRecord {
  std::string tenant;
  int analyst = 0;
  int version = 0;
  catalog::Epoch admission_epoch = 0;
  catalog::Epoch publish_epoch = 0;
  uint64_t ticket = 0;
  uint64_t fingerprint = 0;
  std::vector<ViewUse> views_used;
};

// Eight tenants fire shuffled query streams at one Server; every query's
// output must be byte-identical to a serial replay of the recorded schedule
// (publish-epoch order, admission epochs pinned) on a fresh, identically
// seeded bed. This is the snapshot-consistency acceptance test: it can only
// pass if a query's rewrite saw exactly the views complete at its admission
// and view publication is atomic at completion.
TEST(ServerStressTest, InterleavedOutputsMatchSerialReplay) {
  const int kTenants = 8;
  int per_tenant = 13;
  if (const char* env = std::getenv("OPD_STRESS_QUERIES")) {
    per_tenant = std::max(1, std::atoi(env) / kTenants);
  }
  const size_t total = static_cast<size_t>(kTenants) * per_tenant;

  auto bed = MakeBed(TinyConfig());
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();

  // Deterministically shuffled per-tenant query streams (the randomized
  // admission order the issue asks for comes from thread interleaving on
  // top of these fixed streams).
  std::vector<std::vector<std::pair<int, int>>> streams(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    std::vector<std::pair<int, int>> all;
    while (static_cast<int>(all.size()) < per_tenant) {
      for (int a = 1; a <= workload::kNumAnalysts; ++a) {
        for (int v = 1; v <= workload::kNumVersions; ++v) {
          all.emplace_back(a, v);
        }
      }
    }
    std::mt19937 rng(1234u + static_cast<unsigned>(t));
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(per_tenant);
    streams[t] = std::move(all);
  }

  std::mutex mu;
  std::vector<StressRecord> records;
  std::vector<std::string> errors;
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ClientSession client = server.Connect("tenant" + std::to_string(t));
      for (const auto& [analyst, version] : streams[t]) {
        auto plan = workload::BuildQuery(analyst, version);
        if (!plan.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          errors.push_back(plan.status().ToString());
          continue;
        }
        auto run = client.Run(std::move(plan).value());
        std::lock_guard<std::mutex> lock(mu);
        if (!run.ok()) {
          errors.push_back(run.status().ToString());
          continue;
        }
        StressRecord rec;
        rec.tenant = run->tenant;
        rec.analyst = analyst;
        rec.version = version;
        rec.admission_epoch = run->admission_epoch;
        rec.publish_epoch = run->publish_epoch;
        rec.ticket = run->admission_ticket;
        rec.fingerprint = run->table ? TableFingerprint(*run->table) : 0;
        rec.views_used = run->views_used;
        records.push_back(std::move(rec));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_EQ(records.size(), total);
  EXPECT_EQ(server.admission_log().size(), total);
  EXPECT_EQ(server.admission_stats().admitted, total);

  // One atomic publish per query: the publish epochs are exactly 1..total.
  std::set<catalog::Epoch> epochs;
  for (const StressRecord& rec : records) epochs.insert(rec.publish_epoch);
  EXPECT_EQ(epochs.size(), total);
  EXPECT_EQ(*epochs.begin(), 1u);
  EXPECT_EQ(*epochs.rbegin(), total);

  // Snapshot consistency: every view a query scanned was complete at the
  // query's admission, and the query's own views published strictly later.
  size_t cross_tenant = 0;
  for (const StressRecord& rec : records) {
    EXPECT_LT(rec.admission_epoch, rec.publish_epoch);
    bool cross = false;
    for (const ViewUse& use : rec.views_used) {
      EXPECT_GE(use.publish_epoch, 1u);
      EXPECT_LE(use.publish_epoch, rec.admission_epoch);
      if (!use.tenant.empty() && use.tenant != rec.tenant) cross = true;
    }
    cross_tenant += cross ? 1 : 0;
  }
  // The decision log must show at least one cross-tenant view reuse.
  EXPECT_GE(cross_tenant, 1u);
  EXPECT_GE(obs::MetricsSnapshot::Capture(obs::MetricRegistry::Global())
                .counters["server.views.cross_reuse"],
            1u);

  // --- Serial replay oracle ---------------------------------------------
  std::sort(records.begin(), records.end(),
            [](const StressRecord& a, const StressRecord& b) {
              return a.publish_epoch < b.publish_epoch;
            });
  auto replay_bed = MakeBed(TinyConfig());
  ASSERT_NE(replay_bed, nullptr);
  Server& replay = replay_bed->session().server();
  for (const StressRecord& rec : records) {
    ClientSession client = replay.Connect(rec.tenant);
    RunOptions opts;
    opts.admission.pin_epoch = static_cast<int64_t>(rec.admission_epoch);
    auto run = client.Run(MustBuildQuery(rec.analyst, rec.version), opts);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->publish_epoch, rec.publish_epoch)
        << "replay of " << rec.tenant << " A" << rec.analyst << "v"
        << rec.version;
    ASSERT_NE(run->table, nullptr);
    EXPECT_EQ(TableFingerprint(*run->table), rec.fingerprint)
        << "output diverged from serial replay: " << rec.tenant << " A"
        << rec.analyst << "v" << rec.version << " @ epoch "
        << rec.publish_epoch;
  }

  // --- Query-history determinism ----------------------------------------
  // The two servers' query logs, projected onto the deterministic fields
  // (show_wall=false hides tickets, wall/queue times, and recycle hits,
  // which legitimately differ between a concurrent run and its replay),
  // must render byte-identically: Snapshot() orders by publish epoch, and
  // every remaining field is a function of the pinned epoch schedule.
  ASSERT_NE(server.query_log(), nullptr);
  ASSERT_NE(replay.query_log(), nullptr);
  EXPECT_EQ(server.query_log()->stats().appended, total);
  EXPECT_EQ(replay.query_log()->stats().appended, total);
  const server::IntrospectOptions deterministic{.show_wall = false};
  const std::string concurrent_history =
      server::RenderQueries(server.query_log()->Snapshot(), deterministic);
  const std::string replay_history =
      server::RenderQueries(replay.query_log()->Snapshot(), deterministic);
  EXPECT_EQ(concurrent_history, replay_history)
      << "query history diverged from serial replay";

  // Same for the per-record JSON, timing fields zeroed out.
  auto deterministic_json =
      [](const std::vector<std::shared_ptr<const obs::QueryRecord>>& recs) {
        std::string out;
        for (const auto& rec : recs) {
          obs::QueryRecord copy = *rec;
          copy.ticket = 0;
          copy.queue_wait_s = 0;
          copy.wall_time_s = 0;
          copy.recycle_hits = 0;
          copy.recycle_misses = 0;
          out += copy.ToJson();
          out += '\n';
        }
        return out;
      };
  EXPECT_EQ(deterministic_json(server.query_log()->Snapshot()),
            deterministic_json(replay.query_log()->Snapshot()));
}

// --- Introspection: query history, profiles, SHOW surfaces ------------------

TEST(ServerIntrospectionTest, QueryLogProfilesAndShowSurfaces) {
  auto config = TinyConfig();
  config.session.server.slow_query_threshold_s = 0.0;  // capture everything
  const std::string sink_path =
      ::testing::TempDir() + "/opd_server_history.jsonl";
  std::remove(sink_path.c_str());
  config.session.server.query_log_path = sink_path;
  auto bed = MakeBed(config);
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();
  ASSERT_NE(server.query_log(), nullptr);

  ClientSession ana = server.Connect("ana");
  auto r1 = ana.Run(MustBuildQuery(1, 1));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = ana.Run(MustBuildQuery(1, 2));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  // Records mirror the RunResults they were cut from.
  const auto records = server.query_log()->Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0]->ticket, r1->admission_ticket);
  EXPECT_EQ(records[0]->publish_epoch, r1->publish_epoch);
  EXPECT_EQ(records[0]->rows_out, r1->table->num_rows());
  EXPECT_EQ(records[0]->rows_in, r1->metrics.rows_read);
  EXPECT_GT(records[0]->rows_in, 0u);
  EXPECT_EQ(records[0]->jobs, static_cast<uint64_t>(r1->metrics.jobs));
  EXPECT_EQ(records[0]->status, "ok");
  EXPECT_EQ(records[1]->views_used, r2->views_used.size());
  EXPECT_GT(records[1]->rw_candidates, 0u);  // the rewrite search ran

  // Slow capture at threshold 0.0: every query keeps its full profile.
  const auto rec = server.query_log()->Find(r2->admission_ticket);
  ASSERT_NE(rec, nullptr);
  const auto profile = server.query_log()->FindProfile(r2->admission_ticket);
  ASSERT_TRUE(profile.has_value());
  EXPECT_NE(profile->explain_analyze.find("[job "), std::string::npos);
  EXPECT_EQ(server.query_log()->stats().slow_captured, 2u);

  // The SHOW renderings carry the load-bearing pieces.
  const std::string queries = server::RenderQueries(records);
  EXPECT_NE(queries.find("queries: 2"), std::string::npos);
  EXPECT_NE(queries.find("ana"), std::string::npos);
  const std::string rendered = server::RenderProfile(*rec, profile);
  EXPECT_NE(rendered.find("tenant=ana"), std::string::npos);
  EXPECT_NE(rendered.find("slow-query capture"), std::string::npos);
  EXPECT_NE(rendered.find("rewrite: candidates="), std::string::npos);

  const server::ServerStats stats = server.Introspect();
  EXPECT_EQ(stats.querylog.appended, 2u);
  EXPECT_EQ(stats.querylog.slow_captured, 2u);
  EXPECT_GT(stats.epoch, 0u);
  ASSERT_FALSE(stats.tenants.empty());
  const auto ana_slo =
      std::find_if(stats.tenants.begin(), stats.tenants.end(),
                   [](const server::TenantSlo& s) { return s.tenant == "ana"; });
  ASSERT_NE(ana_slo, stats.tenants.end());
  EXPECT_EQ(ana_slo->queries, 2u);
  EXPECT_GT(ana_slo->latency_p95_s, 0.0);
  const std::string stats_text = server::RenderServerStats(stats);
  EXPECT_NE(stats_text.find("server stats"), std::string::npos);
  EXPECT_NE(stats_text.find("slo"), std::string::npos);
  EXPECT_NE(stats_text.find("ana:"), std::string::npos);

  // SLO gauges refreshed on completion, in global and tenant scope alike.
  EXPECT_GT(server.TenantSnapshot("ana").gauges.at("server.slo.latency_p95"),
            0.0);

  // A failing query still leaves an (error) record.
  auto bad = ana.Run("x = scan NO_SUCH_TABLE;");
  ASSERT_FALSE(bad.ok());
  const auto after_error = server.query_log()->Snapshot();
  ASSERT_EQ(after_error.size(), 3u);
  // Failed queries never publish; their record sorts at publish_epoch 0.
  EXPECT_EQ(after_error[0]->status, "error");
  EXPECT_FALSE(after_error[0]->error.empty());
  EXPECT_EQ(after_error[0]->query, "x = scan NO_SUCH_TABLE;");

  // The JSONL sink holds one line per completion, errors included.
  std::ifstream sink(sink_path);
  ASSERT_TRUE(sink.good());
  size_t lines = 0;
  std::string line;
  while (std::getline(sink, line)) ++lines;
  EXPECT_EQ(lines, 3u);
  std::remove(sink_path.c_str());
}

TEST(ServerIntrospectionTest, QueryLogDisabledByZeroCapacity) {
  auto config = TinyConfig();
  config.session.server.query_log_capacity = 0;
  auto bed = MakeBed(config);
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();
  EXPECT_EQ(server.query_log(), nullptr);
  obs::MetricRegistry& global = obs::MetricRegistry::Global();
  const uint64_t completed_before =
      global.counter("server.queries.completed").value();
  const uint64_t published_before =
      global.counter("server.views.published").value();
  ClientSession ana = server.Connect("ana");
  auto run = ana.Run(MustBuildQuery(1, 1));
  ASSERT_TRUE(run.ok()) << run.status().ToString();  // serving unaffected

  // The counters read the query's record, which exists without the log.
  const auto published = static_cast<uint64_t>(run->metrics.views_created);
  EXPECT_GT(published, 0u);
  EXPECT_EQ(global.counter("server.queries.completed").value(),
            completed_before + 1);
  EXPECT_EQ(global.counter("server.views.published").value(),
            published_before + published);
  const obs::MetricsSnapshot ana_scope = server.TenantSnapshot("ana");
  EXPECT_EQ(ana_scope.counters.at("server.queries.completed"), 1u);
  EXPECT_EQ(ana_scope.counters.at("server.views.published"), published);
}

// SHOW SERVER STATS describes one server. Two servers in one process share
// the global metric registry, so each must count its own tenants only.
TEST(ServerIntrospectionTest, ServerStatsCountOnlyThisServersQueries) {
  auto first_bed = MakeBed(TinyConfig());
  auto second_bed = MakeBed(TinyConfig());
  ASSERT_NE(first_bed, nullptr);
  ASSERT_NE(second_bed, nullptr);
  Server& first = first_bed->session().server();
  Server& second = second_bed->session().server();
  ClientSession ana = first.Connect("ana");
  ClientSession bob = second.Connect("bob");
  ASSERT_TRUE(ana.Run(MustBuildQuery(1, 1)).ok());
  ASSERT_TRUE(bob.Run(MustBuildQuery(1, 1)).ok());
  ASSERT_TRUE(bob.Run(MustBuildQuery(2, 1)).ok());

  for (auto [server, expected] :
       {std::pair<Server*, uint64_t>{&first, 1}, {&second, 2}}) {
    const server::ServerStats stats = server->Introspect();
    EXPECT_EQ(stats.queries_completed, expected);
    EXPECT_EQ(stats.global.queries, expected);
    uint64_t views_published = 0;
    for (const auto& record : server->query_log()->Snapshot()) {
      views_published += record->views_published;
    }
    EXPECT_EQ(stats.views_published, views_published);
    ASSERT_EQ(stats.tenants.size(), 1u);
    EXPECT_EQ(stats.tenants[0].queries, expected);
    EXPECT_EQ(stats.global.latency_p50_s, stats.tenants[0].latency_p50_s);
  }
}

}  // namespace
}  // namespace opd
