// Tests for the view advisor and DFS persistence, plus failure-injection
// tests for the engine under constrained storage.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "catalog/eviction.h"
#include "rewrite/advisor.h"
#include "udf/builtin_udfs.h"
#include "storage/persistence.h"
#include "workload/scenarios.h"

namespace opd {
namespace {

workload::TestBedConfig SmallConfig() {
  workload::TestBedConfig config;
  config.data.n_tweets = 1500;
  config.data.n_checkins = 800;
  config.data.n_locations = 150;
  config.calibrate_udfs = false;
  return config;
}

// --- Advisor -----------------------------------------------------------------

TEST(AdvisorTest, RanksViewsByBenefit) {
  auto bed = workload::TestBed::Create(SmallConfig()).value();
  ASSERT_TRUE(bed->RunOriginal(1, 1).ok());
  ASSERT_TRUE(bed->RunOriginal(2, 1).ok());

  std::vector<plan::Plan> queries;
  for (int version = 2; version <= 4; ++version) {
    queries.push_back(workload::BuildQuery(1, version).value());
    queries.push_back(workload::BuildQuery(2, version).value());
  }
  rewrite::ViewAdvisor advisor(&bed->optimizer(), &bed->views());
  auto report = advisor.Analyze(&queries);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->queries_total, 6);
  EXPECT_GT(report->queries_improved, 0);
  EXPECT_GT(report->total_benefit_s, 0.0);
  ASSERT_FALSE(report->ranking.empty());
  // Ranking is sorted descending by benefit.
  for (size_t i = 1; i < report->ranking.size(); ++i) {
    EXPECT_GE(report->ranking[i - 1].total_benefit_s,
              report->ranking[i].total_benefit_s);
  }
  // Every ranked view was actually used by >= 1 query.
  for (const auto& score : report->ranking) {
    EXPECT_GE(score.queries_helped, 1);
    // Some views are legitimately empty at this tiny scale (selective
    // filters); bytes is only required to be populated from the store.
    auto def = bed->views().Find(score.id);
    ASSERT_TRUE(def.ok());
    EXPECT_EQ(score.bytes, (*def)->bytes);
  }
  // Used + unused partitions the store.
  EXPECT_EQ(report->ranking.size() + report->unused.size(),
            bed->views().size());
  // The human-readable rendering mentions the top view.
  std::string text = report->ToString(bed->views());
  EXPECT_NE(text.find("view ranking"), std::string::npos);
}

TEST(AdvisorTest, EmptyStoreYieldsNoBenefit) {
  auto bed = workload::TestBed::Create(SmallConfig()).value();
  std::vector<plan::Plan> queries;
  queries.push_back(workload::BuildQuery(1, 1).value());
  rewrite::ViewAdvisor advisor(&bed->optimizer(), &bed->views());
  auto report = advisor.Analyze(&queries);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_improved, 0);
  EXPECT_DOUBLE_EQ(report->total_benefit_s, 0.0);
  EXPECT_TRUE(report->ranking.empty());
}

TEST(AdvisorTest, AgreesWithEvictionOrdering) {
  // Views the advisor ranks highly should survive cost-benefit eviction
  // once their benefits are recorded.
  auto bed = workload::TestBed::Create(SmallConfig()).value();
  ASSERT_TRUE(bed->RunOriginal(2, 1).ok());
  std::vector<plan::Plan> queries = {workload::BuildQuery(2, 2).value()};
  rewrite::ViewAdvisor advisor(&bed->optimizer(), &bed->views());
  auto report = advisor.Analyze(&queries);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->ranking.empty());
  for (const auto& score : report->ranking) {
    ASSERT_TRUE(
        bed->views().RecordAccess(score.id, score.total_benefit_s).ok());
  }
  catalog::ViewRetention retention(&bed->views(), &bed->dfs(),
                                   {1, catalog::EvictionPolicy::kCostBenefit});
  auto order = retention.EvictionOrder();
  // The advisor's top view is evicted last (or close to it).
  catalog::ViewId top = report->ranking.front().id;
  size_t position = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == top) position = i;
  }
  EXPECT_GT(position, order.size() / 2);
}

// --- Persistence ---------------------------------------------------------------

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("opd_persist_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PersistenceTest, SchemaSpecRoundTrip) {
  storage::Schema schema(
      {storage::Column{"a", storage::DataType::kInt64},
       storage::Column{"b", storage::DataType::kString},
       storage::Column{"c", storage::DataType::kDouble},
       storage::Column{"d", storage::DataType::kBool}});
  auto parsed = storage::ParseSchemaSpec(storage::SchemaSpec(schema));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed == schema);
  EXPECT_FALSE(storage::ParseSchemaSpec("x:unknown_type").ok());
  EXPECT_FALSE(storage::ParseSchemaSpec("novalue").ok());
}

TEST_F(PersistenceTest, DfsRoundTrip) {
  storage::Dfs dfs;
  storage::Schema schema({storage::Column{"id", storage::DataType::kInt64},
                          storage::Column{"txt", storage::DataType::kString}});
  auto t = std::make_shared<storage::Table>("demo", schema);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(t->AppendRow({storage::Value(int64_t{i}),
                              storage::Value("row " + std::to_string(i))})
                    .ok());
  }
  ASSERT_TRUE(dfs.Write("base/demo", t).ok());
  ASSERT_TRUE(dfs.Write("views/run0/job1", t).ok());

  ASSERT_TRUE(storage::SaveDfs(dfs, dir_.string()).ok());
  auto loaded = storage::LoadDfs(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ListPaths(), dfs.ListPaths());
  auto reread = loaded->Read("views/run0/job1");
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ((*reread)->num_rows(), 25u);
  EXPECT_EQ((*reread)->ToRows()[7][1].as_string(), "row 7");
  EXPECT_TRUE((*reread)->schema() == schema);
}

TEST_F(PersistenceTest, LoadMissingDirectoryFails) {
  auto loaded = storage::LoadDfs((dir_ / "nope").string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(PersistenceTest, WholeTestBedDfsRoundTrips) {
  auto bed = workload::TestBed::Create(SmallConfig()).value();
  ASSERT_TRUE(bed->RunOriginal(1, 1).ok());
  ASSERT_TRUE(storage::SaveDfs(bed->dfs(), dir_.string()).ok());
  auto loaded = storage::LoadDfs(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ListPaths().size(), bed->dfs().ListPaths().size());
  // Byte sizes survive (modulo double rendering noise on text columns).
  for (const std::string& path : bed->dfs().ListPaths()) {
    auto a = bed->dfs().Peek(path);
    auto b = loaded->Peek(path);
    ASSERT_TRUE(a.ok() && b.ok()) << path;
    EXPECT_EQ((*a)->num_rows(), (*b)->num_rows()) << path;
  }
}

// --- Failure injection -----------------------------------------------------------

TEST(FailureInjectionTest, EngineSurfacesDfsCapacityExhaustion) {
  // A DFS too small for the intermediate materializations: execution must
  // fail with kOutOfRange, not crash or truncate silently.
  udf::UdfRegistry udfs;
  ASSERT_TRUE(udf::RegisterBuiltinUdfs(&udfs).ok());
  storage::Schema schema(
      {storage::Column{"tweet_id", storage::DataType::kInt64},
       storage::Column{"user_id", storage::DataType::kInt64},
       storage::Column{"tweet_text", storage::DataType::kString}});
  auto t = std::make_shared<storage::Table>("TWTR", schema);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t->AppendRow({storage::Value(int64_t{i}),
                              storage::Value(int64_t{i % 5}),
                              storage::Value("some words to copy around")})
                    .ok());
  }
  storage::Dfs dfs(t->ByteSize() + 512);  // base fits, views don't
  catalog::Catalog cat;
  ASSERT_TRUE(cat.RegisterBase(t, {"tweet_id"}, &dfs).ok());
  catalog::ViewStore views;
  plan::AnnotationContext ctx{&cat, &views, &udfs};
  optimizer::Optimizer optimizer(ctx, optimizer::CostModel());
  exec::Engine engine(&dfs, &optimizer);

  plan::Plan p(plan::Project(plan::Scan("TWTR"),
                             {"tweet_id", "user_id", "tweet_text"}));
  auto result = engine.Execute(&p);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(FailureInjectionTest, ScanOfDroppedViewFails) {
  auto bed = workload::TestBed::Create(SmallConfig()).value();
  ASSERT_TRUE(bed->RunOriginal(1, 1).ok());
  ASSERT_GT(bed->views().size(), 0u);
  catalog::ViewId id = bed->views().All()[0]->id;
  std::string path = bed->views().All()[0]->dfs_path;
  // Metadata says the view exists but the data file is gone.
  ASSERT_TRUE(bed->dfs().Delete(path).ok());
  plan::Plan p(plan::ScanView(id));
  auto result = bed->engine().Execute(&p);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FailureInjectionTest, RewriterUnaffectedByMissingUnrelatedViews) {
  // Dropping an unrelated view's data must not break rewrites that do not
  // touch it (search is metadata-only; execution reads the chosen views).
  auto bed = workload::TestBed::Create(SmallConfig()).value();
  ASSERT_TRUE(bed->RunOriginal(3, 1).ok());  // geo lineage (unrelated)
  ASSERT_TRUE(bed->RunOriginal(1, 1).ok());  // wine lineage
  // Remove a geo view's data file.
  for (const auto* def : bed->views().All()) {
    if (def->producer == "A3v1") {
      ASSERT_TRUE(bed->dfs().Delete(def->dfs_path).ok());
      break;
    }
  }
  auto rewr = bed->RunRewritten(1, 3);
  ASSERT_TRUE(rewr.ok()) << rewr.status().ToString();
  EXPECT_TRUE(rewr->outcome.improved);
}

}  // namespace
}  // namespace opd
