// Integration tests for the MapReduce simulator: correct operator execution,
// opportunistic view materialization, metrics, and stats collection.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "exec/engine.h"
#include "exec/stats_collector.h"
#include "execute_and_publish.h"
#include "plan/plan.h"
#include "storage/dfs.h"
#include "udf/builtin_udfs.h"

namespace opd::exec {
namespace {

using afk::CmpOp;
using plan::AggFn;
using plan::AggSpec;
using plan::FilterCond;
using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(udf::RegisterBuiltinUdfs(&udfs_).ok());
    Schema schema({Column{"tweet_id", DataType::kInt64},
                   Column{"user_id", DataType::kInt64},
                   Column{"tweet_text", DataType::kString},
                   Column{"mention_user", DataType::kInt64},
                   Column{"score", DataType::kDouble}});
    auto t = std::make_shared<Table>("TWTR", schema);
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          t->AppendRow({Value(int64_t{i}), Value(int64_t{i % 6}),
                        Value(i % 2 == 0 ? "wine merlot" : "plain text"),
                        Value(int64_t{(i + 1) % 6}), Value(i * 0.1)})
              .ok());
    }
    ASSERT_TRUE(catalog_.RegisterBase(t, {"tweet_id"}, &dfs_).ok());
    plan::AnnotationContext ctx{&catalog_, &views_, &udfs_};
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        ctx, optimizer::CostModel());
    engine_ = std::make_unique<Engine>(&dfs_, optimizer_.get());
  }

  storage::TablePtr Run(plan::Plan plan) {
    auto result = testing_exec::ExecuteAndPublish(*engine_, views_, &plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    last_metrics_ = result->metrics;
    return result->table;
  }

  storage::Dfs dfs_;
  catalog::Catalog catalog_;
  catalog::ViewStore views_;
  udf::UdfRegistry udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::unique_ptr<Engine> engine_;
  ExecMetrics last_metrics_;
};

TEST_F(EngineTest, ProjectExecution) {
  auto t = Run(plan::Plan(plan::Project(plan::Scan("TWTR"), {"user_id"})));
  ASSERT_EQ(t->num_rows(), 60u);
  EXPECT_EQ(t->schema().num_columns(), 1u);
}

TEST_F(EngineTest, FilterCompareExecution) {
  auto t = Run(plan::Plan(plan::Filter(
      plan::Scan("TWTR"),
      FilterCond::Compare("user_id", CmpOp::kEq, Value(int64_t{3})))));
  EXPECT_EQ(t->num_rows(), 10u);
}

TEST_F(EngineTest, FilterOpaqueExecution) {
  // valid_geo on tweet_text: no tweet text parses as lat/lon -> empty.
  auto t = Run(plan::Plan(plan::Filter(
      plan::Scan("TWTR"), FilterCond::Opaque("valid_geo", {"tweet_text"}))));
  EXPECT_EQ(t->num_rows(), 0u);
}

TEST_F(EngineTest, GroupByCountSumAvgMinMax) {
  auto t = Run(plan::Plan(plan::GroupBy(
      plan::Scan("TWTR"), {"user_id"},
      {AggSpec{AggFn::kCount, "", "cnt"}, AggSpec{AggFn::kSum, "score", "s"},
       AggSpec{AggFn::kAvg, "score", "avg"},
       AggSpec{AggFn::kMin, "score", "mn"},
       AggSpec{AggFn::kMax, "score", "mx"}})));
  ASSERT_EQ(t->num_rows(), 6u);
  // Groups ordered by key; user 0 has tweets 0,6,...,54.
  const storage::Row row = t->ToRows()[0];
  EXPECT_EQ(row[0].as_int64(), 0);
  EXPECT_EQ(row[1].as_int64(), 10);
  EXPECT_NEAR(row[2].as_double(), 27.0, 1e-9);  // 0+0.6+...+5.4
  EXPECT_NEAR(row[3].as_double(), 2.7, 1e-9);
  EXPECT_NEAR(row[4].as_double(), 0.0, 1e-9);
  EXPECT_NEAR(row[5].as_double(), 5.4, 1e-9);
}

TEST_F(EngineTest, JoinExecution) {
  auto counts = plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                              {AggSpec{AggFn::kCount, "", "cnt"}});
  auto wine = plan::Udf(
      plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"}),
      "UDF_CLASSIFY_WINE_SCORE", {{"threshold", Value(0.1)}});
  auto t = Run(plan::Plan(plan::Join(wine, counts, {{"user_id", "user_id"}})));
  // Tweet parity aligns with user parity (i % 2 vs i % 6): exactly the three
  // even users tweet wine and pass threshold 0.1.
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->schema().num_columns(), 3u);  // user_id, wine_score, cnt
}

TEST_F(EngineTest, JoinPreservesMultiplicity) {
  // Join base rows (6 users x 10 rows) with per-user counts: 60 rows out.
  auto counts = plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                              {AggSpec{AggFn::kCount, "", "cnt"}});
  auto t = Run(plan::Plan(plan::Join(
      plan::Project(plan::Scan("TWTR"), {"tweet_id", "user_id"}), counts,
      {{"user_id", "user_id"}})));
  EXPECT_EQ(t->num_rows(), 60u);
}

// The engine never publishes: a two-job run leaves the view store
// untouched and hands one pending view per job back to the caller.
TEST_F(EngineTest, ExecuteNeverPublishes) {
  const size_t size_before = views_.size();
  const catalog::Epoch epoch_before = views_.epoch();
  plan::Plan plan(plan::GroupBy(
      plan::Project(plan::Scan("TWTR"), {"user_id"}), {"user_id"},
      {AggSpec{AggFn::kCount, "", "cnt"}}));
  auto result = engine_->Execute(&plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(views_.size(), size_before);
  EXPECT_EQ(views_.epoch(), epoch_before);
  ASSERT_EQ(result->jobs.size(), 2u);
  EXPECT_EQ(result->pending_views.size(), result->jobs.size());
  EXPECT_EQ(result->metrics.views_created, 0);
}

TEST_F(EngineTest, EveryJobMaterializesAView) {
  Run(plan::Plan(plan::GroupBy(
      plan::Project(plan::Scan("TWTR"), {"user_id"}), {"user_id"},
      {AggSpec{AggFn::kCount, "", "cnt"}})));
  // Two jobs -> two opportunistic views.
  EXPECT_EQ(last_metrics_.jobs, 2);
  EXPECT_EQ(last_metrics_.views_created, 2);
  EXPECT_EQ(views_.size(), 2u);
  // Each view's data exists in the DFS.
  for (const auto* def : views_.All()) {
    EXPECT_TRUE(dfs_.Exists(def->dfs_path));
    EXPECT_FALSE(def->fingerprint.empty());
  }
}

TEST_F(EngineTest, DuplicateViewsAreDeduplicated) {
  plan::Plan p1(plan::Project(plan::Scan("TWTR"), {"user_id"}));
  Run(std::move(p1));
  EXPECT_EQ(views_.size(), 1u);
  plan::Plan p2(plan::Project(plan::Scan("TWTR"), {"user_id"}));
  Run(std::move(p2));
  EXPECT_EQ(views_.size(), 1u);  // same AFK -> deduplicated
}

TEST_F(EngineTest, MetricsAccounting) {
  Run(plan::Plan(plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                               {AggSpec{AggFn::kCount, "", "cnt"}})));
  EXPECT_GT(last_metrics_.sim_time_s, 0.0);
  EXPECT_GT(last_metrics_.bytes_read, 0u);
  EXPECT_GT(last_metrics_.bytes_shuffled, 0u);  // group-by shuffles
  EXPECT_GT(last_metrics_.bytes_written, 0u);
  EXPECT_GT(last_metrics_.stats_time_s, 0.0);  // stats job ran
}

TEST_F(EngineTest, MapOnlyPlanDoesNotShuffle) {
  Run(plan::Plan(plan::Project(plan::Scan("TWTR"), {"user_id"})));
  EXPECT_EQ(last_metrics_.bytes_shuffled, 0u);
}

TEST_F(EngineTest, ScanOfViewExecutes) {
  Run(plan::Plan(plan::Project(plan::Scan("TWTR"), {"user_id"})));
  ASSERT_EQ(views_.size(), 1u);
  catalog::ViewId id = views_.All()[0]->id;
  auto t = Run(plan::Plan(plan::ScanView(id)));
  EXPECT_EQ(t->num_rows(), 60u);
}

TEST_F(EngineTest, RewrittenEquivalentPlansProduceSameResult) {
  // Execute a filtered group-by; then execute "view + extra filter" and
  // compare results row-for-row.
  plan::Plan orig(plan::Filter(
      plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                    {AggSpec{AggFn::kCount, "", "cnt"}}),
      FilterCond::Compare("cnt", CmpOp::kGt, Value(5.0))));
  auto orig_result = Run(std::move(orig));

  // The group-by view was materialized; filter it.
  catalog::ViewId group_view = -1;
  for (const auto* def : views_.All()) {
    if (def->schema.Has("cnt") && def->schema.num_columns() == 2) {
      group_view = def->id;
      break;
    }
  }
  ASSERT_GE(group_view, 0);
  plan::Plan rewr(plan::Filter(
      plan::ScanView(group_view),
      FilterCond::Compare("cnt", CmpOp::kGt, Value(5.0))));
  auto rewr_result = Run(std::move(rewr));
  ASSERT_EQ(orig_result->num_rows(), rewr_result->num_rows());
  EXPECT_EQ(orig_result->ToRows(), rewr_result->ToRows());
}

TEST(StatsCollectorTest, EstimatesRowsExactly) {
  Schema schema({Column{"x", DataType::kInt64}});
  Table t("t", schema);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{i % 10})}).ok());
  }
  StatsCollector collector(0.1, 42);
  catalog::TableStats stats = collector.Collect(t);
  EXPECT_DOUBLE_EQ(stats.rows, 5000.0);
  // x has 10 distinct values; the sample saturates.
  EXPECT_NEAR(stats.DistinctOr("x", 0), 10.0, 2.0);
  EXPECT_NEAR(stats.ColBytesOr("x", 0), 8.0, 0.1);
}

TEST(StatsCollectorTest, HighCardinalityScalesUp) {
  Schema schema({Column{"x", DataType::kInt64}});
  Table t("t", schema);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{i})}).ok());
  }
  StatsCollector collector(0.1, 42);
  catalog::TableStats stats = collector.Collect(t);
  EXPECT_GT(stats.DistinctOr("x", 0), 2500.0);
}

TEST(StatsCollectorTest, JobTimeIsSmallFractionOfFullScan) {
  Schema schema({Column{"x", DataType::kInt64}});
  Table t("t", schema);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{i})}).ok());
  }
  StatsCollector collector(0.05, 42);
  optimizer::CostModel model;
  double stats_time = collector.JobTime(t, model);
  double full_read = model.ReadCost(static_cast<double>(t.ByteSize()));
  // Stats cost is latency-dominated but its I/O share is 5% of a full read.
  EXPECT_LT(stats_time - model.job_latency(), full_read);
}

}  // namespace
}  // namespace opd::exec
