// Smoke tests for the experiment scenario drivers (the code behind the
// fig*/table* benches), at a tiny data scale.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "workload/scenarios.h"

namespace opd::workload {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestBedConfig config;
    config.data.n_tweets = 800;
    config.data.n_checkins = 500;
    config.data.n_locations = 120;
    config.data.n_users = 80;
    config.calibrate_udfs = false;
    auto result = TestBed::Create(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bed_ = std::move(result).value().release();
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }

  static TestBed* bed_;
};

TestBed* ScenarioTest::bed_ = nullptr;

TEST_F(ScenarioTest, QueryEvolutionCoversAllVersions) {
  auto rows = RunQueryEvolution(bed_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(),
            static_cast<size_t>(kNumAnalysts * kNumVersions));
  double improved = 0;
  for (const auto& row : *rows) {
    EXPECT_GE(row.analyst, 1);
    EXPECT_LE(row.analyst, kNumAnalysts);
    EXPECT_GT(row.orig_time_s, 0.0);
    EXPECT_GT(row.rewr_time_s, 0.0);
    EXPECT_GT(row.orig_gb, 0.0);
    if (row.version > 1 && row.ImprovementPct() > 10) improved += 1;
  }
  // Even at toy scale, most revisions should find reuse.
  EXPECT_GE(improved, kNumAnalysts);
}

TEST_F(ScenarioTest, UserEvolutionOneRowPerHoldout) {
  auto rows = RunUserEvolution(bed_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), static_cast<size_t>(kNumAnalysts));
  for (const auto& row : *rows) {
    EXPECT_EQ(row.version, 1);
    EXPECT_LE(row.rewr_time_s, row.orig_time_s * 1.15)
        << "holdout A" << row.analyst;
  }
}

TEST_F(ScenarioTest, UserEvolutionWithDroppedIdenticalViews) {
  auto rows = RunUserEvolution(bed_, /*drop_identical_views=*/true);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), static_cast<size_t>(kNumAnalysts));
  // With identical views gone, improvements are weakly smaller than with
  // them; mainly this must not crash or corrupt results.
}

TEST_F(ScenarioTest, AnalystAccumulationMonotoneShape) {
  auto improvements = RunAnalystAccumulation(bed_);
  ASSERT_TRUE(improvements.ok()) << improvements.status().ToString();
  ASSERT_EQ(improvements->size(), 8u);
  EXPECT_DOUBLE_EQ(improvements->front(), 0.0);
  for (double v : *improvements) {
    EXPECT_GE(v, -5.0);
    EXPECT_LE(v, 100.0);
  }
  // Rolling back a measured run also deletes its views' DFS files: every
  // view file left belongs to a live view.
  std::set<std::string> live;
  for (const catalog::ViewDefinition* view : bed_->views().All()) {
    live.insert(view->dfs_path);
  }
  for (const std::string& path : bed_->dfs().ListPaths()) {
    if (path.starts_with("views/")) {
      EXPECT_TRUE(live.count(path) > 0) << "orphaned " << path;
    }
  }
}

}  // namespace
}  // namespace opd::workload
