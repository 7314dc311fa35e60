// Tests for the synthetic data generators and the 8x4 analyst workload.

#include <gtest/gtest.h>

#include <set>

#include "plan/annotate.h"
#include "plan/fingerprint.h"
#include "udf/builtin_udfs.h"
#include "workload/datagen.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

namespace opd::workload {
namespace {

TEST(DataGenTest, TwitterLogShape) {
  DataGenConfig config;
  config.n_tweets = 1000;
  auto t = GenerateTwitterLog(config);
  EXPECT_EQ(t->name(), "TWTR");
  EXPECT_EQ(t->num_rows(), 1000u);
  ASSERT_TRUE(t->schema().Has("tweet_id"));
  ASSERT_TRUE(t->schema().Has("user_id"));
  ASSERT_TRUE(t->schema().Has("tweet_text"));
  ASSERT_TRUE(t->schema().Has("mention_user"));
  ASSERT_TRUE(t->schema().Has("geo"));
  ASSERT_TRUE(t->schema().Has("raw_meta"));
  // Wide log: more columns than any query consumes.
  EXPECT_GE(t->schema().num_columns(), 10u);
}

TEST(DataGenTest, Deterministic) {
  DataGenConfig config;
  config.n_tweets = 200;
  auto a = GenerateTwitterLog(config);
  auto b = GenerateTwitterLog(config);
  ASSERT_EQ(a->num_rows(), b->num_rows());
  EXPECT_EQ(a->ToRows(), b->ToRows());
}

TEST(DataGenTest, DifferentSeedsDiffer) {
  DataGenConfig c1, c2;
  c1.n_tweets = c2.n_tweets = 200;
  c2.seed = c1.seed + 1;
  auto a = GenerateTwitterLog(c1);
  auto b = GenerateTwitterLog(c2);
  EXPECT_NE(a->ToRows(), b->ToRows());
}

TEST(DataGenTest, MentionsCreateRepeatedPairs) {
  DataGenConfig config;
  config.n_tweets = 2000;
  auto t = GenerateTwitterLog(config);
  size_t uid = *t->schema().IndexOf("user_id");
  size_t mid = *t->schema().IndexOf("mention_user");
  std::map<std::pair<int64_t, int64_t>, int> pair_counts;
  for (const auto& row : t->ToRows()) {
    int64_t m = row[mid].as_int64();
    if (m < 0) continue;
    int64_t u = row[uid].as_int64();
    pair_counts[{std::min(u, m), std::max(u, m)}]++;
  }
  EXPECT_GT(pair_counts.size(), 10u);
  int max_count = 0;
  for (const auto& [_, c] : pair_counts) max_count = std::max(max_count, c);
  // Friendship-strength thresholds need repeated pairs.
  EXPECT_GE(max_count, 3);
}

TEST(DataGenTest, SomeGeoValidSomeNot) {
  DataGenConfig config;
  config.n_tweets = 500;
  auto t = GenerateTwitterLog(config);
  size_t gi = *t->schema().IndexOf("geo");
  int valid = 0, invalid = 0;
  for (const auto& row : t->ToRows()) {
    double lat, lon;
    if (udf::ParseLatLon(row[gi].as_string(), &lat, &lon)) {
      ++valid;
    } else {
      ++invalid;
    }
  }
  EXPECT_GT(valid, 100);
  EXPECT_GT(invalid, 50);
}

TEST(DataGenTest, LandmarksHaveCategoriesAndMenus) {
  DataGenConfig config;
  config.n_locations = 300;
  auto t = GenerateLandmarks(config);
  EXPECT_EQ(t->num_rows(), 300u);
  size_t ci = *t->schema().IndexOf("category");
  size_t mi = *t->schema().IndexOf("menu_text");
  std::set<std::string> categories;
  int menus = 0;
  for (const auto& row : t->ToRows()) {
    categories.insert(row[ci].as_string());
    if (!row[mi].as_string().empty()) ++menus;
  }
  EXPECT_TRUE(categories.count("wine_bar"));
  EXPECT_TRUE(categories.count("restaurant"));
  EXPECT_GT(menus, 50);
}

TEST(DataGenTest, CheckinsReferenceValidEntities) {
  DataGenConfig config;
  config.n_checkins = 500;
  auto t = GenerateFoursquareLog(config);
  size_t ui = *t->schema().IndexOf("user_id");
  size_t li = *t->schema().IndexOf("location_id");
  for (const auto& row : t->ToRows()) {
    EXPECT_GE(row[ui].as_int64(), 0);
    EXPECT_LT(row[ui].as_int64(),
              static_cast<int64_t>(config.n_users));
    EXPECT_GE(row[li].as_int64(), 0);
    EXPECT_LT(row[li].as_int64(),
              static_cast<int64_t>(config.n_locations));
  }
}

// All 32 workload queries must build and annotate.
class WorkloadQueries : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadQueries, BuildsAndAnnotates) {
  static std::unique_ptr<TestBed> bed = [] {
    TestBedConfig config;
    config.data.n_tweets = 500;
    config.data.n_checkins = 300;
    config.data.n_locations = 100;
    config.calibrate_udfs = false;
    auto result = TestBed::Create(config);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  int analyst = GetParam() / 10;
  int version = GetParam() % 10;
  auto plan = BuildQuery(analyst, version);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->name(), "A" + std::to_string(analyst) + "v" +
                              std::to_string(version));
  plan::Plan p = std::move(plan).value();
  ASSERT_TRUE(bed->optimizer().Prepare(&p).ok())
      << "annotation failed for " << p.name();
  // Every query uses at least one UDF (Section 8.1).
  bool has_udf = false;
  size_t jobs = 0;
  for (const auto& node : p.TopoOrder()) {
    if (node->kind == plan::OpKind::kUdf) has_udf = true;
    if (node->kind != plan::OpKind::kScan) ++jobs;
  }
  EXPECT_TRUE(has_udf) << p.name() << " has no UDF";
  EXPECT_GE(jobs, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, WorkloadQueries,
    ::testing::Values(11, 12, 13, 14, 21, 22, 23, 24, 31, 32, 33, 34, 41, 42,
                      43, 44, 51, 52, 53, 54, 61, 62, 63, 64, 71, 72, 73, 74,
                      81, 82, 83, 84),
    [](const ::testing::TestParamInfo<int>& info) {
      return "A" + std::to_string(info.param / 10) + "v" +
             std::to_string(info.param % 10);
    });

TEST(WorkloadTest, InvalidQueryIdsRejected) {
  EXPECT_FALSE(BuildQuery(0, 1).ok());
  EXPECT_FALSE(BuildQuery(9, 1).ok());
  EXPECT_FALSE(BuildQuery(1, 0).ok());
  EXPECT_FALSE(BuildQuery(1, 5).ok());
}

TEST(WorkloadTest, QueriesAreDeterministic) {
  auto p1 = BuildQuery(1, 2);
  auto p2 = BuildQuery(1, 2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(plan::Fingerprint(p1->root()), plan::Fingerprint(p2->root()));
}

TEST(WorkloadTest, VersionsDiffer) {
  for (int analyst = 1; analyst <= kNumAnalysts; ++analyst) {
    std::set<std::string> prints;
    for (int version = 1; version <= kNumVersions; ++version) {
      auto p = BuildQuery(analyst, version);
      ASSERT_TRUE(p.ok());
      prints.insert(plan::Fingerprint(p->root()));
    }
    EXPECT_EQ(prints.size(), static_cast<size_t>(kNumVersions))
        << "analyst " << analyst << " has duplicate versions";
  }
}

}  // namespace
}  // namespace opd::workload
