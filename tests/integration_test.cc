// End-to-end integration tests over the full system: TestBed setup,
// scenario drivers, and — most importantly — result equivalence between
// original and rewritten query executions across the whole workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "plan/job.h"
#include "rewrite/decision_log.h"
#include "rewrite/guess_complete.h"
#include "rewrite/merge.h"
#include "rewrite/rewrite_enum.h"
#include "workload/scenarios.h"

namespace opd::workload {
namespace {

TestBedConfig SmallConfig() {
  TestBedConfig config;
  config.data.n_tweets = 2500;
  config.data.n_checkins = 1500;
  config.data.n_locations = 250;
  config.data.n_users = 120;
  return config;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = TestBed::Create(SmallConfig());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bed_ = std::move(result).value().release();
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }
  void SetUp() override { bed_->DropAllViews(); }

  static std::vector<storage::Row> SortedRows(const storage::TablePtr& t) {
    std::vector<storage::Row> rows = t->ToRows();
    std::sort(rows.begin(), rows.end(),
              [](const storage::Row& a, const storage::Row& b) {
                for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                  if (a[i] < b[i]) return true;
                  if (b[i] < a[i]) return false;
                }
                return a.size() < b.size();
              });
    return rows;
  }

  static TestBed* bed_;
};

TestBed* IntegrationTest::bed_ = nullptr;

// Every "views/" file in the DFS belongs to a live view.
void ExpectNoOrphanViewFiles(TestBed& bed) {
  std::set<std::string> live;
  for (const catalog::ViewDefinition* view : bed.views().All()) {
    live.insert(view->dfs_path);
  }
  for (const std::string& path : bed.dfs().ListPaths()) {
    if (path.starts_with("views/")) {
      EXPECT_TRUE(live.count(path) > 0) << "orphaned " << path;
    }
  }
}

TEST_F(IntegrationTest, TestBedWiring) {
  EXPECT_TRUE(bed_->catalog().Has("TWTR"));
  EXPECT_TRUE(bed_->catalog().Has("FSQ"));
  EXPECT_TRUE(bed_->catalog().Has("LAND"));
  EXPECT_GE(bed_->udfs().size(), 10u);
  // data_scale derived so TWTR models 800 GB.
  const auto& params = bed_->optimizer().cost_model().params();
  EXPECT_GT(params.data_scale, 1.0);
}

TEST_F(IntegrationTest, CalibrationSetScalars) {
  auto wine = bed_->udfs().Find("UDF_CLASSIFY_WINE_SCORE");
  ASSERT_TRUE(wine.ok());
  EXPECT_TRUE((*wine)->calibrated_expansion.has_value());
  EXPECT_GE((*wine)->map_scalar, 1.0);
}

TEST_F(IntegrationTest, OriginalRunRetainsViews) {
  auto result = bed_->RunOriginal(1, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->metrics.jobs, 3);
  EXPECT_EQ(result->metrics.views_created,
            static_cast<int>(bed_->views().size()));
  EXPECT_GT(bed_->views().size(), 3u);
}

TEST_F(IntegrationTest, RewrittenRunImprovesSecondVersion) {
  ASSERT_TRUE(bed_->RunOriginal(2, 1).ok());
  auto rewr = bed_->RunRewritten(2, 2);
  ASSERT_TRUE(rewr.ok()) << rewr.status().ToString();
  EXPECT_TRUE(rewr->outcome.improved);
  auto orig = bed_->RunOriginal(2, 2);
  ASSERT_TRUE(orig.ok());
  EXPECT_LT(rewr->TotalTime(), orig->metrics.sim_time_s);
}

// The fundamental correctness property: for every query version, the
// BFR-rewritten plan computes exactly the same result as the original.
class RewriteEquivalence : public IntegrationTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(RewriteEquivalence, OriginalAndRewrittenResultsMatch) {
  const int analyst = GetParam();
  // Build up views from v1..v3 executions, then check v2..v4 equivalence.
  for (int version = 1; version <= kNumVersions; ++version) {
    auto rewr = bed_->RunRewritten(analyst, version);
    ASSERT_TRUE(rewr.ok()) << "A" << analyst << "v" << version << ": "
                           << rewr.status().ToString();
    auto orig = bed_->RunOriginal(analyst, version);
    ASSERT_TRUE(orig.ok());
    auto orig_rows = SortedRows(orig->table);
    auto rewr_rows = SortedRows(rewr->exec.table);
    ASSERT_EQ(orig_rows.size(), rewr_rows.size())
        << "A" << analyst << "v" << version << " row count mismatch";
    EXPECT_EQ(orig_rows, rewr_rows)
        << "A" << analyst << "v" << version << " content mismatch";
  }
}

INSTANTIATE_TEST_SUITE_P(AllAnalysts, RewriteEquivalence,
                         ::testing::Range(1, kNumAnalysts + 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "A" + std::to_string(info.param);
                         });

TEST_F(IntegrationTest, DpAndBfrAgreeOnWorkloadQueries) {
  ASSERT_TRUE(bed_->RunOriginal(1, 1).ok());
  ASSERT_TRUE(bed_->RunOriginal(4, 1).ok());
  for (int version = 2; version <= 3; ++version) {
    auto qb = BuildQuery(1, version);
    ASSERT_TRUE(qb.ok());
    plan::Plan pb = std::move(qb).value();
    auto bfr = bed_->bfr().Rewrite(&pb);
    ASSERT_TRUE(bfr.ok());
    auto qd = BuildQuery(1, version);
    plan::Plan pd = std::move(qd).value();
    auto dp = bed_->dp().Rewrite(&pd);
    ASSERT_TRUE(dp.ok());
    EXPECT_FALSE(dp->stats.budget_exceeded) << "version " << version;
    EXPECT_NEAR(bfr->est_cost, dp->est_cost, 1e-6 * (1 + dp->est_cost))
        << "version " << version;
    EXPECT_LE(bfr->stats.candidates_considered,
              dp->stats.candidates_considered);
  }
}

// Property (paper Section 4.1) at workload scale: GUESSCOMPLETE "will never
// result in a false negative". Over the rewriter ablation's store (every
// analyst's v1 and v2, executed) and every target of the 32 workload
// queries, each single view and each two-view merge MergeUseful accepts
// that REWRITEENUM can rewrite with must have passed GUESSCOMPLETE.
TEST_F(IntegrationTest, GuessCompleteHasNoFalseNegativesOnWorkloadStore) {
  for (int a = 1; a <= kNumAnalysts; ++a) {
    ASSERT_TRUE(bed_->RunOriginal(a, 1).ok());
    ASSERT_TRUE(bed_->RunOriginal(a, 2).ok());
  }
  const catalog::ViewSnapshot snapshot = bed_->views().Snapshot();
  rewrite::EnumDeps deps;
  deps.optimizer = &bed_->optimizer();
  deps.views = &snapshot;
  deps.udfs = &bed_->udfs();
  size_t merges = 0, rewrites = 0, merge_rewrites = 0;
  for (int a = 1; a <= kNumAnalysts; ++a) {
    for (int v = 1; v <= kNumVersions; ++v) {
      plan::Plan q = *BuildQuery(a, v);
      ASSERT_TRUE(bed_->optimizer().Prepare(&q).ok());
      auto dag = plan::JobDag::Build(q);
      ASSERT_TRUE(dag.ok()) << dag.status().ToString();
      for (size_t i = 0; i < dag->size(); ++i) {
        const auto setup = rewrite::MakeTargetSetup(dag->job(i).op);
        const rewrite::TargetContext& target = setup->target;
        const std::vector<std::string>& useful = setup->useful_sigs;
        std::vector<rewrite::CandidateView> candidates;
        for (const catalog::ViewDefinition* def : snapshot.All()) {
          candidates.push_back(rewrite::MakeBaseCandidate(*def));
          candidates.back().coverage =
              rewrite::ComputeCoverage(candidates.back().afk, useful);
        }
        const size_t num_singles = candidates.size();
        for (size_t x = 0; x < num_singles; ++x) {
          for (size_t y = x + 1; y < num_singles; ++y) {
            auto merged =
                rewrite::MergeUseful(candidates[x], candidates[y], 2);
            if (merged.has_value()) candidates.push_back(std::move(*merged));
          }
        }
        merges += candidates.size() - num_singles;
        for (const rewrite::CandidateView& c : candidates) {
          if (!rewrite::RewriteEnum(*setup, c, deps).has_value()) continue;
          ++rewrites;
          if (c.NumParts() == 2) ++merge_rewrites;
          EXPECT_TRUE(rewrite::GuessComplete(target.afk, c.afk))
              << "false negative: " << rewrite::CandidateId(c.parts)
              << " rewrote target " << i << " of A" << a << "v" << v
              << "\n  target " << target.afk.ToString() << "\n  view "
              << c.afk.ToString();
        }
      }
    }
  }
  // The property was exercised on merges, not only on single views.
  EXPECT_GT(merges, 0u);
  EXPECT_GT(rewrites, merge_rewrites);
  EXPECT_GT(merge_rewrites, 0u);
}

TEST_F(IntegrationTest, ViewStorageStaysBounded) {
  // Paper Section 10: accumulating all views cost about 2x the base data.
  for (int analyst = 1; analyst <= 4; ++analyst) {
    ASSERT_TRUE(bed_->RunOriginal(analyst, 1).ok());
  }
  uint64_t base_bytes = 0;
  for (const auto& name : bed_->catalog().Names()) {
    auto entry = bed_->catalog().Find(name);
    base_bytes += static_cast<uint64_t>((*entry)->stats.TotalBytes());
  }
  EXPECT_LT(bed_->views().TotalBytes(), 4 * base_bytes);
}

TEST_F(IntegrationTest, DropIdenticalViewsRemovesTargets) {
  ASSERT_TRUE(bed_->RunOriginal(1, 1).ok());
  size_t before = bed_->views().size();
  ASSERT_TRUE(DropIdenticalViews(bed_, 1, 1).ok());
  EXPECT_LT(bed_->views().size(), before);
  // After dropping, the syntactic rewriter finds nothing.
  auto q = BuildQuery(1, 1);
  plan::Plan p = std::move(q).value();
  auto outcome = bed_->syntactic().Rewrite(&p);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->improved);
  // The dropped views' DFS files went with them.
  ExpectNoOrphanViewFiles(*bed_);
}

// The Figure 10 store: views grown by executing a cold pass and two
// rewrite-off variant rounds, minus those identical to A3v1's targets.
// BFR finds DP's optimum while considering fewer candidates, and every view
// holds the rows its statistics describe (none is an estimated
// placeholder). Built on its own small, uncalibrated bed so that the store
// is the same on every run.
TEST_F(IntegrationTest, ExecutedVariantStoreBfrMatchesDp) {
  TestBedConfig config;
  config.data.n_tweets = 2000;
  config.data.n_checkins = 1200;
  config.data.n_locations = 200;
  config.data.n_users = 100;
  config.calibrate_udfs = false;
  auto created = TestBed::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TestBed& bed = **created;
  RunOptions off;
  off.rewrite = false;
  for (int round = 0; round <= 2; ++round) {
    for (int a = 1; a <= kNumAnalysts; ++a) {
      for (int v = 1; v <= kNumVersions; ++v) {
        auto variant = BuildVariantQuery(&bed, a, v, round);
        ASSERT_TRUE(variant.ok()) << variant.status().ToString();
        auto run = bed.session().Run(std::move(variant).value(), off);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
      }
    }
  }
  ASSERT_TRUE(DropIdenticalViews(&bed, 3, 1).ok());
  ASSERT_GT(bed.views().size(), 50u);

  plan::Plan q_bfr = *BuildQuery(3, 1);
  auto bfr = bed.bfr().Rewrite(&q_bfr);
  ASSERT_TRUE(bfr.ok()) << bfr.status().ToString();
  plan::Plan q_dp = *BuildQuery(3, 1);
  auto dp = bed.dp().Rewrite(&q_dp);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  EXPECT_TRUE(bfr->improved);
  EXPECT_FALSE(dp->stats.budget_exceeded);
  EXPECT_NEAR(bfr->est_cost, dp->est_cost, 1e-9);
  EXPECT_LT(bfr->stats.candidates_considered,
            dp->stats.candidates_considered);

  for (const catalog::ViewDefinition* view : bed.views().All()) {
    auto table = bed.dfs().Peek(view->dfs_path);
    ASSERT_TRUE(table.ok()) << view->dfs_path;
    EXPECT_EQ(static_cast<double>((*table)->num_rows()), view->stats.rows)
        << view->dfs_path;
  }
  ExpectNoOrphanViewFiles(bed);
}

TEST_F(IntegrationTest, SessionRunsOqlEndToEnd) {
  auto run = bed_->session().Run(
      "counts = scan TWTR | groupby user_id count(*) as n;");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_NE(run->table, nullptr);
  EXPECT_GT(run->table->num_rows(), 0u);
  EXPECT_TRUE(run->rewritten);
  // One JobRun per executed job, matching the metrics totals.
  EXPECT_EQ(static_cast<int>(run->jobs.size()), run->metrics.jobs);
  uint64_t bytes_read = 0;
  for (const auto& job : run->jobs) bytes_read += job.bytes_read;
  EXPECT_EQ(bytes_read, run->metrics.bytes_read);
  // EXPLAIN ANALYZE renders one [job] line per job.
  const std::string analyzed = run->ExplainAnalyze();
  size_t job_lines = 0, pos = 0;
  while ((pos = analyzed.find("[job ", pos)) != std::string::npos) {
    ++job_lines;
    pos += 5;
  }
  EXPECT_EQ(job_lines, run->jobs.size());
}

TEST_F(IntegrationTest, StatsCollectionTimeIsSmallFraction) {
  auto result = bed_->RunOriginal(1, 1);
  ASSERT_TRUE(result.ok());
  // "This constitutes a small overhead... a small fraction of query
  // execution time" (Section 2.1).
  EXPECT_LT(result->metrics.stats_time_s,
            0.25 * result->metrics.sim_time_s);
}

}  // namespace
}  // namespace opd::workload
