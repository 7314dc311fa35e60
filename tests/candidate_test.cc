// Tests for candidate-view machinery: useful signatures, coverage masks,
// candidate ids, scan-plan construction, and JobDag target costs and DP.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "exec/engine.h"
#include "execute_and_publish.h"
#include "plan/job.h"
#include "rewrite/candidate.h"
#include "rewrite/decision_log.h"
#include "storage/dfs.h"
#include "udf/builtin_udfs.h"

namespace opd::rewrite {
namespace {

using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

class CandidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(udf::RegisterBuiltinUdfs(&udfs_).ok());
    Schema schema({Column{"tweet_id", DataType::kInt64},
                   Column{"user_id", DataType::kInt64},
                   Column{"tweet_text", DataType::kString}});
    auto t = std::make_shared<Table>("TWTR", schema);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(t->AppendRow({Value(int64_t{i}), Value(int64_t{i % 5}),
                                Value("wine tasty")})
                      .ok());
    }
    ASSERT_TRUE(catalog_.RegisterBase(t, {"tweet_id"}, &dfs_).ok());
    // A second base table that shares no attribute with TWTR.
    auto land = std::make_shared<Table>(
        "LAND", Schema({Column{"location_id", DataType::kInt64},
                        Column{"name", DataType::kString}}));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          land->AppendRow({Value(int64_t{i}), Value("place")}).ok());
    }
    ASSERT_TRUE(catalog_.RegisterBase(land, {"location_id"}, &dfs_).ok());
    plan::AnnotationContext ctx{&catalog_, &views_, &udfs_};
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        ctx, optimizer::CostModel());
    engine_ = std::make_unique<exec::Engine>(&dfs_, optimizer_.get());
  }

  plan::Plan WineJoinQuery() {
    auto extract =
        plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"});
    auto wine = plan::Udf(extract, "UDF_CLASSIFY_WINE_SCORE",
                          {{"threshold", Value(0.2)}});
    auto counts =
        plan::GroupBy(extract, {"user_id"},
                      {plan::AggSpec{plan::AggFn::kCount, "", "cnt"}});
    return plan::Plan(plan::Join(wine, counts, {{"user_id", "user_id"}}),
                      "wq");
  }

  storage::Dfs dfs_;
  catalog::Catalog catalog_;
  catalog::ViewStore views_;
  udf::UdfRegistry udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::unique_ptr<exec::Engine> engine_;
};

TEST_F(CandidateTest, IdIsSortedAndStable) {
  CandidateView c;
  c.parts = {7, 3, 12};
  EXPECT_EQ(CandidateId(c.parts), "3+7+12");
  EXPECT_EQ(c.NumParts(), 3u);
}

TEST_F(CandidateTest, UsefulSignaturesIncludeDepsKeysAndFilterArgs) {
  plan::Plan q = WineJoinQuery();
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  auto useful = UsefulSignatures(q.root()->afk);
  auto has = [&](const std::string& fragment) {
    for (const auto& sig : useful) {
      if (sig.find(fragment) != std::string::npos) return true;
    }
    return false;
  };
  // Output attributes.
  EXPECT_TRUE(has("wine_score"));
  EXPECT_TRUE(has("cnt"));
  // Transitive dependencies of derived attributes.
  EXPECT_TRUE(has("tweet_text"));
  // Keys.
  EXPECT_TRUE(has("user_id"));
}

TEST_F(CandidateTest, CoverageMasksAndUnion) {
  plan::Plan q = WineJoinQuery();
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  auto useful = UsefulSignatures(q.root()->afk);
  Coverage full = ComputeCoverage(q.root()->afk, useful);
  Coverage none = ComputeCoverage(
      afk::Afk({afk::Attribute::Base("X", "z", DataType::kInt64)},
               afk::FilterSet(), afk::KeySet({}, 0)),
      useful);
  // The sink covers at least its own output attrs; the foreign one nothing.
  uint64_t full_bits = 0, none_bits = 0;
  for (uint64_t w : full) full_bits += __builtin_popcountll(w);
  for (uint64_t w : none) none_bits += __builtin_popcountll(w);
  EXPECT_GT(full_bits, 0u);
  EXPECT_EQ(none_bits, 0u);
  EXPECT_EQ(CoverageUnion(full, none), full);
  EXPECT_NE(full, none);
}

TEST_F(CandidateTest, IsRelevantFiltersForeignViews) {
  plan::Plan q = WineJoinQuery();
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  auto useful = UsefulSignatures(q.root()->afk);
  EXPECT_TRUE(IsRelevant(q.root()->afk, useful));
  afk::Afk foreign({afk::Attribute::Base("OTHER", "a", DataType::kInt64)},
                   afk::FilterSet(), afk::KeySet({}, 0));
  EXPECT_FALSE(IsRelevant(foreign, useful));
}

TEST_F(CandidateTest, BuildCandidateScanSingleView) {
  plan::Plan q = WineJoinQuery();
  auto run = testing_exec::ExecuteAndPublish(*engine_, views_, &q);
  ASSERT_TRUE(run.ok());
  ASSERT_GT(views_.size(), 0u);
  const auto* def = views_.All()[0];
  auto scan = BuildCandidateScan(MakeBaseCandidate(*def), views_.Snapshot());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ((*scan)->kind, plan::OpKind::kScan);
  EXPECT_EQ((*scan)->view_id, def->id);
}

TEST_F(CandidateTest, BuildCandidateScanRejectsUnjoinableParts) {
  // Views over two different base tables share no attribute, so no join
  // can merge them into one candidate.
  plan::Plan tweets(plan::Project(plan::Scan("TWTR"), {"tweet_id", "user_id"}),
                    "tweets");
  plan::Plan places(plan::Project(plan::Scan("LAND"), {"location_id", "name"}),
                    "places");
  ASSERT_TRUE(testing_exec::ExecuteAndPublish(*engine_, views_, &tweets).ok());
  ASSERT_TRUE(testing_exec::ExecuteAndPublish(*engine_, views_, &places).ok());
  ASSERT_EQ(views_.size(), 2u);
  const catalog::ViewDefinition* a = views_.All()[0];
  const catalog::ViewDefinition* b = views_.All()[1];
  for (const auto& attr : a->afk.attrs()) ASSERT_FALSE(b->afk.HasAttr(attr));

  CandidateView c;
  c.parts = {a->id, b->id};
  auto scan = BuildCandidateScan(c, views_.Snapshot());
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().ToString().find("share no attributes"),
            std::string::npos)
      << scan.status().ToString();
}

TEST_F(CandidateTest, MissingViewIdFails) {
  CandidateView c;
  c.parts = {424242};
  EXPECT_FALSE(BuildCandidateScan(c, views_.Snapshot()).ok());
}

TEST_F(CandidateTest, JobDagTargetCostIsPrefixSum) {
  plan::Plan q = WineJoinQuery();
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  auto dag = plan::JobDag::Build(q);
  ASSERT_TRUE(dag.ok());
  // The sink's target cost is the whole plan; each producer's is less.
  double sink_cost = dag->TargetCost(dag->sink());
  double sum_all = 0;
  for (size_t i = 0; i < dag->size(); ++i) {
    sum_all += dag->job(i).op->cost.total_s;
    EXPECT_LE(dag->TargetCost(i), sink_cost + 1e-9);
    EXPECT_GT(dag->TargetCost(i), 0.0);
  }
  EXPECT_NEAR(sink_cost, sum_all, 1e-9);
}

// The DP step the DP and syntactic baselines share, on a plan whose
// extract job feeds both the wine UDF and the counts group-by.
TEST_F(CandidateTest, JobDagBestCompositionPicksCheapestPerJob) {
  plan::Plan q = WineJoinQuery();
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  auto dag = plan::JobDag::Build(q);
  ASSERT_TRUE(dag.ok());
  const size_t sink = static_cast<size_t>(dag->sink());
  size_t wine = 0;
  while (dag->job(wine).op->kind != plan::OpKind::kUdf) ++wine;
  std::vector<std::optional<plan::CostedPlan>> direct(dag->size());

  // Nothing rewritten: the original plan at its target cost (composing
  // the sink would count the shared extract job twice).
  plan::CostedPlan best = dag->BestComposition(direct);
  EXPECT_EQ(best.root, dag->job(sink).op);
  EXPECT_NEAR(best.cost, dag->TargetCost(sink), 1e-9);

  // A free rewrite of the wine job: the sink is recomposed over it.
  const plan::OpNodePtr scan = plan::ScanView(1);
  direct[wine] = plan::CostedPlan{scan, 0};
  best = dag->BestComposition(direct);
  ASSERT_NE(best.root, dag->job(sink).op);
  EXPECT_EQ(best.root->kind, plan::OpKind::kJoin);
  EXPECT_EQ(best.root->children[0], scan);
  EXPECT_NEAR(best.cost,
              dag->job(sink).op->cost.total_s +
                  dag->TargetCost(dag->job(sink).producers[1]),
              1e-9);

  // A direct rewrite of the sink wins when it is no costlier.
  direct[sink] = plan::CostedPlan{plan::ScanView(2), best.cost};
  EXPECT_EQ(dag->BestComposition(direct).root, direct[sink]->root);
}

}  // namespace
}  // namespace opd::rewrite
