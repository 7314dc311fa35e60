// Randomized property tests: generate random plans (tests/random_plans.h),
// mutate them the way analysts revise queries, and check the system-level
// invariants — deterministic execution, annotation stability, and above all
// that every rewrite BFREWRITE produces computes exactly the original result
// (oracle_test checks both against the reference interpreter).

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "execute_and_publish.h"
#include "plan/fingerprint.h"
#include "random_plans.h"
#include "rewrite/bf_rewrite.h"
#include "storage/dfs.h"
#include "udf/builtin_udfs.h"

namespace opd {
namespace {

using testing_plans::Mutate;
using testing_plans::RandomPlan;

class PropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(udf::RegisterBuiltinUdfs(&udfs_).ok());
    auto t = testing_plans::MakeTweets();
    ASSERT_NE(t, nullptr);
    ASSERT_TRUE(catalog_.RegisterBase(t, {"tweet_id"}, &dfs_).ok());
    plan::AnnotationContext ctx{&catalog_, &views_, &udfs_};
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        ctx, optimizer::CostModel());
    engine_ = std::make_unique<exec::Engine>(&dfs_, optimizer_.get());
    bfr_ = std::make_unique<rewrite::BfRewriter>(optimizer_.get(), &views_);
  }

  // Executes `plan` and publishes its views, as a served query would.
  Result<exec::ExecResult> Run(plan::Plan* plan) {
    return testing_exec::ExecuteAndPublish(*engine_, views_, plan);
  }

  std::vector<storage::Row> SortedRows(const storage::TablePtr& t) {
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

  storage::Dfs dfs_;
  catalog::Catalog catalog_;
  catalog::ViewStore views_;
  udf::UdfRegistry udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::unique_ptr<exec::Engine> engine_;
  std::unique_ptr<rewrite::BfRewriter> bfr_;
};

TEST_P(PropertyTest, ExecutionIsDeterministic) {
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 5; ++trial) {
    plan::Plan p1 = RandomPlan(&rng);
    plan::Plan p2(plan::CloneTree(p1.root()), "copy");
    auto r1 = Run(&p1);
    auto r2 = Run(&p2);
    ASSERT_TRUE(r1.ok() && r2.ok());
    ASSERT_EQ(r1.value().table->num_rows(), r2.value().table->num_rows());
    EXPECT_EQ(r1.value().table->ToRows(), r2.value().table->ToRows());
  }
}

TEST_P(PropertyTest, AnnotationIsStable) {
  Rng rng(GetParam() * 104729 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    plan::Plan p1 = RandomPlan(&rng);
    plan::Plan p2(plan::CloneTree(p1.root()), "copy");
    ASSERT_TRUE(optimizer_->Prepare(&p1).ok());
    ASSERT_TRUE(optimizer_->Prepare(&p2).ok());
    EXPECT_TRUE(p1.root()->afk == p2.root()->afk);
    EXPECT_EQ(plan::Fingerprint(p1.root()), plan::Fingerprint(p2.root()));
    EXPECT_GE(p1.root()->est_rows, 0.0);
  }
}

// The headline property: any rewrite BFREWRITE chooses computes exactly the
// same result as the original plan.
TEST_P(PropertyTest, RewritesAreAlwaysEquivalent) {
  Rng rng(GetParam() * 6151 + 17);
  int improved_count = 0;
  for (int trial = 0; trial < 6; ++trial) {
    plan::Plan base = RandomPlan(&rng);
    auto seed_run = Run(&base);  // populate views
    ASSERT_TRUE(seed_run.ok());

    plan::Plan revised = Mutate(base, &rng);
    plan::Plan revised_copy(plan::CloneTree(revised.root()), "orig");

    auto outcome = bfr_->Rewrite(&revised);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->improved) ++improved_count;

    plan::Plan best = outcome->plan;
    auto rewr_run = Run(&best);
    auto orig_run = Run(&revised_copy);
    ASSERT_TRUE(rewr_run.ok() && orig_run.ok());
    EXPECT_EQ(SortedRows(orig_run.value().table),
              SortedRows(rewr_run.value().table))
        << "rewrite changed the result for seed " << GetParam() << " trial "
        << trial;
  }
  // Mutated revisions tighten predicates, so most should find rewrites.
  EXPECT_GT(improved_count, 0);
}

// The estimated cost of the chosen rewrite never exceeds the original
// plan's estimated cost (the rewriter can always fall back to the original).
TEST_P(PropertyTest, RewriteNeverCostsMoreThanOriginal) {
  Rng rng(GetParam() * 31 + 5);
  for (int trial = 0; trial < 6; ++trial) {
    plan::Plan base = RandomPlan(&rng);
    ASSERT_TRUE(Run(&base).ok());
    plan::Plan revised = Mutate(base, &rng);
    auto outcome = bfr_->Rewrite(&revised);
    ASSERT_TRUE(outcome.ok());
    EXPECT_LE(outcome->est_cost, outcome->original_cost + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace opd
