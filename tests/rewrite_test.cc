// Tests for the rewrite machinery: GUESSCOMPLETE, OPTCOST (with its
// lower-bound invariant), MERGE, REWRITEENUM, the ViewFinder, and the three
// rewriters (BFR, DP, SYNTACTIC).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "catalog/catalog.h"
#include "common/hash.h"
#include "catalog/view_store.h"
#include "exec/engine.h"
#include "execute_and_publish.h"
#include "obs/metrics.h"
#include "plan/annotate.h"
#include "plan/fingerprint.h"
#include "plan/job.h"
#include "rewrite/bf_rewrite.h"
#include "rewrite/dp_rewrite.h"
#include "rewrite/guess_complete.h"
#include "rewrite/merge.h"
#include "rewrite/opt_cost.h"
#include "rewrite/rewrite_enum.h"
#include "rewrite/syntactic.h"
#include "rewrite/view_finder.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/dfs.h"
#include "udf/builtin_udfs.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

namespace opd::rewrite {
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

// A fixture with a miniature TWTR log, an engine, and helpers to
// execute plans (creating opportunistic views) and rewrite queries.
class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(udf::RegisterBuiltinUdfs(&udfs_).ok());
    Schema schema({Column{"tweet_id", DataType::kInt64},
                   Column{"user_id", DataType::kInt64},
                   Column{"tweet_text", DataType::kString},
                   Column{"mention_user", DataType::kInt64}});
    auto t = std::make_shared<Table>("TWTR", schema);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          t->AppendRow(
               {Value(int64_t{i}), Value(int64_t{i % 10}),
                Value(i % 3 == 0 ? "wine merlot delicious" : "plain words"),
                Value(int64_t{i % 7 == 0 ? (i + 1) % 10 : -1})})
              .ok());
    }
    ASSERT_TRUE(catalog_.RegisterBase(t, {"tweet_id"}, &dfs_).ok());
    plan::AnnotationContext ctx{&catalog_, &views_, &udfs_};
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        ctx, optimizer::CostModel());
    engine_ = std::make_unique<exec::Engine>(&dfs_, optimizer_.get());
    bfr_ = std::make_unique<BfRewriter>(optimizer_.get(), &views_);
    dp_ = std::make_unique<DpRewriter>(optimizer_.get(), &views_);
    syntactic_ =
        std::make_unique<SyntacticRewriter>(optimizer_.get(), &views_);
  }

  // The wine query: classify users, filter by count.
  plan::Plan WineQuery(double threshold, double min_count) {
    auto extract =
        plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"});
    auto wine = plan::Udf(extract, "UDF_CLASSIFY_WINE_SCORE",
                          {{"threshold", Value(threshold)}});
    auto counts = plan::GroupBy(extract, {"user_id"},
                                {AggSpec{AggFn::kCount, "", "cnt"}});
    auto filtered = plan::Filter(
        counts, FilterCond::Compare("cnt", CmpOp::kGt, Value(min_count)));
    return plan::Plan(plan::Join(wine, filtered, {{"user_id", "user_id"}}),
                      "wine_query");
  }

  void Execute(plan::Plan plan) {
    auto result = testing_exec::ExecuteAndPublish(*engine_, views_, &plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  storage::TablePtr ExecuteGet(plan::Plan plan) {
    auto result = testing_exec::ExecuteAndPublish(*engine_, views_, &plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->table;
  }

  // Dependencies over a snapshot of everything published so far.
  EnumDeps Deps() {
    snapshot_ = views_.Snapshot();
    EnumDeps deps;
    deps.optimizer = optimizer_.get();
    deps.views = &snapshot_;
    deps.udfs = &udfs_;
    return deps;
  }

  storage::Dfs dfs_;
  catalog::Catalog catalog_;
  catalog::ViewStore views_;
  catalog::ViewSnapshot snapshot_;
  udf::UdfRegistry udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::unique_ptr<exec::Engine> engine_;
  std::unique_ptr<BfRewriter> bfr_;
  std::unique_ptr<DpRewriter> dp_;
  std::unique_ptr<SyntacticRewriter> syntactic_;
};

// --- GUESSCOMPLETE ----------------------------------------------------------

TEST_F(RewriteTest, GuessCompleteIdentical) {
  plan::Plan p = WineQuery(0.5, 5);
  ASSERT_TRUE(optimizer_->Prepare(&p).ok());
  EXPECT_TRUE(GuessComplete(p.root()->afk, p.root()->afk));
}

TEST_F(RewriteTest, GuessCompleteWeakerViewFilter) {
  plan::Plan v = WineQuery(0.5, 5);
  plan::Plan q = WineQuery(1.0, 5);  // stronger threshold
  ASSERT_TRUE(optimizer_->Prepare(&v).ok());
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  // The view (weaker filter) can answer the query, not vice versa.
  EXPECT_TRUE(GuessComplete(q.root()->afk, v.root()->afk));
  EXPECT_FALSE(GuessComplete(v.root()->afk, q.root()->afk));
}

TEST_F(RewriteTest, GuessCompleteMoreAggregatedViewRejected) {
  plan::Plan q(plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"}));
  plan::Plan v(plan::GroupBy(
      plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"}),
      {"user_id"}, {AggSpec{AggFn::kCount, "", "cnt"}}));
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  ASSERT_TRUE(optimizer_->Prepare(&v).ok());
  // The view is more aggregated than the query: unusable.
  EXPECT_FALSE(GuessComplete(q.root()->afk, v.root()->afk));
  // And the raw projection can (optimistically) answer the aggregate.
  EXPECT_TRUE(GuessComplete(v.root()->afk, q.root()->afk));
}

TEST_F(RewriteTest, GuessCompleteMissingBaseAttributeRejected) {
  plan::Plan q(plan::Project(plan::Scan("TWTR"), {"user_id", "mention_user"}));
  plan::Plan v(plan::Project(plan::Scan("TWTR"), {"user_id"}));
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  ASSERT_TRUE(optimizer_->Prepare(&v).ok());
  EXPECT_FALSE(GuessComplete(q.root()->afk, v.root()->afk));
}

// --- OPTCOST ----------------------------------------------------------------

TEST_F(RewriteTest, OptCostZeroForExactMatch) {
  plan::Plan p = WineQuery(0.5, 5);
  Execute(WineQuery(0.5, 5));
  ASSERT_TRUE(optimizer_->Prepare(&p).ok());
  // Find the view whose AFK equals the sink target.
  bool found = false;
  for (const auto* def : views_.All()) {
    if (def->afk == p.root()->afk) {
      CandidateView c = MakeBaseCandidate(*def);
      EXPECT_DOUBLE_EQ(OptCost(p.root()->afk, c, optimizer_->cost_model()),
                       0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RewriteTest, OptCostGrowsWithViewSize) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(1.0, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  // Among non-exact candidates, OPTCOST must be monotone in view bytes.
  const auto all = views_.All();
  for (const auto* a : all) {
    for (const auto* b : all) {
      CandidateView ca = MakeBaseCandidate(*a), cb = MakeBaseCandidate(*b);
      double oa = OptCost(q.root()->afk, ca, optimizer_->cost_model());
      double ob = OptCost(q.root()->afk, cb, optimizer_->cost_model());
      if (oa > 0 && ob > 0 && a->stats.TotalBytes() < b->stats.TotalBytes()) {
        EXPECT_LE(oa, ob + 1e-9);
      }
    }
  }
}

// Property: OPTCOST is a true lower bound — for every candidate for which
// REWRITEENUM finds a rewrite, COST(rewrite) >= OPTCOST(candidate).
TEST_F(RewriteTest, OptCostLowerBoundsEveryFoundRewrite) {
  Execute(WineQuery(0.5, 5));
  Execute(WineQuery(0.8, 3));
  plan::Plan q = WineQuery(1.0, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  TargetContext target = MakeTargetContext(q.root());
  EnumDeps deps = Deps();
  size_t verified = 0;
  for (const auto* def : views_.All()) {
    CandidateView c = MakeBaseCandidate(*def);
    double bound = OptCost(q.root()->afk, c, optimizer_->cost_model());
    if (!GuessComplete(q.root()->afk, c.afk)) continue;
    auto result = RewriteEnum(target, c, deps);
    ASSERT_TRUE(result.ok());
    if (result.value().has_value()) {
      EXPECT_GE(result.value()->cost + 1e-9, bound)
          << "OPTCOST invariant violated for view " << def->id;
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
}

// --- MERGE ------------------------------------------------------------------

TEST_F(RewriteTest, MergeRequiresSharedKeys) {
  Execute(WineQuery(0.5, 5));
  // Find the wine view (keyed user_id, depth 1) and the counts view.
  const catalog::ViewDefinition* wine = nullptr;
  const catalog::ViewDefinition* counts = nullptr;
  const catalog::ViewDefinition* extract = nullptr;
  for (const auto* def : views_.All()) {
    if (def->schema.Has("wine_score")) wine = def;
    if (def->schema.Has("cnt") && def->afk.filters().empty()) counts = def;
    if (def->schema.Has("tweet_text")) extract = def;
  }
  ASSERT_NE(wine, nullptr);
  ASSERT_NE(counts, nullptr);
  ASSERT_NE(extract, nullptr);

  // Aggregated views keyed on the same user_id merge.
  auto merged = MergeCandidates(MakeBaseCandidate(*wine),
                                MakeBaseCandidate(*counts), 4);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->NumParts(), 2u);
  EXPECT_TRUE(merged->afk.FindByName("wine_score").has_value());
  EXPECT_TRUE(merged->afk.FindByName("cnt").has_value());

  // The un-keyed raw extract does not merge (no common key).
  EXPECT_FALSE(MergeCandidates(MakeBaseCandidate(*wine),
                               MakeBaseCandidate(*extract), 4)
                   .has_value());
  // Overlapping parts do not merge.
  EXPECT_FALSE(
      MergeCandidates(*merged, MakeBaseCandidate(*wine), 4).has_value());
  // J bound respected.
  EXPECT_FALSE(MergeCandidates(*merged, MakeBaseCandidate(*counts), 2)
                   .has_value());
}

TEST_F(RewriteTest, BuildCandidateScanForMergedViews) {
  Execute(WineQuery(0.5, 5));
  const catalog::ViewDefinition* wine = nullptr;
  const catalog::ViewDefinition* counts = nullptr;
  for (const auto* def : views_.All()) {
    if (def->schema.Has("wine_score")) wine = def;
    if (def->schema.Has("cnt") && def->afk.filters().empty()) counts = def;
  }
  auto merged = MergeCandidates(MakeBaseCandidate(*wine),
                                MakeBaseCandidate(*counts), 4);
  ASSERT_TRUE(merged.has_value());
  auto scan = BuildCandidateScan(*merged, views_.Snapshot());
  ASSERT_TRUE(scan.ok());
  plan::Plan p(*scan);
  ASSERT_TRUE(optimizer_->Prepare(&p).ok());
  EXPECT_TRUE(p.root()->afk == merged->afk);
}

// --- REWRITEENUM -------------------------------------------------------------

TEST_F(RewriteTest, RewriteEnumExactMatchIsBareScan) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(0.5, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  TargetContext target = MakeTargetContext(q.root());
  for (const auto* def : views_.All()) {
    if (!(def->afk == q.root()->afk)) continue;
    auto result = RewriteEnum(target, MakeBaseCandidate(*def), Deps());
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result.value().has_value());
    EXPECT_DOUBLE_EQ(result.value()->cost, 0.0);
    EXPECT_EQ(result.value()->plan.root()->kind, plan::OpKind::kScan);
    return;
  }
  FAIL() << "no exact-match view found";
}

TEST_F(RewriteTest, RewriteEnumCompensatesUdfThreshold) {
  // Views from threshold 0.5; query wants 1.0: the compensation is the fix
  // filter wine_score > 1.0 on the existing view.
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(1.0, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  TargetContext target = MakeTargetContext(q.root());
  bool found = false;
  for (const auto* def : views_.All()) {
    if (!def->schema.Has("wine_score") || !def->schema.Has("cnt")) continue;
    auto result = RewriteEnum(target, MakeBaseCandidate(*def), Deps());
    ASSERT_TRUE(result.ok());
    if (result.value().has_value()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(RewriteTest, RewriteEnumRejectsIncompatibleView) {
  // Query with *weaker* filter cannot be answered by the stronger view.
  Execute(WineQuery(1.0, 5));
  plan::Plan q = WineQuery(0.5, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  TargetContext target = MakeTargetContext(q.root());
  for (const auto* def : views_.All()) {
    if (!def->schema.Has("wine_score") || !def->schema.Has("cnt")) continue;
    // These joined views carry the >1.0 filter; the query wants >0.5.
    auto result = RewriteEnum(target, MakeBaseCandidate(*def), Deps());
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.value().has_value());
  }
}

// --- ViewFinder ---------------------------------------------------------------

TEST_F(RewriteTest, ViewFinderOrdersByOptCost) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(1.0, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  TargetDecision decision;
  ViewFinder finder;
  EnumDeps deps = Deps();
  finder.Init(MakeTargetSetup(q.root()), deps, &decision);
  double prev = -1;
  int pops = 0;
  while (!finder.exhausted() && pops < 100) {
    double peek = finder.Peek();
    EXPECT_GE(peek + 1e-9, prev) << "PEEK must be non-decreasing";
    prev = peek;
    (void)finder.Refine();
    ASSERT_TRUE(finder.status().ok());
    ++pops;
  }
  EXPECT_GT(pops, 0);
  EXPECT_EQ(decision.pops.size(), static_cast<size_t>(pops));
}

TEST_F(RewriteTest, ViewFinderPeekInfinityWhenExhausted) {
  TargetDecision decision;
  ViewFinder finder;
  plan::Plan q = WineQuery(0.5, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  EnumDeps deps = Deps();
  finder.Init(MakeTargetSetup(q.root()), deps, &decision);
  EXPECT_TRUE(std::isinf(finder.Peek()));
  EXPECT_FALSE(finder.Refine().has_value());
  EXPECT_TRUE(decision.pops.empty());
}

// --- BFR end-to-end -----------------------------------------------------------

TEST_F(RewriteTest, BfrNoViewsReturnsOriginal) {
  plan::Plan q = WineQuery(0.5, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->improved);
  EXPECT_DOUBLE_EQ(outcome->est_cost, outcome->original_cost);
}

TEST_F(RewriteTest, BfrFindsExactMatchRewrite) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(0.5, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->improved);
  EXPECT_LT(outcome->est_cost, 0.01 * outcome->original_cost);
}

// A rewrite resolves candidate views in the snapshot it searches, not in
// the live store: views dropped after the snapshot was taken still plan and
// cost, and the rewrite scans them.
TEST_F(RewriteTest, RewriteResolvesViewsThroughItsSnapshot) {
  Execute(WineQuery(0.5, 5));
  const catalog::ViewSnapshot snapshot = views_.SnapshotAt(views_.epoch());
  ASSERT_GT(snapshot.size(), 0u);
  for (const catalog::ViewDefinition* def : snapshot.All()) {
    ASSERT_TRUE(views_.Drop(def->id).ok());
  }
  ASSERT_EQ(views_.size(), 0u);

  plan::Plan q = WineQuery(0.5, 5);
  auto outcome = bfr_->Rewrite(&q, snapshot);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->improved);
  size_t scans = 0;
  for (const plan::OpNodePtr& node : outcome->plan.TopoOrder()) {
    if (node->kind != plan::OpKind::kScan) continue;
    ASSERT_GE(node->view_id, 0) << "the rewrite still reads a base table";
    EXPECT_TRUE(snapshot.Find(node->view_id).ok());
    EXPECT_FALSE(views_.Has(node->view_id));
    ++scans;
  }
  EXPECT_GT(scans, 0u);
}

TEST_F(RewriteTest, BfrMemoizesTargetSetupOnFingerprint) {
  auto& registry = obs::MetricRegistry::Global();
  auto& hits = registry.counter("rewrite.viewfinder.memo_hit");
  auto& misses = registry.counter("rewrite.viewfinder.memo_miss");
  const uint64_t hits0 = hits.value();
  const uint64_t misses0 = misses.value();

  plan::Plan q1 = WineQuery(0.5, 5);
  ASSERT_TRUE(bfr_->Rewrite(&q1).ok());
  const uint64_t misses1 = misses.value();
  const uint64_t hits1 = hits.value();
  EXPECT_GT(misses1, misses0);  // first sight of these subplans: misses

  // A structurally identical query re-uses every target's memoized setup:
  // only hits, no new misses.
  plan::Plan q2 = WineQuery(0.5, 5);
  ASSERT_TRUE(bfr_->Rewrite(&q2).ok());
  EXPECT_EQ(misses.value(), misses1);
  EXPECT_EQ(hits.value(), hits1 + (misses1 - misses0));
}

// The process-wide search counters advance once per rewrite, by exactly
// the outcome's RewriteStats.
TEST_F(RewriteTest, SearchCountersAdvanceByRewriteStats) {
  auto& registry = obs::MetricRegistry::Global();
  auto& candidates = registry.counter("rewrite.candidates_considered");
  auto& attempts = registry.counter("rewrite.attempts");
  auto& found = registry.counter("rewrite.found");
  Execute(WineQuery(0.5, 5));
  const uint64_t candidates0 = candidates.value();
  const uint64_t attempts0 = attempts.value();
  const uint64_t found0 = found.value();

  plan::Plan q = WineQuery(1.0, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->improved);
  const RewriteStats& stats = outcome->stats;
  EXPECT_GT(stats.rewrites_found, 0u);
  EXPECT_EQ(candidates.value() - candidates0, stats.candidates_considered);
  EXPECT_EQ(attempts.value() - attempts0, stats.rewrite_attempts);
  EXPECT_EQ(found.value() - found0, stats.rewrites_found);
}

// The target memo is bounded: once kMaxTargetMemo + 1 distinct targets
// have been set up, the first one has been dropped and misses again.
TEST_F(RewriteTest, BfrTargetMemoIsBounded) {
  auto& misses =
      obs::MetricRegistry::Global().counter("rewrite.viewfinder.memo_miss");
  auto rewrite = [&](int i) {
    plan::Plan q(plan::Filter(plan::Scan("TWTR"),
                              FilterCond::Compare("user_id", CmpOp::kGt,
                                                  Value(int64_t{i}))),
                 "memo");
    ASSERT_TRUE(bfr_->Rewrite(&q).ok());
  };
  rewrite(0);
  uint64_t before = misses.value();
  rewrite(0);  // memoized: no miss
  EXPECT_EQ(misses.value(), before);

  for (int i = 1; i <= static_cast<int>(BfRewriter::kMaxTargetMemo); ++i) {
    rewrite(i);
  }
  before = misses.value();
  rewrite(0);
  EXPECT_EQ(misses.value(), before + 1);
}

TEST_F(RewriteTest, BfrCompensatedRewriteExecutesEquivalently) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(1.0, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->improved);

  auto orig_result = ExecuteGet(WineQuery(1.0, 5));
  plan::Plan best = outcome->plan;
  auto rewr_result = ExecuteGet(std::move(best));
  ASSERT_EQ(orig_result->num_rows(), rewr_result->num_rows());
  // Same schema column names.
  EXPECT_EQ(orig_result->schema().ToString(),
            rewr_result->schema().ToString());
  // Row-level equality (both engines produce deterministic order after
  // grouping; join order may differ, so compare as multisets).
  std::vector<storage::Row> a = orig_result->ToRows();
  std::vector<storage::Row> b = rewr_result->ToRows();
  auto row_less = [](const storage::Row& x, const storage::Row& y) {
    for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
      if (x[i] < y[i]) return true;
      if (y[i] < x[i]) return false;
    }
    return x.size() < y.size();
  };
  std::sort(a.begin(), a.end(), row_less);
  std::sort(b.begin(), b.end(), row_less);
  EXPECT_EQ(a, b);
}

TEST_F(RewriteTest, BfrConvergenceTraceRecorded) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(1.0, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GE(outcome->stats.convergence.size(), 2u);
  // First entry is the original cost; costs decrease monotonically.
  EXPECT_DOUBLE_EQ(outcome->stats.convergence.front().second,
                   outcome->original_cost);
  for (size_t i = 1; i < outcome->stats.convergence.size(); ++i) {
    EXPECT_LE(outcome->stats.convergence[i].second,
              outcome->stats.convergence[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(outcome->stats.convergence.back().second,
                   outcome->est_cost);
}

TEST_F(RewriteTest, BfrWorkEfficiencyNeverBeyondDp) {
  Execute(WineQuery(0.5, 5));
  Execute(WineQuery(0.8, 3));
  plan::Plan qb = WineQuery(1.0, 5);
  auto bfr = bfr_->Rewrite(&qb);
  plan::Plan qd = WineQuery(1.0, 5);
  auto dp = dp_->Rewrite(&qd);
  ASSERT_TRUE(bfr.ok());
  ASSERT_TRUE(dp.ok());
  // Identical minimum-cost rewrites (the paper's Theorem 1 consequence).
  EXPECT_NEAR(bfr->est_cost, dp->est_cost, 1e-6 * (1 + dp->est_cost));
  // Work efficiency: BFR considers no more candidates than exhaustive DP.
  EXPECT_LE(bfr->stats.candidates_considered,
            dp->stats.candidates_considered);
}

// Property (paper Section 4.1): GUESSCOMPLETE "may result in a false
// positive, but will never result in a false negative" — whenever
// REWRITEENUM finds a rewrite, GUESSCOMPLETE must have said yes.
TEST_F(RewriteTest, GuessCompleteHasNoFalseNegatives) {
  Execute(WineQuery(0.5, 5));
  Execute(WineQuery(0.8, 3));
  Execute(WineQuery(1.2, 8));
  for (double thr : {0.6, 0.9, 1.5}) {
    plan::Plan q = WineQuery(thr, 5);
    ASSERT_TRUE(optimizer_->Prepare(&q).ok());
    auto dag = plan::JobDag::Build(q);
    ASSERT_TRUE(dag.ok());
    EnumDeps deps = Deps();
    for (size_t i = 0; i < dag->size(); ++i) {
      TargetContext target = MakeTargetContext(dag->job(i).op);
      for (const auto* def : views_.All()) {
        CandidateView c = MakeBaseCandidate(*def);
        if (GuessComplete(target.afk, c.afk)) continue;
        auto result = RewriteEnum(target, c, deps);
        ASSERT_TRUE(result.ok());
        EXPECT_FALSE(result.value().has_value())
            << "false negative: view " << def->id << " rewrote target " << i
            << " of thr=" << thr << " despite GUESSCOMPLETE=false";
      }
    }
  }
}

// --- Syntactic baseline --------------------------------------------------------

TEST_F(RewriteTest, SyntacticMatchesIdenticalPlans) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(0.5, 5);
  auto outcome = syntactic_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->improved);
}

TEST_F(RewriteTest, SyntacticMissesChangedThreshold) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(1.0, 5);  // revised threshold
  auto syntactic = syntactic_->Rewrite(&q);
  ASSERT_TRUE(syntactic.ok());
  plan::Plan qb = WineQuery(1.0, 5);
  auto semantic = bfr_->Rewrite(&qb);
  ASSERT_TRUE(semantic.ok());
  // The counts subtree is unchanged -> syntactic reuses it; but the wine
  // UDF threshold changed, so syntactic cannot reuse the expensive scoring
  // view while BFR can: BFR must be strictly better.
  EXPECT_LT(semantic->est_cost, syntactic->est_cost);
}

TEST_F(RewriteTest, SyntacticZeroAfterDroppingIdenticalViews) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(0.5, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  const std::vector<plan::OpNodePtr> nodes = q.TopoOrder();
  const catalog::ViewSnapshot snapshot = views_.Snapshot();
  for (const catalog::ViewDefinition* view : snapshot.All()) {
    const bool identical = std::any_of(
        nodes.begin(), nodes.end(), [view](const plan::OpNodePtr& node) {
          return node->kind != plan::OpKind::kScan && node->afk == view->afk;
        });
    if (identical) {
      ASSERT_TRUE(views_.Drop(view->id).ok());
    }
  }
  plan::Plan q2 = WineQuery(0.5, 5);
  auto outcome = syntactic_->Rewrite(&q2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->improved);
}

// --- DecisionLog ------------------------------------------------------------

TEST_F(RewriteTest, RejectReasonCodesAreStable) {
  // Machine-readable vocabulary — the bench records and the EXPLAIN REWRITE
  // JSON export depend on these exact strings.
  EXPECT_STREQ(RejectReasonCode(RejectReason::kNone), "accepted");
  EXPECT_STREQ(RejectReasonCode(RejectReason::kSignatureMismatch),
               "signature_mismatch");
  EXPECT_STREQ(RejectReasonCode(RejectReason::kAfkContainment),
               "afk_containment");
  EXPECT_STREQ(RejectReasonCode(RejectReason::kNotCostImproving),
               "not_cost_improving");
  EXPECT_STREQ(RejectReasonCode(RejectReason::kPrunedByBound),
               "pruned_by_bound");
}

// The EXPLAIN REWRITE header counts the views of the snapshot the search
// ran against, not the live store: views another query publishes after the
// search do not change the rendered report.
TEST_F(RewriteTest, ExplainRewriteHeaderCountsSearchedSnapshot) {
  Execute(WineQuery(0.5, 5));
  const size_t searched = views_.size();
  plan::Plan q = WineQuery(0.5, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  Execute(plan::Plan(plan::GroupBy(plan::Scan("TWTR"), {"mention_user"},
                                   {AggSpec{AggFn::kCount, "", "n"}})));
  ASSERT_GT(views_.size(), searched);
  const std::string text = RenderExplainRewrite(*outcome);
  EXPECT_NE(text.find("views in store: " + std::to_string(searched) + "\n"),
            std::string::npos)
      << text;
}

TEST_F(RewriteTest, DecisionLogAccountsForEveryCandidate) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(0.5, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->improved);
  const DecisionLog& log = outcome->decisions;
  ASSERT_FALSE(log.targets.empty());

  const DecisionCounts counts = log.Counts();
  EXPECT_GT(counts.candidates, 0u);
  EXPECT_GT(counts.accepted, 0u);
  // Every candidate lands in exactly one bucket.
  EXPECT_EQ(counts.candidates,
            counts.accepted + counts.signature_mismatch +
                counts.afk_containment + counts.not_cost_improving +
                counts.pruned_by_bound);

  for (size_t t = 0; t < log.targets.size(); ++t) {
    const TargetDecision& td = log.targets[t];
    size_t accepted_here = 0;
    for (const CandidateDecision& cd : log.Candidates(t)) {
      if (cd.reject == RejectReason::kNone) {
        ++accepted_here;
        // The accepted candidate is the chosen one, and it carries a
        // costed, found rewrite.
        EXPECT_EQ(cd.candidate_id, td.ChosenId());
        EXPECT_TRUE(cd.rewrite_found);
        EXPECT_GE(cd.opt_cost, 0.0);
      }
      if (cd.reject == RejectReason::kSignatureMismatch) {
        // INIT exclusions happen before costing.
        EXPECT_LT(cd.opt_cost, 0.0);
      }
    }
    EXPECT_LE(accepted_here, 1u);
    EXPECT_GE(td.original_cost, td.best_cost);
    EXPECT_DOUBLE_EQ(td.predicted_benefit_s,
                     td.original_cost - td.best_cost);
  }
}

TEST_F(RewriteTest, DecisionLogOptCostNonDecreasingPerTarget) {
  Execute(WineQuery(0.5, 5));
  Execute(WineQuery(0.8, 3));
  plan::Plan q = WineQuery(0.5, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  const DecisionLog& log = outcome->decisions;
  for (size_t t = 0; t < log.targets.size(); ++t) {
    const TargetDecision& td = log.targets[t];
    // Refined candidates are popped in OPTCOST order, and bound-pruned
    // leftovers are drained in the same order, so per target the costed
    // estimates never decrease.
    double prev = -1;
    for (const CandidateDecision& cd : log.Candidates(t)) {
      if (cd.opt_cost < 0) continue;  // never costed (INIT exclusion)
      EXPECT_GE(cd.opt_cost + 1e-9, prev)
          << "target " << td.target_index << " candidate "
          << cd.candidate_id;
      prev = cd.opt_cost;
    }
  }
}

TEST_F(RewriteTest, DecisionLogJsonWellFormed) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(0.5, 5);
  auto outcome = bfr_->Rewrite(&q);
  ASSERT_TRUE(outcome.ok());
  const std::string json = outcome->decisions.ToJson();
  EXPECT_EQ(json.find("{\"targets\":["), 0u);
  EXPECT_NE(json.find("\"counts\":{\"candidates\":"), std::string::npos);
  EXPECT_NE(json.find("\"decision\":\"accepted\""), std::string::npos);
}

// --- Warm store (the perfbench warm_500v set-up, smaller) -------------------

// A 2000-tweet server with calibration off, its store grown with rewriting
// off as perfbench's GrowStore grows it: the 32 queries, then rounds of
// variants with a distinct always-true filter on top, until the store holds
// at least `target_views` views.
std::unique_ptr<workload::TestBed> GrowWarmBed(size_t target_views) {
  workload::TestBedConfig config;
  config.data.seed = 20140622ULL + 7919ULL;
  config.data.n_tweets = 2000;
  config.data.n_checkins = 1200;
  config.data.n_locations = 200;
  config.data.n_users = 100;
  config.calibrate_udfs = false;
  auto bed = workload::TestBed::Create(config);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  if (!bed.ok()) return nullptr;
  Server& server = (*bed)->session().server();
  ClientSession client = server.Connect("grower");
  RunOptions off;
  off.rewrite = false;
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v) {
      auto q = workload::BuildQuery(a, v);
      EXPECT_TRUE(q.ok() && client.Run(std::move(*q), off).ok());
    }
  }
  for (int round = 1; server.views().size() < target_views; ++round) {
    if (round > 50) {
      ADD_FAILURE() << "store stopped growing at " << server.views().size();
      return nullptr;
    }
    for (int a = 1; a <= workload::kNumAnalysts; ++a) {
      for (int v = 1; v <= workload::kNumVersions; ++v) {
        if (server.views().size() >= target_views) break;
        plan::Plan p = *workload::BuildQuery(a, v);
        EXPECT_TRUE(server.optimizer().Prepare(&p).ok());
        const std::string column = p.root()->out_schema.column(0).name;
        p = plan::Plan(
            plan::Filter(p.root(),
                         FilterCond::Compare(column, CmpOp::kNe,
                                             Value(-1000.0 - round))),
            p.name() + "_r" + std::to_string(round));
        EXPECT_TRUE(client.Run(std::move(p), off).ok());
      }
    }
  }
  return std::move(bed).value();
}

// FNV-1a digests of the EXPLAIN REWRITE text, the decision-log JSON and the
// rewritten plan's fingerprint for each of the 32 queries (A1v1..A8v4)
// against a 300-view warm store. The values were recorded before the view
// store was indexed and the decision log made compact; both changes must
// leave every byte of the search's output as it was.
TEST_F(RewriteTest, WarmDecisionLogMatchesParentDigest) {
  const uint64_t kExpected[] = {
      3205084042049880205ULL, 2015677800411501524ULL,
      1206992194438762961ULL, 3383085482131997314ULL,
      18183651420078755000ULL, 10592355606638847483ULL,
      18173886514082029195ULL, 7737943586903734041ULL,
      7246327287653925417ULL, 8157468267881725910ULL,
      3676232124826120616ULL, 9507903794212843387ULL,
      2183711198457909812ULL, 7414480965287002191ULL,
      13853524536964868217ULL, 14160079964197711901ULL,
      15158762950127608912ULL, 16202749888636556947ULL,
      17850644410533711430ULL, 9063087537010388289ULL,
      8695827773288095197ULL, 16775643144476287179ULL,
      6304843570301858671ULL, 2052670651532911647ULL,
      4625414974682923174ULL, 11740465204744075541ULL,
      13828635028046634207ULL, 4962000738260505675ULL,
      721286656856110563ULL, 2065969677941064045ULL,
      14757885340973795495ULL, 13549346891063380121ULL,
  };
  auto bed = GrowWarmBed(300);
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();
  const catalog::ViewSnapshot snapshot =
      server.views().SnapshotAt(server.views().epoch());
  ASSERT_GE(snapshot.size(), 300u);
  DecisionCounts total;
  size_t i = 0;
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v, ++i) {
      plan::Plan q = *workload::BuildQuery(a, v);
      auto outcome = server.rewriter().Rewrite(&q, snapshot);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      const uint64_t digest =
          HashString(RenderExplainRewrite(*outcome) +
                     outcome->decisions.ToJson() +
                     plan::Fingerprint(outcome->plan.root()));
      EXPECT_EQ(digest, kExpected[i]) << "A" << a << "v" << v;
      const DecisionCounts c = outcome->decisions.Counts();
      total.candidates += c.candidates;
      total.accepted += c.accepted;
      total.signature_mismatch += c.signature_mismatch;
      total.afk_containment += c.afk_containment;
      total.not_cost_improving += c.not_cost_improving;
      total.pruned_by_bound += c.pruned_by_bound;
    }
  }
  EXPECT_EQ(total.candidates, 105000u);
  EXPECT_EQ(total.accepted, 32u);
  EXPECT_EQ(total.signature_mismatch, 73389u);
  EXPECT_EQ(total.afk_containment, 0u);
  EXPECT_EQ(total.not_cost_improving, 0u);
  EXPECT_EQ(total.pruned_by_bound, 31579u);
}

// INIT's index walk partitions the snapshot exactly as IsRelevant does: for
// every target of the 32 queries, the views the decision log records as
// signature mismatches are those IsRelevant rejects, and every other view
// enters the search once as a single-view candidate.
TEST_F(RewriteTest, IndexedRelevanceMatchesFullScan) {
  auto bed = GrowWarmBed(300);
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();
  const catalog::ViewSnapshot snapshot =
      server.views().SnapshotAt(server.views().epoch());
  size_t targets = 0;
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v) {
      plan::Plan q = *workload::BuildQuery(a, v);
      auto outcome = server.rewriter().Rewrite(&q, snapshot);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      auto dag = plan::JobDag::Build(q);
      ASSERT_TRUE(dag.ok());
      const DecisionLog& log = outcome->decisions;
      ASSERT_EQ(log.targets.size(), dag->size());
      for (size_t t = 0; t < dag->size(); ++t, ++targets) {
        const std::vector<std::string> useful =
            UsefulSignatures(dag->job(t).op->afk);
        std::vector<std::string> relevant;
        std::vector<std::string> mismatched;
        for (const catalog::ViewDefinition* def : snapshot.All()) {
          (IsRelevant(def->afk, useful) ? relevant : mismatched)
              .push_back(std::to_string(def->id));
        }
        std::vector<std::string> logged_relevant;
        std::vector<std::string> logged_mismatched;
        for (const CandidateDecision& cd : log.Candidates(t)) {
          if (cd.reject == RejectReason::kSignatureMismatch) {
            logged_mismatched.push_back(cd.candidate_id);
          } else if (cd.num_parts == 1) {
            logged_relevant.push_back(cd.candidate_id);
          }
        }
        std::sort(relevant.begin(), relevant.end());
        std::sort(logged_relevant.begin(), logged_relevant.end());
        std::sort(logged_mismatched.begin(), logged_mismatched.end());
        std::sort(mismatched.begin(), mismatched.end());
        EXPECT_EQ(logged_relevant, relevant)
            << "A" << a << "v" << v << " target " << t;
        EXPECT_EQ(logged_mismatched, mismatched)
            << "A" << a << "v" << v << " target " << t;
      }
    }
  }
  EXPECT_GT(targets, 32u);
}

}  // namespace
}  // namespace opd::rewrite
