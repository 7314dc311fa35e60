// Tests for the rewrite machinery: GUESSCOMPLETE, OPTCOST (with its
// lower-bound invariant), MERGE, REWRITEENUM, the ViewFinder, and the three
// rewriters (BFR, DP, SYNTACTIC).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "catalog/catalog.h"
#include "common/hash.h"
#include "common/rng.h"
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
  const auto setup = MakeTargetSetup(q.root());
  EnumDeps deps = Deps();
  size_t verified = 0;
  for (const auto* def : views_.All()) {
    CandidateView c = MakeBaseCandidate(*def);
    double bound = OptCost(q.root()->afk, c, optimizer_->cost_model());
    if (!GuessComplete(q.root()->afk, c.afk)) continue;
    auto result = RewriteEnum(*setup, c, deps);
    if (result.has_value()) {
      EXPECT_GE(result->cost + 1e-9, bound)
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

// The proof obligation behind INIT's filter_not_implied exclusion, over
// random AFK pairs: when the target does not imply a part's filters, it
// does not imply any merge's filters either (MERGE takes the union of the
// parts' filters), so GUESSCOMPLETE rejects every merge containing that
// part. GUESSCOMPLETE's depth test (iii) is monotone the same way (a
// merge's depth is the larger of its parts'); INIT does not prune on it,
// which saves only a few pops per query (DESIGN.md §5).
TEST(MergePropertyTest, RejectedPartsStayRejectedInEveryMerge) {
  using afk::Afk;
  using afk::Attribute;
  using afk::Predicate;
  const std::vector<Attribute> universe = {
      Attribute::Base("T", "u", DataType::kInt64),
      Attribute::Base("T", "x", DataType::kInt64),
      Attribute::Base("T", "y", DataType::kInt64),
      Attribute::Base("T", "z", DataType::kInt64)};
  // Keyed on u, which every annotation carries, so most pairs merge.
  auto random_afk = [&universe](Rng* rng) {
    std::vector<Attribute> attrs = {universe[0]};
    for (size_t i = 1; i < universe.size(); ++i) {
      if (rng->Bernoulli(0.5)) attrs.push_back(universe[i]);
    }
    afk::FilterSet filters;
    for (int64_t i = rng->UniformInt(0, 2); i > 0; --i) {
      const Attribute& a = attrs[rng->Uniform(attrs.size())];
      if (rng->Bernoulli(0.2)) {
        filters.Add(Predicate::Opaque("f", {a}, "p"));
      } else {
        filters.Add(Predicate::Compare(a, static_cast<CmpOp>(rng->Uniform(6)),
                                       Value(rng->UniformInt(0, 3))));
      }
    }
    return Afk(std::move(attrs), std::move(filters),
               afk::KeySet({universe[0]},
                           static_cast<int>(rng->UniformInt(0, 2))));
  };
  Rng rng(20140622);
  size_t merges = 0, filter_rejected = 0, depth_rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const Afk q = random_afk(&rng);
    CandidateView a, b;
    a.parts = {1};
    a.afk = random_afk(&rng);
    b.parts = {2};
    b.afk = random_afk(&rng);
    const auto merged = MergeCandidates(a, b, 4);
    if (!merged.has_value()) continue;
    ++merges;
    for (const CandidateView* part : {&a, &b}) {
      if (!q.filters().ImpliesAll(part->afk.filters())) {
        ++filter_rejected;
        EXPECT_FALSE(GuessComplete(q, part->afk));
        EXPECT_FALSE(q.filters().ImpliesAll(merged->afk.filters()))
            << "q " << q.ToString() << "\n  part " << part->afk.ToString()
            << "\n  merge " << merged->afk.ToString();
        EXPECT_FALSE(GuessComplete(q, merged->afk));
      }
      if (part->afk.keys().agg_depth() > q.keys().agg_depth()) {
        ++depth_rejected;
        EXPECT_FALSE(GuessComplete(q, part->afk));
        EXPECT_FALSE(GuessComplete(q, merged->afk))
            << "q " << q.ToString() << "\n  merge " << merged->afk.ToString();
      }
    }
  }
  // The generator exercises both obligations many times.
  EXPECT_GT(merges, 10000u);
  EXPECT_GT(filter_rejected, 1000u);
  EXPECT_GT(depth_rejected, 1000u);
}

// --- REWRITEENUM -------------------------------------------------------------

TEST_F(RewriteTest, RewriteEnumExactMatchIsBareScan) {
  Execute(WineQuery(0.5, 5));
  plan::Plan q = WineQuery(0.5, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  const auto setup = MakeTargetSetup(q.root());
  for (const auto* def : views_.All()) {
    if (!(def->afk == q.root()->afk)) continue;
    auto result = RewriteEnum(*setup, MakeBaseCandidate(*def), Deps());
    ASSERT_TRUE(result.has_value());
    EXPECT_DOUBLE_EQ(result->cost, 0.0);
    EXPECT_EQ(result->plan.root()->kind, plan::OpKind::kScan);
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
  const auto setup = MakeTargetSetup(q.root());
  bool found = false;
  for (const auto* def : views_.All()) {
    if (!def->schema.Has("wine_score") || !def->schema.Has("cnt")) continue;
    if (RewriteEnum(*setup, MakeBaseCandidate(*def), Deps()).has_value()) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RewriteTest, RewriteEnumRejectsIncompatibleView) {
  // Query with *weaker* filter cannot be answered by the stronger view.
  Execute(WineQuery(1.0, 5));
  plan::Plan q = WineQuery(0.5, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  const auto setup = MakeTargetSetup(q.root());
  for (const auto* def : views_.All()) {
    if (!def->schema.Has("wine_score") || !def->schema.Has("cnt")) continue;
    // These joined views carry the >1.0 filter; the query wants >0.5.
    EXPECT_FALSE(
        RewriteEnum(*setup, MakeBaseCandidate(*def), Deps()).has_value());
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
  EXPECT_EQ(hits1, hits0);      // and no two of its targets are alike

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

// REWRITEENUM's outcome memo is bounded the same way: once
// kMaxEnumMemo + 1 distinct candidate AFKs have been enumerated for one
// target, the first one has been dropped and misses again.
TEST_F(RewriteTest, EnumMemoIsBounded) {
  auto& hits = obs::MetricRegistry::Global().counter("rewrite.enum.memo_hit");
  auto& misses =
      obs::MetricRegistry::Global().counter("rewrite.enum.memo_miss");
  plan::Plan q = WineQuery(0.5, 5);
  ASSERT_TRUE(optimizer_->Prepare(&q).ok());
  const afk::Afk& target = q.root()->afk;
  const auto setup = MakeTargetSetup(q.root());
  const EnumDeps deps = Deps();
  // Candidates that differ only in a filter the target lacks: distinct
  // canonical AFKs, none of them a rewrite.
  auto enumerate = [&](int i) {
    CandidateView c;
    afk::FilterSet filters;
    filters.Add(afk::Predicate::Compare(target.attrs()[0], CmpOp::kLt,
                                        Value(int64_t{i})));
    c.afk = afk::Afk(target.attrs(), filters, target.keys());
    EXPECT_FALSE(RewriteEnum(*setup, c, deps).has_value());
  };
  enumerate(0);
  const uint64_t hits0 = hits.value();
  enumerate(0);  // memoized: a hit
  EXPECT_EQ(hits.value(), hits0 + 1);

  for (int i = 1; i <= static_cast<int>(TargetSetup::kMaxEnumMemo); ++i) {
    enumerate(i);
  }
  EXPECT_LE(setup->enum_memo.size(), TargetSetup::kMaxEnumMemo);
  const uint64_t misses0 = misses.value();
  enumerate(0);
  EXPECT_EQ(misses.value(), misses0 + 1);
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
      const auto setup = MakeTargetSetup(dag->job(i).op);
      const TargetContext& target = setup->target;
      for (const auto* def : views_.All()) {
        CandidateView c = MakeBaseCandidate(*def);
        if (GuessComplete(target.afk, c.afk)) continue;
        EXPECT_FALSE(RewriteEnum(*setup, c, deps).has_value())
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
                counts.filter_not_implied + counts.afk_containment +
                counts.not_cost_improving + counts.pruned_by_bound);

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
      if (cd.reject == RejectReason::kSignatureMismatch ||
          cd.reject == RejectReason::kFilterNotImplied) {
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

// A 2000-tweet server with calibration off and an empty store.
std::unique_ptr<workload::TestBed> SmallBed() {
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
  return std::move(bed).value();
}

// SmallBed's server, its store grown with rewriting off as perfbench's
// GrowStore grows it: the 32 queries, then rounds of variants with a
// distinct always-true filter on top, until the store holds at least
// `target_views` views.
std::unique_ptr<workload::TestBed> GrowWarmBed(size_t target_views) {
  auto bed = SmallBed();
  if (bed == nullptr) return nullptr;
  Server& server = bed->session().server();
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
  return bed;
}

// FNV-1a digests of the EXPLAIN REWRITE text, the decision-log JSON and the
// rewritten plan's fingerprint for each of the 32 queries (A1v1..A8v4)
// against a 300-view warm store, and the summed decision counts. They pin
// the search's output across refactors of the rewriter. They were last
// re-recorded when INIT began excluding the views whose filters a target
// does not imply: the pops stayed as they were, and 27,933 of the 31,579
// candidates the bound used to prune became filter_not_implied exclusions
// (candidates 105000, accepted 32 and signature_mismatch 73389 did not move).
TEST_F(RewriteTest, WarmDecisionLogMatchesParentDigest) {
  const uint64_t kExpected[] = {
      8628200921575834493ULL, 17011031837551682522ULL,
      13038296832744412039ULL, 10643675390849380550ULL,
      11978713115980654010ULL, 14060402845328274035ULL,
      17585635818818349031ULL, 6668484657236857601ULL,
      9247636483909106125ULL, 3199843890361261876ULL,
      5489484095537320732ULL, 13060328219019172651ULL,
      8293989968205458912ULL, 2700429604061333651ULL,
      4179905035834261667ULL, 17700819777363076917ULL,
      11451756637885884180ULL, 9909968915733419973ULL,
      12801497869818909156ULL, 16272834413137976791ULL,
      1844149142201675089ULL, 12028682403015094867ULL,
      2813077261357339607ULL, 6833975596004487111ULL,
      101444117574094328ULL, 10605292030505882101ULL,
      16052644988778877879ULL, 16088433209733760823ULL,
      16723134558300071559ULL, 608106439329418667ULL,
      2931897074244293647ULL, 17848087466836794651ULL,
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
      total.filter_not_implied += c.filter_not_implied;
      total.afk_containment += c.afk_containment;
      total.not_cost_improving += c.not_cost_improving;
      total.pruned_by_bound += c.pruned_by_bound;
    }
  }
  EXPECT_EQ(total.candidates, 105000u);
  EXPECT_EQ(total.accepted, 32u);
  EXPECT_EQ(total.signature_mismatch, 73389u);
  EXPECT_EQ(total.filter_not_implied, 27933u);
  EXPECT_EQ(total.afk_containment, 0u);
  EXPECT_EQ(total.not_cost_improving, 0u);
  EXPECT_EQ(total.pruned_by_bound, 3646u);
}

// --- Rewrite choices ---------------------------------------------------------

/// What a rewrite chose and what the search paid to choose it: the
/// rewritten plan's fingerprint (hashed), `est_cost` bit for bit, and the
/// REWRITEENUM attempts and valid rewrites behind it.
struct Choice {
  uint64_t plan = 0;
  uint64_t est_cost_bits = 0;
  size_t attempts = 0;
  size_t found = 0;
  bool operator==(const Choice&) const = default;
};

Choice ChoiceOf(const RewriteOutcome& outcome) {
  return Choice{HashString(plan::Fingerprint(outcome.plan.root())),
                std::bit_cast<uint64_t>(outcome.est_cost),
                outcome.stats.rewrite_attempts, outcome.stats.rewrites_found};
}

std::string ChoiceString(const Choice& c) {
  return "{" + std::to_string(c.plan) + "ULL, " +
         std::to_string(c.est_cost_bits) + "ULL, " +
         std::to_string(c.attempts) + ", " + std::to_string(c.found) + "}";
}

/// The choices of the 32 queries (A1v1..A8v4), recorded before the search
/// learned to skip what cannot help it: INIT excluding views whose filters
/// the target does not imply, and REWRITEENUM replaying memoized outcomes.
/// Neither may change a plan, a cost bit or a search count.
/// kWarmChoices: each query against GrowWarmBed(300)'s snapshot.
/// kEvolveChoices: one pass in order with rewriting on, from an empty
/// store, each query rewritten against its predecessors' views.
const Choice kWarmChoices[] = {
    {6913329907183890820ULL, 0ULL, 1, 1},
    {10452598717166717617ULL, 0ULL, 1, 1},
    {12287840854327213315ULL, 0ULL, 1, 1},
    {12289683635815716501ULL, 0ULL, 1, 1},
    {12281089852931322350ULL, 0ULL, 1, 1},
    {11753521084117006144ULL, 0ULL, 1, 1},
    {13593565888068581365ULL, 0ULL, 1, 1},
    {13590711555882313284ULL, 0ULL, 1, 1},
    {12939746796081542995ULL, 0ULL, 1, 1},
    {14873478786831177054ULL, 0ULL, 1, 1},
    {14883932943390125767ULL, 0ULL, 1, 1},
    {14230166627961241525ULL, 0ULL, 1, 1},
    {16064344437865818200ULL, 0ULL, 1, 1},
    {16063372469586668901ULL, 0ULL, 1, 1},
    {16061529688098165715ULL, 0ULL, 1, 1},
    {16065373580749634471ULL, 0ULL, 1, 1},
    {15409623746343836035ULL, 0ULL, 1, 1},
    {15411466527832339221ULL, 0ULL, 1, 1},
    {15415363197041962105ULL, 0ULL, 1, 1},
    {13073634778498775775ULL, 0ULL, 1, 1},
    {13076449528266428260ULL, 0ULL, 1, 1},
    {13724581946113494688ULL, 0ULL, 1, 1},
    {13722616019322631870ULL, 0ULL, 1, 1},
    {13721661643229533947ULL, 0ULL, 1, 1},
    {13732181770486175320ULL, 0ULL, 1, 1},
    {14380331780519293124ULL, 0ULL, 1, 1},
    {14378401038100533058ULL, 0ULL, 1, 1},
    {14373567584983863627ULL, 0ULL, 1, 1},
    {14387966789264076508ULL, 0ULL, 1, 1},
    {15036064022739040184ULL, 0ULL, 1, 1},
    {15039872731018406188ULL, 0ULL, 1, 1},
    {15026498271575496734ULL, 0ULL, 1, 1},
};
const Choice kEvolveChoices[] = {
    {17990391167480329693ULL, 4668411628385471760ULL, 0, 0},
    {14538325742650882869ULL, 4659188700667871532ULL, 6, 3},
    {13974816953603889714ULL, 4627540364935462532ULL, 3, 3},
    {4134718177040298248ULL, 4636955909792792803ULL, 11, 8},
    {169365118179476183ULL, 4661799193455159504ULL, 4, 3},
    {10052104413630209283ULL, 4644906323998393254ULL, 13, 12},
    {10159405165828913508ULL, 4647311520731133990ULL, 19, 10},
    {7739157882678419943ULL, 4629168186644777692ULL, 66, 234},
    {12931404283825685976ULL, 4659798524188704332ULL, 0, 0},
    {1329303587334859970ULL, 4656060457250284724ULL, 16, 25},
    {9273432183446716466ULL, 4637200618655910444ULL, 16, 33},
    {595936271110248289ULL, 4656274835963032731ULL, 22, 11},
    {10966181466181542052ULL, 4657280024627962425ULL, 2, 4},
    {7578405334980739894ULL, 4630340622608127268ULL, 2, 2},
    {13687237094910437408ULL, 4631253878984001142ULL, 4, 3},
    {8557097459166551214ULL, 4633851319118193045ULL, 3, 4},
    {1622675212379167340ULL, 4643947847278696501ULL, 7, 4},
    {15944830264342095200ULL, 4625414912033748226ULL, 2, 3},
    {15761080114982768593ULL, 4636578273281782567ULL, 16, 3},
    {738219114882753008ULL, 4637101526426268600ULL, 21, 21},
    {951556279055012675ULL, 4664272728423085091ULL, 2, 2},
    {15629394840812259396ULL, 4660173061338754737ULL, 11, 3},
    {8672853895098049936ULL, 4631596928216282221ULL, 5, 4},
    {15265333372887042608ULL, 4627405026392518842ULL, 1, 1},
    {16099812633058561360ULL, 4652783132592649768ULL, 26, 15},
    {12090696060795697128ULL, 4627632112747740425ULL, 4, 3},
    {11916237412712836701ULL, 4635506985417599215ULL, 9, 3},
    {13689279974313267538ULL, 4627999103996851992ULL, 4, 3},
    {12062764596855824246ULL, 4662861954405663875ULL, 2, 2},
    {61111646198958733ULL, 4659015263269119516ULL, 7, 3},
    {18141103086121937332ULL, 4650673316769516340ULL, 17, 5},
    {4915632368279423766ULL, 4644757559939877432ULL, 2, 2},
};

TEST_F(RewriteTest, WarmChoicesMatchParentGolden) {
  auto bed = GrowWarmBed(300);
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();
  const catalog::ViewSnapshot snapshot =
      server.views().SnapshotAt(server.views().epoch());
  size_t i = 0;
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v, ++i) {
      plan::Plan q = *workload::BuildQuery(a, v);
      auto outcome = server.rewriter().Rewrite(&q, snapshot);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      const Choice got = ChoiceOf(*outcome);
      ASSERT_LT(i, std::size(kWarmChoices));
      EXPECT_EQ(got, kWarmChoices[i])
          << "A" << a << "v" << v << " got " << ChoiceString(got);
    }
  }
}

TEST_F(RewriteTest, EvolveChoicesMatchParentGolden) {
  auto bed = SmallBed();
  ASSERT_NE(bed, nullptr);
  size_t i = 0;
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v, ++i) {
      auto run = bed->session().Run(*workload::BuildQuery(a, v));
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_TRUE(run->rewritten);
      const Choice got = ChoiceOf(run->rewrite);
      ASSERT_LT(i, std::size(kEvolveChoices));
      EXPECT_EQ(got, kEvolveChoices[i])
          << "A" << a << "v" << v << " got " << ChoiceString(got);
    }
  }
}

// The choices of the rewriter ablation (bench/ablation_rewriter.cc) on
// SmallBed: each analyst's third query against the views of every
// analyst's first two, under BFR with J = 4, 1, 2 and k = 2, and with
// k = 1. They were recorded when REWRITEENUM still built and costed every
// memoized sequence in full. Unlike the evolve and warm searches, these
// reach compensation prefixes that already cost at least the best rewrite
// found, so they pin the replay's bound: it may not change a plan, a cost
// bit, an attempt or a `rewrites_found`.
const Choice kAblationChoices[][workload::kNumAnalysts] = {
    {{13974816953603889714ULL, 4627540364935462532ULL, 3, 3},
     {13786475984292313731ULL, 4644250834162484661ULL, 28, 11},
     {13653411378480677049ULL, 4637200618655910444ULL, 25, 45},
     {11433626037817235290ULL, 4631253878984001142ULL, 5, 3},
     {8705923825682714742ULL, 4644758021288191237ULL, 17, 4},
     {18430613062476833576ULL, 4631596928216282221ULL, 5, 4},
     {14176332278317398280ULL, 4652322639332843412ULL, 26, 14},
     {4958870470729842268ULL, 4651170965778888134ULL, 24, 6}},
    {{13974816953603889714ULL, 4627540364935462532ULL, 3, 3},
     {13786475984292313731ULL, 4644250834162484661ULL, 20, 11},
     {13653411378480677049ULL, 4637200618655910444ULL, 18, 33},
     {11433626037817235290ULL, 4631253878984001142ULL, 5, 3},
     {8705923825682714742ULL, 4644758021288191237ULL, 17, 4},
     {18430613062476833576ULL, 4631596928216282221ULL, 5, 4},
     {14176332278317398280ULL, 4652322639332843412ULL, 26, 14},
     {4958870470729842268ULL, 4651170965778888134ULL, 24, 6}},
    {{13974816953603889714ULL, 4627540364935462532ULL, 3, 3},
     {13786475984292313731ULL, 4644250834162484661ULL, 28, 11},
     {13653411378480677049ULL, 4637200618655910444ULL, 25, 45},
     {11433626037817235290ULL, 4631253878984001142ULL, 5, 3},
     {8705923825682714742ULL, 4644758021288191237ULL, 17, 4},
     {18430613062476833576ULL, 4631596928216282221ULL, 5, 4},
     {14176332278317398280ULL, 4652322639332843412ULL, 26, 14},
     {4958870470729842268ULL, 4651170965778888134ULL, 24, 6}},
    {{13974816953603889714ULL, 4627540364935462532ULL, 3, 1},
     {13786475984292313731ULL, 4644250834162484661ULL, 28, 6},
     {13653411378480677049ULL, 4637200618655910444ULL, 25, 21},
     {11433626037817235290ULL, 4631253878984001142ULL, 5, 3},
     {8705923825682714742ULL, 4644758021288191237ULL, 17, 4},
     {18430613062476833576ULL, 4631596928216282221ULL, 5, 4},
     {14176332278317398280ULL, 4652322639332843412ULL, 26, 11},
     {13845990747130373478ULL, 4652007973543438844ULL, 27, 5}},
};

TEST_F(RewriteTest, AblationChoicesMatchParentGolden) {
  auto bed = SmallBed();
  ASSERT_NE(bed, nullptr);
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    ASSERT_TRUE(bed->RunOriginal(a, 1).ok());
    ASSERT_TRUE(bed->RunOriginal(a, 2).ok());
  }
  RewriteOptions variants[4];
  variants[1].max_views_per_rewrite = 1;
  variants[2].max_views_per_rewrite = 2;
  variants[3].max_op_repetition = 1;
  for (size_t v = 0; v < std::size(variants); ++v) {
    BfRewriter rewriter(&bed->optimizer(), &bed->views(), variants[v]);
    for (int a = 1; a <= workload::kNumAnalysts; ++a) {
      plan::Plan q = *workload::BuildQuery(a, 3);
      auto outcome = rewriter.Rewrite(&q);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      const Choice got = ChoiceOf(*outcome);
      EXPECT_EQ(got, kAblationChoices[v][a - 1])
          << "variant " << v << " A" << a << "v3 got " << ChoiceString(got);
    }
  }
}

// --- REWRITEENUM's outcome memo ----------------------------------------------

/// Replays the ViewFinder search of one target, `pops` refinements over
/// `setup`, and returns each refinement's result. With `fresh`, the setup's
/// outcome memo is emptied before every refinement, so every attempt runs
/// its own DFS.
std::vector<std::optional<EnumResult>> RefineTarget(
    const std::shared_ptr<const TargetSetup>& setup, const EnumDeps& deps,
    size_t pops, bool fresh) {
  TargetDecision decision;
  ViewFinder finder;
  finder.Init(setup, deps, &decision);
  std::vector<std::optional<EnumResult>> out;
  for (size_t i = 0; i < pops && !finder.exhausted(); ++i) {
    if (fresh) {
      std::lock_guard<std::mutex> lock(setup->enum_memo_mu);
      setup->enum_memo.clear();
    }
    out.push_back(finder.Refine());
  }
  return out;
}

/// Checks one REWRITEENUM result on its own: its `cost` is, bit for bit,
/// what a fresh `Optimizer::PlanCost` gives a clone of its plan (no node
/// annotated or estimated before), and the plan is one chain of unary
/// operators over a candidate scan (view scans and the joins between
/// them), with no node the chain does not reach from its root.
void ExpectSelfConsistent(const EnumResult& result,
                          const optimizer::Optimizer& optimizer,
                          const catalog::ViewSnapshot& snapshot,
                          const std::string& where) {
  plan::Plan clone(plan::CloneTree(result.plan.root()), "clone");
  auto cost = optimizer.PlanCost(&clone, &snapshot);
  ASSERT_TRUE(cost.ok()) << where << ": " << cost.status().ToString();
  EXPECT_EQ(std::bit_cast<uint64_t>(*cost),
            std::bit_cast<uint64_t>(result.cost))
      << where;

  const std::vector<plan::OpNodePtr> topo = result.plan.TopoOrder();
  ASSERT_FALSE(topo.empty()) << where;
  EXPECT_EQ(topo.back(), result.plan.root()) << where;
  size_t scan_nodes = 0;
  size_t view_scans = 0;
  while (scan_nodes < topo.size() &&
         (topo[scan_nodes]->kind == plan::OpKind::kScan ||
          topo[scan_nodes]->kind == plan::OpKind::kJoin)) {
    const plan::OpNode& node = *topo[scan_nodes];
    if (node.kind == plan::OpKind::kScan) {
      EXPECT_GE(node.view_id, 0) << where;
      EXPECT_TRUE(node.children.empty()) << where;
      view_scans += 1;
    } else {
      EXPECT_EQ(node.children.size(), 2u) << where;
    }
    ++scan_nodes;
  }
  ASSERT_GE(view_scans, 1u) << where;
  // A left-deep join of n views has n scans and n - 1 joins.
  EXPECT_EQ(scan_nodes, 2 * view_scans - 1) << where;
  for (size_t i = scan_nodes; i < topo.size(); ++i) {
    EXPECT_NE(topo[i]->kind, plan::OpKind::kScan) << where;
    EXPECT_NE(topo[i]->kind, plan::OpKind::kJoin) << where;
    ASSERT_EQ(topo[i]->children.size(), 1u) << where;
    EXPECT_EQ(topo[i]->children[0], topo[i - 1]) << where;
  }
}

/// Memo-hit fidelity over the 32 queries: for every candidate the BFR
/// search refines against a snapshot, REWRITEENUM through the setup the
/// search keeps for that target (`setups`, by fingerprint, filled as the
/// rewriter's target memo is) returns what a fresh enumeration returns —
/// the plan's fingerprint, its cost bit for bit and `rewrites_found`.
/// Every result, memoized or fresh, is also ExpectSelfConsistent.
class EnumMemoChecker {
 public:
  explicit EnumMemoChecker(Server* server) : server_(server) {}

  /// Checks query (a, v) against `snapshot`; returns the REWRITEENUM memo
  /// hits and misses of the memoized side.
  std::pair<uint64_t, uint64_t> Check(int a, int v,
                                      const catalog::ViewSnapshot& snapshot) {
    auto& hits = obs::MetricRegistry::Global().counter("rewrite.enum.memo_hit");
    auto& misses =
        obs::MetricRegistry::Global().counter("rewrite.enum.memo_miss");
    plan::Plan q = *workload::BuildQuery(a, v);
    auto outcome = server_->rewriter().Rewrite(&q, snapshot);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto dag = plan::JobDag::Build(q);
    EXPECT_TRUE(dag.ok());
    if (!outcome.ok() || !dag.ok()) return {0, 0};
    EnumDeps deps;
    deps.optimizer = &server_->optimizer();
    deps.views = &snapshot;
    deps.udfs = server_->optimizer().context().udfs;
    deps.options = server_->rewriter().options();
    uint64_t hit = 0, miss = 0;
    for (size_t t = 0; t < dag->size(); ++t) {
      const plan::OpNodePtr& op = dag->job(t).op;
      std::shared_ptr<const TargetSetup>& setup =
          setups_[plan::Fingerprint(op)];
      if (setup == nullptr) setup = MakeTargetSetup(op);
      const size_t pops = outcome->decisions.targets[t].pops.size();
      const uint64_t hits0 = hits.value(), misses0 = misses.value();
      const auto memoized = RefineTarget(setup, deps, pops, false);
      hit += hits.value() - hits0;
      miss += misses.value() - misses0;
      const auto fresh = RefineTarget(MakeTargetSetup(op), deps, pops, true);
      EXPECT_EQ(memoized.size(), pops);
      EXPECT_EQ(fresh.size(), pops);
      for (size_t i = 0; i < std::min(memoized.size(), fresh.size()); ++i) {
        const std::string where = "A" + std::to_string(a) + "v" +
                                  std::to_string(v) + " target " +
                                  std::to_string(t) + " pop " +
                                  std::to_string(i);
        EXPECT_EQ(memoized[i].has_value(), fresh[i].has_value()) << where;
        if (!fresh[i].has_value() || !memoized[i].has_value()) continue;
        ++attempts_with_rewrite_;
        ExpectSelfConsistent(*memoized[i], server_->optimizer(), snapshot,
                             where + " (memoized)");
        ExpectSelfConsistent(*fresh[i], server_->optimizer(), snapshot,
                             where + " (fresh)");
        EXPECT_EQ(plan::Fingerprint(memoized[i]->plan.root()),
                  plan::Fingerprint(fresh[i]->plan.root()))
            << where;
        EXPECT_EQ(std::bit_cast<uint64_t>(memoized[i]->cost),
                  std::bit_cast<uint64_t>(fresh[i]->cost))
            << where;
        EXPECT_EQ(memoized[i]->rewrites_found, fresh[i]->rewrites_found)
            << where;
      }
    }
    return {hit, miss};
  }

  size_t attempts_with_rewrite() const { return attempts_with_rewrite_; }

 private:
  Server* server_;
  std::map<std::string, std::shared_ptr<const TargetSetup>> setups_;
  size_t attempts_with_rewrite_ = 0;
};

// Against one warm snapshot, twice: the second pass replays every outcome
// the first pass enumerated.
TEST_F(RewriteTest, EnumMemoHitMatchesFreshEnumerationOnWarmStore) {
  auto bed = GrowWarmBed(300);
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();
  const catalog::ViewSnapshot snapshot =
      server.views().SnapshotAt(server.views().epoch());
  EnumMemoChecker checker(&server);
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t hits = 0, misses = 0;
    for (int a = 1; a <= workload::kNumAnalysts; ++a) {
      for (int v = 1; v <= workload::kNumVersions; ++v) {
        const auto [h, m] = checker.Check(a, v, snapshot);
        hits += h;
        misses += m;
      }
    }
    if (pass == 1) {
      EXPECT_GT(hits, 0u);
      EXPECT_EQ(misses, 0u);
    }
  }
  EXPECT_GT(checker.attempts_with_rewrite(), 32u);
}

// Two evolve passes from an empty store, each query checked against its
// predecessors' views: the second pass rebuilds the same views under new
// ids, so its candidates hit outcomes enumerated for other views.
TEST_F(RewriteTest, EnumMemoHitMatchesFreshEnumerationOverEvolvePasses) {
  auto bed = SmallBed();
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();
  EnumMemoChecker checker(&server);
  for (int pass = 0; pass < 2; ++pass) {
    bed->DropAllViews();
    uint64_t hits = 0, misses = 0;
    for (int a = 1; a <= workload::kNumAnalysts; ++a) {
      for (int v = 1; v <= workload::kNumVersions; ++v) {
        const catalog::ViewSnapshot snapshot =
            server.views().SnapshotAt(server.views().epoch());
        const auto [h, m] = checker.Check(a, v, snapshot);
        hits += h;
        misses += m;
        ASSERT_TRUE(bed->session().Run(*workload::BuildQuery(a, v)).ok());
      }
    }
    if (pass == 1) {
      EXPECT_GT(hits, 0u);
      EXPECT_EQ(misses, 0u);
    }
  }
  EXPECT_GT(checker.attempts_with_rewrite(), 32u);
}

// REWRITEENUM's replay prepares each prefix of its memoized DFS tree at
// most once per call. On the evolve pass A2v4 makes 66 REWRITEENUM calls
// (kEvolveChoices), 26 of them with a non-empty tree, and those trees hold
// 840 nodes: 164 candidate scan and join nodes, 442 non-empty prefixes and
// 234 final projections. Building and costing each of the 234 sequences in
// full prepares 2,412.
TEST_F(RewriteTest, EnumReplayPreparesEachPrefixAtMostOnce) {
  constexpr uint64_t kA2v4PrefixTreeNodes = 840;
  auto bed = SmallBed();
  ASSERT_NE(bed, nullptr);
  obs::Counter& costed =
      obs::MetricRegistry::Global().counter("rewrite.enum.nodes_costed");
  for (int a = 1; a <= 2; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v) {
      const uint64_t before = costed.value();
      auto run = bed->session().Run(*workload::BuildQuery(a, v));
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      if (a == 2 && v == 4) {
        EXPECT_EQ(ChoiceOf(run->rewrite), kEvolveChoices[7]);
        const uint64_t a2v4 = costed.value() - before;
        EXPECT_GT(a2v4, 0u);
        EXPECT_LE(a2v4, kA2v4PrefixTreeNodes);
      }
    }
  }
}

// Four threads rewrite A2v4, the evolve pass's largest search, against one
// snapshot through one BfRewriter, so they share its target memo and the
// setups' REWRITEENUM memos: first cold (racing to fill them), then warm.
// Every result is the serial choice: plan, cost bits, attempts and
// rewrites_found.
TEST_F(RewriteTest, ConcurrentRewritesShareMemosAndMatchSerial) {
  auto bed = SmallBed();
  ASSERT_NE(bed, nullptr);
  for (int a = 1; a <= 2; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v) {
      if (a == 2 && v == 4) break;
      ASSERT_TRUE(bed->session().Run(*workload::BuildQuery(a, v)).ok());
    }
  }
  Server& server = bed->session().server();
  const catalog::ViewSnapshot snapshot =
      server.views().SnapshotAt(server.views().epoch());
  const RewriteOptions& options = server.rewriter().options();

  BfRewriter serial(&server.optimizer(), &server.views(), options);
  plan::Plan q = *workload::BuildQuery(2, 4);
  auto want = serial.Rewrite(&q, snapshot);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const Choice serial_choice = ChoiceOf(*want);
  EXPECT_EQ(serial_choice, kEvolveChoices[7])
      << "got " << ChoiceString(serial_choice);

  constexpr int kThreads = 4;
  BfRewriter shared(&server.optimizer(), &server.views(), options);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::optional<Choice>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        plan::Plan p = *workload::BuildQuery(2, 4);
        auto outcome = shared.Rewrite(&p, snapshot);
        if (outcome.ok()) got[t] = ChoiceOf(*outcome);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(got[t].has_value()) << "round " << round << " thread " << t;
      EXPECT_EQ(*got[t], serial_choice)
          << "round " << round << " thread " << t << " got "
          << ChoiceString(*got[t]);
    }
  }
}

// INIT's index walk partitions the snapshot exactly as IsRelevant does: for
// every target of the 32 queries, the views the decision log records as
// signature mismatches are those IsRelevant rejects, and every other view
// appears once as a single-view candidate. Of those, the filter_not_implied
// exclusions are exactly the views whose filters the target does not imply.
TEST_F(RewriteTest, IndexedRelevanceMatchesFullScan) {
  auto bed = GrowWarmBed(300);
  ASSERT_NE(bed, nullptr);
  Server& server = bed->session().server();
  const catalog::ViewSnapshot snapshot =
      server.views().SnapshotAt(server.views().epoch());
  size_t targets = 0;
  size_t not_implied_total = 0;
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
        const afk::FilterSet& filters = dag->job(t).op->afk.filters();
        std::vector<std::string> relevant;
        std::vector<std::string> mismatched;
        std::vector<std::string> not_implied;
        for (const catalog::ViewDefinition* def : snapshot.All()) {
          const std::string id = std::to_string(def->id);
          if (!IsRelevant(def->afk, useful)) {
            mismatched.push_back(id);
            continue;
          }
          relevant.push_back(id);
          if (!filters.ImpliesAll(def->afk.filters())) {
            not_implied.push_back(id);
          }
        }
        std::vector<std::string> logged_relevant;
        std::vector<std::string> logged_mismatched;
        std::vector<std::string> logged_not_implied;
        for (const CandidateDecision& cd : log.Candidates(t)) {
          if (cd.reject == RejectReason::kSignatureMismatch) {
            logged_mismatched.push_back(cd.candidate_id);
            continue;
          }
          if (cd.num_parts == 1) logged_relevant.push_back(cd.candidate_id);
          if (cd.reject == RejectReason::kFilterNotImplied) {
            logged_not_implied.push_back(cd.candidate_id);
          }
        }
        for (auto* ids : {&relevant, &mismatched, &not_implied,
                          &logged_relevant, &logged_mismatched,
                          &logged_not_implied}) {
          std::sort(ids->begin(), ids->end());
        }
        EXPECT_EQ(logged_relevant, relevant)
            << "A" << a << "v" << v << " target " << t;
        EXPECT_EQ(logged_mismatched, mismatched)
            << "A" << a << "v" << v << " target " << t;
        EXPECT_EQ(logged_not_implied, not_implied)
            << "A" << a << "v" << v << " target " << t;
        not_implied_total += not_implied.size();
      }
    }
  }
  EXPECT_GT(targets, 32u);
  EXPECT_EQ(not_implied_total, 27933u);  // WarmDecisionLogMatchesParentDigest
}

}  // namespace
}  // namespace opd::rewrite
