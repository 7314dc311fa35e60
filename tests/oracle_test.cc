// The engine checked against an independent oracle: the reference
// interpreter (tests/reference_interpreter.h), which shares no code with
// src/exec/. The paper's central promise is that a rewrite returns exactly
// the original answer, so every check has two halves: the original plan run
// by the engine (ORIG) and the plan BFREWRITE chose (REWR) must each equal
// the oracle's answer for the *original* plan, as multisets of exactly equal
// rows, at 1 and 8 engine threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "execute_and_publish.h"
#include "random_plans.h"
#include "reference_interpreter.h"
#include "rewrite/bf_rewrite.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/dfs.h"
#include "udf/builtin_udfs.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

namespace opd {
namespace {

using reference::Multiset;
using storage::Row;

constexpr int kThreadCounts[] = {1, 8};

// The oracle's answer for a fresh copy of `plan` (the copy keeps the
// caller's plan untouched by the oracle's annotation).
std::vector<Row> OracleRows(const plan::Plan& plan,
                            const plan::AnnotationContext& ctx,
                            storage::Dfs* dfs) {
  auto rows = reference::Evaluate(
      plan::Plan(plan::CloneTree(plan.root()), plan.name()), ctx, dfs);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Row>{};
}

// All 32 workload queries (8 analysts x 4 versions, in the paper's order)
// on data small enough for the oracle's nested loops, yet large enough that
// the queries' selective joins keep non-empty answers. Each query is rewritten against the views earlier queries
// left behind, then run as written.
TEST(OracleTest, WorkloadQueriesMatchOracle) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    workload::TestBedConfig config;
    config.data.n_tweets = 6000;
    config.data.n_checkins = 4000;
    config.data.n_locations = 300;
    config.data.n_users = 200;
    config.calibrate_udfs = false;
    config.session.engine.num_threads = threads;
    auto bed = workload::TestBed::Create(config);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    const plan::AnnotationContext ctx{&(*bed)->catalog(), &(*bed)->views(),
                                      &(*bed)->udfs()};
    int improved = 0, nonempty = 0;
    for (int analyst = 1; analyst <= 8; ++analyst) {
      for (int version = 1; version <= 4; ++version) {
        SCOPED_TRACE("A" + std::to_string(analyst) + "v" +
                     std::to_string(version));
        auto query = workload::BuildQuery(analyst, version);
        ASSERT_TRUE(query.ok()) << query.status().ToString();
        const auto expected =
            Multiset(OracleRows(*query, ctx, &(*bed)->dfs()));
        if (!expected.empty()) ++nonempty;

        auto rewr = (*bed)->RunRewritten(analyst, version);
        ASSERT_TRUE(rewr.ok()) << rewr.status().ToString();
        if (rewr->outcome.improved) ++improved;
        EXPECT_EQ(Multiset(rewr->exec.table->ToRows()), expected) << "REWR";

        auto orig = (*bed)->RunOriginal(analyst, version);
        ASSERT_TRUE(orig.ok()) << orig.status().ToString();
        EXPECT_EQ(Multiset(orig->table->ToRows()), expected) << "ORIG";
      }
    }
    // The comparisons must not be vacuous: most answers are non-empty at
    // this data size, and the REWR half compares real rewrites.
    EXPECT_GT(nonempty, 24);
    EXPECT_GT(improved, 0);
  }
}

// property_test's generated plans and revisions (tests/random_plans.h), on
// an engine with no recycler attached.
TEST(OracleTest, PropertyPlansMatchOracle) {
  for (int threads : kThreadCounts) {
    for (int seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " seed=" + std::to_string(seed));
      storage::Dfs dfs;
      catalog::Catalog catalog;
      catalog::ViewStore views;
      udf::UdfRegistry udfs;
      ASSERT_TRUE(udf::RegisterBuiltinUdfs(&udfs).ok());
      auto tweets = testing_plans::MakeTweets();
      ASSERT_NE(tweets, nullptr);
      ASSERT_TRUE(catalog.RegisterBase(tweets, {"tweet_id"}, &dfs).ok());
      const plan::AnnotationContext ctx{&catalog, &views, &udfs};
      optimizer::Optimizer optimizer(ctx, optimizer::CostModel());
      exec::EngineOptions options;
      options.num_threads = threads;
      exec::Engine engine(&dfs, &optimizer, options);
      rewrite::BfRewriter bfr(&optimizer, &views);

      Rng rng(seed * 6151 + 17);
      for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE("trial=" + std::to_string(trial));
        plan::Plan base = testing_plans::RandomPlan(&rng);
        const auto base_expected = Multiset(OracleRows(base, ctx, &dfs));
        auto orig = testing_exec::ExecuteAndPublish(engine, views, &base);
        ASSERT_TRUE(orig.ok()) << orig.status().ToString();
        EXPECT_EQ(Multiset(orig->table->ToRows()), base_expected) << "ORIG";

        plan::Plan revised = testing_plans::Mutate(base, &rng);
        const auto expected = Multiset(OracleRows(revised, ctx, &dfs));
        auto outcome = bfr.Rewrite(&revised);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        plan::Plan best = outcome->plan;
        auto rewr = testing_exec::ExecuteAndPublish(engine, views, &best);
        ASSERT_TRUE(rewr.ok()) << rewr.status().ToString();
        EXPECT_EQ(Multiset(rewr->table->ToRows()), expected) << "REWR";
      }
    }
  }
}

// An opaque predicate (a per-row black box) over enough tweets for several
// batches and map tasks: valid_geo keeps the tweets whose geo string parses,
// some but not all of them.
TEST(OracleTest, OpaqueFilterMatchesReference) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    workload::TestBedConfig config;
    config.data.n_tweets = 6000;
    config.calibrate_udfs = false;
    config.session.engine.num_threads = threads;
    auto bed = workload::TestBed::Create(config);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    const plan::AnnotationContext ctx{&(*bed)->catalog(), &(*bed)->views(),
                                      &(*bed)->udfs()};
    const plan::Plan query(
        plan::Filter(plan::Scan("TWTR"),
                     plan::FilterCond::Opaque("valid_geo", {"geo"})),
        "opaque");
    const auto expected = Multiset(OracleRows(query, ctx, &(*bed)->dfs()));

    RunOptions no_rewrite;
    no_rewrite.rewrite = false;
    auto run = (*bed)->session().Run(
        plan::Plan(plan::CloneTree(query.root()), "opaque"), no_rewrite);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->jobs.size(), 1u);
    EXPECT_GT(run->jobs[0].rows_in, storage::RowBatch::kDefaultRows);
    EXPECT_GT(run->jobs[0].map_tasks, 1u);
    EXPECT_GT(run->table->num_rows(), 0u);
    EXPECT_LT(run->table->num_rows(), run->jobs[0].rows_in);
    EXPECT_EQ(Multiset(run->table->ToRows()), expected);
  }
}

// sum() over int64 accumulates exactly, wrapping on overflow like Hive's
// BIGINT sum: a double accumulator would drop the low bits above 2^53.
TEST(OracleTest, IntegerSumIsExactAndWraps) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto server = Server::Create();
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ClientSession client = (*server)->Connect("default");
  auto big = std::make_shared<storage::Table>(
      "BIG", storage::Schema({{"k", storage::DataType::kInt64},
                              {"v", storage::DataType::kInt64}}));
  const std::vector<std::pair<int64_t, int64_t>> rows = {
      {1, kTwo53}, {1, 1}, {1, 1}, {2, kMax}, {2, 1}};
  for (const auto& [k, v] : rows) {
    ASSERT_TRUE(big->AppendRow({storage::Value(k), storage::Value(v)}).ok());
  }
  ASSERT_TRUE((*server)->RegisterTable(big, {"k"}).ok());

  const plan::Plan query(
      plan::GroupBy(plan::Scan("BIG"), {"k"},
                    {plan::AggSpec{plan::AggFn::kSum, "v", "s"}}),
      "g");
  RunOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto run = client.Run(plan::Plan(plan::CloneTree(query.root()), "g"),
                        no_rewrite);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Row> got = run->table->ToRows();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0][1].as_int64(), kTwo53 + 2);
  EXPECT_EQ(got[1][1].as_int64(), std::numeric_limits<int64_t>::min());

  const plan::AnnotationContext ctx{&(*server)->catalog(),
                                    &(*server)->views(), &(*server)->udfs()};
  EXPECT_EQ(Multiset(got), Multiset(OracleRows(query, ctx,
                                               &(*server)->dfs())));
}

}  // namespace
}  // namespace opd
