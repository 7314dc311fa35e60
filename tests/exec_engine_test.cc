// Integration tests for the MapReduce simulator: correct operator execution,
// opportunistic view materialization, metrics, and stats collection.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "exec/hash/recycler.h"
#include "exec/udf_exec.h"
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
using storage::Row;
using storage::RowBatch;
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

// UDF_TOKENIZE under another name. `on_schema` runs whenever its schema is
// derived (at Prepare and when the job runs); `on_map` runs in each map task.
udf::UdfDefinition TokenizeUdf(const std::string& name,
                               std::function<void()> on_schema,
                               std::function<void()> on_map) {
  udf::UdfDefinition udf = udf::MakeTokenizeUdf();
  udf.name = name;
  udf::LocalFunction& lf = udf.local_functions.front();
  lf.out_schema = [on_schema, inner = lf.out_schema](
                      const Schema& in, const udf::Params& params) {
    on_schema();
    return inner(in, params);
  };
  lf.map_fn = [on_map, inner = lf.map_fn](const RowBatch& in,
                                          const udf::LfContext& ctx) {
    on_map();
    return inner(in, ctx);
  };
  return udf;
}

// A traced run whose independent branches fail (jobs 1 and 3; job 0
// succeeds and is finalized first) returns the lowest-index job's error,
// deletes every DFS file of the run, and leaves a well-formed trace with
// the same structure at every thread count. At one thread the jobs run in
// order, so job 3 is due only after job 1 has failed, and is skipped.
TEST_F(EngineTest, TracedRunWithAFailingBranchFailsCleanly) {
  auto b_maps = std::make_shared<std::atomic<int>>(0);
  for (const char* branch : {"A", "B"}) {
    const std::string message = std::string("injected failure ") + branch;
    const bool count = branch == std::string("B");
    ASSERT_TRUE(udfs_.Register(TokenizeUdf(
                                   std::string("UDF_FAIL_") + branch, [] {},
                                   [message, count, b_maps] {
                                     if (count) ++*b_maps;
                                     throw std::runtime_error(message);
                                   }))
                    .ok());
  }
  // Jobs: 0 counts, 1 UDF_FAIL_A, 2 the inner join, 3 UDF_FAIL_B, 4 its
  // group-by, 5 the outer join.
  const auto make_plan = [] {
    auto counts = plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                                {AggSpec{AggFn::kCount, "", "cnt"}});
    auto left =
        plan::Join(counts, plan::Udf(plan::Scan("TWTR"), "UDF_FAIL_A", {}),
                   {{"user_id", "user_id"}});
    auto right =
        plan::GroupBy(plan::Udf(plan::Scan("TWTR"), "UDF_FAIL_B", {}),
                      {"user_id"}, {AggSpec{AggFn::kCount, "", "n"}});
    return plan::Plan(plan::Join(left, right, {{"user_id", "user_id"}}),
                      "failing_branches");
  };
  const std::vector<std::string> paths_before = dfs_.ListPaths();
  std::string structure_at_one_thread;
  for (int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    Engine engine(&dfs_, optimizer_.get(), EngineOptions{threads, 0, true});
    obs::Trace trace;
    obs::TraceSpan query(&trace, 0, "query");
    plan::Plan plan = make_plan();
    b_maps->store(0);
    auto result = engine.Execute(&plan, &trace, query.id());
    query.End();
    ASSERT_FALSE(result.ok());
    if (threads == 1) {
      EXPECT_EQ(b_maps->load(), 0);
    }
    EXPECT_NE(result.status().ToString().find("injected failure A"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_EQ(dfs_.ListPaths(), paths_before);

    std::set<uint64_t> ids;
    for (const obs::SpanRecord& span : trace.Sorted()) {
      EXPECT_TRUE(ids.insert(span.id).second) << span.id;
    }
    for (const obs::SpanRecord& span : trace.Sorted()) {
      EXPECT_TRUE(span.parent == 0 || ids.count(span.parent) == 1)
          << span.name << " has no parent " << span.parent;
    }
    const std::string structure = trace.StructureString();
    EXPECT_NE(structure.find("job:GROUPBY(user_id)"), std::string::npos);
    EXPECT_NE(structure.find("job:UDF(UDF_FAIL_A)"), std::string::npos);
    if (threads == 1) {
      structure_at_one_thread = structure;
    } else {
      EXPECT_EQ(structure, structure_at_one_thread);
    }
  }
}

// The job driver hops to the pool only to run independent jobs at once:
// a one-job plan on a pooled engine, and every plan on a one-thread engine,
// run their jobs on the calling thread.
TEST_F(EngineTest, SingleJobPlansAndOneThreadEnginesRunJobsInline) {
  auto threads_seen = std::make_shared<std::set<std::thread::id>>();
  auto mu = std::make_shared<std::mutex>();
  ASSERT_TRUE(udfs_.Register(TokenizeUdf(
                                 "UDF_RECORD_THREAD",
                                 [threads_seen, mu] {
                                   std::lock_guard<std::mutex> lock(*mu);
                                   threads_seen->insert(
                                       std::this_thread::get_id());
                                 },
                                 [] {}))
                  .ok());
  const auto single_job = [] {
    return plan::Plan(plan::Udf(plan::Scan("TWTR"), "UDF_RECORD_THREAD", {}));
  };
  const auto three_jobs = [] {
    auto counts = plan::GroupBy(plan::Scan("TWTR"), {"user_id"},
                                {AggSpec{AggFn::kCount, "", "cnt"}});
    return plan::Plan(plan::Join(
        counts, plan::Udf(plan::Scan("TWTR"), "UDF_RECORD_THREAD", {}),
        {{"user_id", "user_id"}}));
  };
  struct Case {
    int threads;
    std::function<plan::Plan()> make_plan;
  };
  for (const Case& c : {Case{8, single_job}, Case{1, single_job},
                        Case{1, three_jobs}}) {
    Engine engine(&dfs_, optimizer_.get(), EngineOptions{c.threads, 0, true});
    for (bool traced : {false, true}) {
      obs::Trace trace;
      threads_seen->clear();
      plan::Plan plan = c.make_plan();
      auto result = engine.Execute(&plan, traced ? &trace : nullptr);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(*threads_seen,
                std::set<std::thread::id>{std::this_thread::get_id()})
          << c.threads << " threads, " << result->jobs.size() << " jobs, "
          << (traced ? "traced" : "untraced");
      dfs_.DeletePrefix("views/");  // the next engine's runs reuse the paths
    }
  }
}

// GROUP BY COUNT(*) and a counting UDF reduce group over the same key
// columns: the same groups, with the same first-seen key cells, in the same
// order. The input has three batches; the int64 key `a` is native in the
// first and a variant lane in the others (double 1.0 after int64 1, -0.0
// and 0.0 next to int64 0, nulls), and `b` is a string key with nulls.
class GroupingEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = std::make_shared<Table>(
        "MIX", Schema({Column{"a", DataType::kInt64},
                       Column{"b", DataType::kString},
                       Column{"x", DataType::kDouble}}));
    for (int64_t i = 0; i < 3000; ++i) {
      Value a(i % 23);
      if (i == 1100 || i == 2300) a = Value(1.0);
      if (i == 1500) a = Value(-0.0);
      if (i == 1501 || i == 2700) a = Value(0.0);
      if (i % 307 == 5) a = Value();
      const Value b =
          i % 89 == 4 ? Value() : Value("b" + std::to_string(i % 5));
      ASSERT_TRUE(t->AppendRow({a, b, Value(static_cast<double>(i))}).ok());
    }
    ASSERT_EQ(t->ToBatches()->size(), 3u);
    ASSERT_FALSE(t->ToBatches()->at(1).column(0).is_native());
    input_ = t;
    ASSERT_TRUE(catalog_.RegisterBase(t, {}, &dfs_).ok());
    plan::AnnotationContext ctx{&catalog_, &views_, &udfs_};
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        ctx, optimizer::CostModel());
  }

  // (a, b, n) per group, from a one-stage UDF reduce keyed on (a, b).
  static udf::UdfDefinition CountingUdf() {
    udf::LocalFunction lf;
    lf.name = "count-by-a-b";
    lf.kind = udf::LfKind::kReduce;
    lf.op_types = udf::kOpGroup | udf::kOpAttrs;
    lf.group_keys = {"a", "b"};
    lf.out_schema = [](const Schema&, const udf::Params&) -> Result<Schema> {
      return Schema({Column{"a", DataType::kInt64},
                     Column{"b", DataType::kString},
                     Column{"n", DataType::kInt64}});
    };
    lf.reduce_fn = [](const udf::GroupView& group, const udf::LfContext&,
                      storage::BatchBuilder* out) {
      out->AppendFrom(0, group.column(0, 0), group.row(0));
      out->AppendFrom(1, group.column(0, 1), group.row(0));
      out->Append(2, Value(static_cast<int64_t>(group.size())));
    };
    udf::UdfDefinition udf;
    udf.name = "COUNT_BY_A_B";
    udf.local_functions.push_back(std::move(lf));
    return udf;
  }

  // Exact cells: type tag, then the value (doubles by bit pattern).
  static std::vector<std::string> Bits(const Table& t) {
    std::vector<std::string> out;
    for (const Row& row : t.ToRows()) {
      std::string s;
      for (const Value& v : row) {
        s += std::to_string(static_cast<int>(v.type())) + ":";
        s += v.type() == DataType::kDouble
                 ? std::to_string(std::bit_cast<uint64_t>(v.as_double()))
                 : v.ToString();
        s += "|";
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  storage::Dfs dfs_;
  catalog::Catalog catalog_;
  catalog::ViewStore views_;
  udf::UdfRegistry udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  storage::TablePtr input_;
};

TEST_F(GroupingEquivalenceTest, GroupByCountMatchesCountingUdfReduce) {
  Table udf_out;
  ASSERT_TRUE(
      RunLocalFunctions(CountingUdf(), *input_, {}, &udf_out).ok());
  const std::vector<std::string> expected = Bits(udf_out);
  ASSERT_GT(expected.size(), 40u);

  ThreadPool pool(4);
  UdfExecOptions split;
  split.pool = &pool;
  split.block_size_bytes = 16 * 1024;
  split.num_reduce_tasks = 3;
  Table split_out;
  ASSERT_TRUE(
      RunLocalFunctions(CountingUdf(), *input_, {}, &split_out, nullptr, split)
          .ok());
  EXPECT_EQ(Bits(split_out), expected);

  for (const EngineOptions& options :
       {EngineOptions{1, 0, true}, EngineOptions{4, 3, true}}) {
    SCOPED_TRACE(options.num_threads);
    Engine engine(&dfs_, optimizer_.get(), options);
    hash::HashRecycler recycler;
    engine.set_recycler(&recycler);
    // The second run replays the first run's recycled grouping routes.
    for (uint64_t hits : {0, 1}) {
      plan::Plan plan(plan::GroupBy(plan::Scan("MIX"), {"a", "b"},
                                    {AggSpec{AggFn::kCount, "", "n"}}));
      auto result = engine.Execute(&plan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->jobs.size(), 1u);
      EXPECT_EQ(result->jobs[0].recycle_hits, hits);
      EXPECT_EQ(Bits(*result->table), expected);
    }
    dfs_.DeletePrefix("views/");  // the next engine numbers its runs anew
  }
}

// GROUP BY's aggregates, pinned by a golden recorded before the typed fold.
// The input has three batches built apart, so each has its own string
// dictionaries. `i` (int64) has nulls, a wrapping sum and a variant-lane
// double cell; `d` (double) has nulls, NaN, -0.0 and +0.0 and a
// variant-lane int64 cell; `s` (string) has nulls and empty strings. The
// keys are `g` (int64 with nulls) and `k` (string with nulls). Every
// aggregate runs over each column at 1 and 8 threads, and again on a
// recycled grouping; cells are compared by type and bit pattern.
class GroupByAggregateGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Schema schema({Column{"g", DataType::kInt64},
                         Column{"k", DataType::kString},
                         Column{"i", DataType::kInt64},
                         Column{"d", DataType::kDouble},
                         Column{"s", DataType::kString}});
    std::vector<Row> rows;
    for (int64_t r = 0; r < 3000; ++r) {
      const Value g = r % 301 == 8 ? Value() : Value(r % 17);
      const Value k = r % 89 == 2 ? Value()
                                  : Value("k" + std::to_string((r * 3) % 5));
      Value i(r * 37 % 1001 - 500);
      if (r % 41 == 5) i = Value();
      if (r == 500 || r == 501) {
        i = Value(std::numeric_limits<int64_t>::max() - 3);
      }
      if (r == 1500) i = Value(2.5);
      Value d(static_cast<double>(r % 13) * 0.7 - 3.0);
      if (r % 61 == 4) d = Value();
      if (r % 211 == 9) d = Value(std::numeric_limits<double>::quiet_NaN());
      if (r % 97 == 1) d = Value(-0.0);
      if (r % 97 == 2) d = Value(0.0);
      if (r == 2100) d = Value(int64_t{3});
      Value s("s" + std::to_string(r * 7 % 19));
      if (r % 53 == 6) s = Value();
      if (r % 101 == 3) s = Value("");
      rows.push_back({g, k, i, d, s});
    }
    std::vector<RowBatch> batches;
    for (size_t begin = 0; begin < rows.size(); begin += 1024) {
      batches.push_back(RowBatch::FromRows(
          schema, rows, begin, std::min(begin + 1024, rows.size())));
    }
    ASSERT_EQ(batches.size(), 3u);
    ASSERT_FALSE(batches[1].column(2).is_native());
    ASSERT_FALSE(batches[2].column(3).is_native());
    ASSERT_NE(batches[0].column(4).dict(), batches[1].column(4).dict());
    auto t = std::make_shared<Table>(
        Table::FromBatches("AGG", schema, std::move(batches)));
    ASSERT_TRUE(catalog_.RegisterBase(t, {}, &dfs_).ok());
    plan::AnnotationContext ctx{&catalog_, &views_, &udfs_};
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        ctx, optimizer::CostModel());
  }

  // COUNT(*), then COUNT, SUM, AVG, MIN and MAX of each of i, d and s.
  static std::vector<AggSpec> AllAggs() {
    std::vector<AggSpec> aggs = {AggSpec{AggFn::kCount, "", "n"}};
    for (const char* c : {"i", "d", "s"}) {
      const std::string col = c;
      aggs.push_back(AggSpec{AggFn::kCount, col, "count_" + col});
      aggs.push_back(AggSpec{AggFn::kSum, col, "sum_" + col});
      aggs.push_back(AggSpec{AggFn::kAvg, col, "avg_" + col});
      aggs.push_back(AggSpec{AggFn::kMin, col, "min_" + col});
      aggs.push_back(AggSpec{AggFn::kMax, col, "max_" + col});
    }
    return aggs;
  }

  // FNV-1a over every cell's type tag and value (doubles by bit pattern),
  // row by row in output order.
  static uint64_t Fingerprint(const Table& t) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const Row& row : t.ToRows()) {
      std::string s;
      for (const Value& v : row) {
        s += std::to_string(static_cast<int>(v.type())) + ":";
        s += v.type() == DataType::kDouble
                 ? std::to_string(std::bit_cast<uint64_t>(v.as_double()))
                 : v.ToString();
        s += "|";
      }
      s += "\n";
      for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  }

  storage::Dfs dfs_;
  catalog::Catalog catalog_;
  catalog::ViewStore views_;
  udf::UdfRegistry udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
};

TEST_F(GroupByAggregateGoldenTest, AggregatesMatchGolden) {
  struct Golden {
    std::vector<std::string> keys;
    size_t rows;
    uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {{"g"}, 18, 2792629896555029946ULL},
      {{"k", "g"}, 107, 17247690186799939959ULL},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.keys.size());
    for (const EngineOptions& options :
         {EngineOptions{1, 0, true}, EngineOptions{8, 3, true}}) {
      SCOPED_TRACE(options.num_threads);
      Engine engine(&dfs_, optimizer_.get(), options);
      hash::HashRecycler recycler;
      engine.set_recycler(&recycler);
      for (uint64_t hits : {0, 1}) {
        plan::Plan plan(
            plan::GroupBy(plan::Scan("AGG"), golden.keys, AllAggs()));
        auto result = engine.Execute(&plan);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->jobs.size(), 1u);
        EXPECT_EQ(result->jobs[0].recycle_hits, hits);
        const Table& out = *result->table;
        EXPECT_EQ(out.num_rows(), golden.rows);
        EXPECT_EQ(Fingerprint(out), golden.fingerprint)
            << out.num_rows() << " rows, fingerprint " << Fingerprint(out);
      }
      dfs_.DeletePrefix("views/");  // the next engine numbers its runs anew
    }
  }
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

// The row-at-a-time definition that StatsCollector::Collect's column sketch
// must reproduce bit for bit: the seeded sample built as rows (the first row
// when the sample is empty), then per column a set of Value::Hash and a sum
// of Value::ByteSize in sample order.
catalog::TableStats RowSketch(const Table& table, double fraction,
                              uint64_t seed) {
  catalog::TableStats stats;
  stats.rows = static_cast<double>(table.num_rows());
  stats.avg_row_bytes = table.AvgRowBytes();
  if (table.num_rows() == 0) return stats;
  Rng rng(seed ^ table.num_rows());
  std::vector<Row> sample;
  for (const RowBatch& batch : *table.ToBatches()) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      if (rng.Bernoulli(fraction)) sample.push_back(batch.RowAt(r));
    }
  }
  if (sample.empty()) {
    Row first;
    for (const Column& col : table.schema().columns()) {
      first.push_back(*table.Get(0, col.name));
    }
    sample.push_back(std::move(first));
  }
  const double n = stats.rows;
  const double sn = static_cast<double>(sample.size());
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    std::set<uint64_t> hashes;
    double width = 0;
    for (const Row& row : sample) {
      hashes.insert(row[c].Hash());
      width += static_cast<double>(row[c].ByteSize());
    }
    const double ds = static_cast<double>(hashes.size());
    const double est = ds >= 0.6 * sn ? ds * (n / sn) : ds;
    const std::string& name = table.schema().column(c).name;
    stats.distinct[name] = std::min(est, n);
    stats.col_bytes[name] = width / sn;
  }
  return stats;
}

void ExpectBitEqual(const std::map<std::string, double>& got,
                    const std::map<std::string, double>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (const auto& [name, value] : want) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << what << " " << name;
    EXPECT_EQ(std::bit_cast<uint64_t>(it->second),
              std::bit_cast<uint64_t>(value))
        << what << " " << name << ": " << it->second << " vs " << value;
  }
}

TEST(StatsCollectorTest, ColumnSketchMatchesRowDefinition) {
  // Nulls in every column; a mostly-unique `id` (the scaled-up estimate);
  // one string dictionary per column shared by all batches (one per batch
  // in `per_batch`); doubles cycling through NaN and both zeros; `mixed` is
  // demoted to the variant lane by one string cell.
  Schema schema({Column{"id", DataType::kInt64},
                 Column{"word", DataType::kString},
                 Column{"x", DataType::kDouble},
                 Column{"mixed", DataType::kInt64},
                 Column{"flag", DataType::kBool}});
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {kNaN, 0.0, -0.0, 1.5, -kNaN, 2.0};
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    Row row;
    row.push_back(i % 11 == 0 ? Value() : Value(int64_t{i}));
    row.push_back(i % 13 == 0 ? Value()
                              : Value("w" + std::to_string(i % 53)));
    row.push_back(i % 17 == 0 ? Value() : Value(doubles[i % 6] + (i % 4)));
    row.push_back(i == 2500 ? Value("odd") : Value(int64_t{i % 7}));
    row.push_back(i % 19 == 0 ? Value() : Value(i % 3 == 0));
    rows.push_back(std::move(row));
  }
  Table appended("appended", schema);
  for (const Row& row : rows) ASSERT_TRUE(appended.AppendRow(row).ok());
  // The same rows in batches built apart, one dictionary per batch.
  std::vector<RowBatch> separate;
  for (size_t begin = 0; begin < rows.size(); begin += 1000) {
    separate.push_back(RowBatch::FromRows(
        schema, rows, begin, std::min(begin + 1000, rows.size())));
  }
  const Table per_batch =
      Table::FromBatches("per_batch", schema, std::move(separate));
  // Gather two of every three rows of each batch, behind an empty batch.
  std::vector<RowBatch> gathered;
  for (const RowBatch& batch : *appended.ToBatches()) {
    std::vector<uint32_t> sel;
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      if (r % 3 != 0) sel.push_back(r);
    }
    if (gathered.empty()) gathered.push_back(batch.Gather({}));
    gathered.push_back(batch.Gather(sel));
  }
  const Table filtered =
      Table::FromBatches("filtered", schema, std::move(gathered));
  Table one_row("one_row", schema);
  ASSERT_TRUE(one_row.AppendRow(rows[1]).ok());
  ASSERT_GT(appended.ToBatches()->size(), 1u);
  ASSERT_NE(per_batch.ToBatches()->at(0).column(1).dict(),
            per_batch.ToBatches()->at(1).column(1).dict());

  const RowBatch& demoted =
      (*appended.ToBatches())[2500 / RowBatch::kDefaultRows];
  ASSERT_FALSE(demoted.column(3).is_native());
  ASSERT_TRUE(demoted.column(0).is_native());

  for (const Table* table : std::vector<const Table*>{
           &appended, &per_batch, &filtered, &one_row}) {
    // Fraction 0 always takes the degenerate one-row sample.
    for (double fraction : {0.0, 0.01, 0.05, 0.5}) {
      for (uint64_t seed : {uint64_t{1}, uint64_t{42}}) {
        const std::string what = table->name() + " fraction " +
                                 std::to_string(fraction) + " seed " +
                                 std::to_string(seed);
        const catalog::TableStats got =
            StatsCollector(fraction, seed).Collect(*table);
        const catalog::TableStats want = RowSketch(*table, fraction, seed);
        EXPECT_EQ(got.rows, want.rows) << what;
        ExpectBitEqual(got.distinct, want.distinct, what + " distinct");
        ExpectBitEqual(got.col_bytes, want.col_bytes, what + " col_bytes");
      }
    }
  }
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
