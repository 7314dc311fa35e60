// Quickstart: bring up an opd::Server, run a query, revise it, and watch
// the rewriter reuse the first query's opportunistic views.
//
//   $ ./build/examples/quickstart
//
// Walks through the paper's core loop:
//   1. Create a Server (DFS + catalog + view store + optimizer + engine +
//      BFREWRITE), register the synthetic TWTR log, and connect as one
//      analyst.
//   2. Run the "foodies" query (Figure 4 of the paper) — every MR job's
//      output is retained as an opportunistic materialized view.
//   3. Revise the query (raise the sentiment threshold) and run it again:
//      BFREWRITE compensates the existing views with a filter instead of
//      re-reading the 800 GB (modeled) log.

#include <cstdio>

#include "plan/plan.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/value.h"
#include "udf/builtin_udfs.h"
#include "workload/datagen.h"

using namespace opd;  // NOLINT: example brevity

namespace {

// The paper's Figure 4 "prolific foodies" query, with a tunable sentiment
// threshold.
plan::Plan FoodiesQuery(double threshold) {
  plan::OpNodePtr extract = plan::Project(
      plan::Scan("TWTR"), {"tweet_id", "user_id", "tweet_text"});
  plan::OpNodePtr scored =
      plan::Udf(extract, "UDF_CLASSIFY_FOOD_SCORE",
                {{"threshold", storage::Value(threshold)}});
  plan::OpNodePtr counts = plan::GroupBy(
      extract, {"user_id"},
      {plan::AggSpec{plan::AggFn::kCount, "", "tweet_count"}});
  plan::OpNodePtr prolific = plan::Filter(
      counts, plan::FilterCond::Compare("tweet_count", afk::CmpOp::kGt,
                                        storage::Value(40.0)));
  return plan::Plan(
      plan::Join(scored, prolific, {{"user_id", "user_id"}}),
      "foodies");
}

}  // namespace

int main() {
  // --- 0. A Server over the synthetic log -----------------------------------
  workload::DataGenConfig data;
  data.n_tweets = 8000;  // keep the demo snappy
  storage::TablePtr twtr = workload::GenerateTwitterLog(data);

  SessionOptions options;
  options.obs.tracing = true;  // record a span trace per query
  // The synthetic log stands in for a modeled 800 GB of tweets.
  options.cost.data_scale =
      800.0 * 1e9 / static_cast<double>(twtr->ByteSize());
  auto server_result = Server::Create(options);
  if (!server_result.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 server_result.status().ToString().c_str());
    return 1;
  }
  Server& server = *server_result.value();

  if (!udf::RegisterBuiltinUdfs(&server.udfs()).ok() ||
      !server.RegisterTable(twtr, {"tweet_id"}).ok()) {
    std::fprintf(stderr, "registration failed\n");
    return 1;
  }
  ClientSession session = server.Connect("analyst");

  std::printf("== Opportunistic physical design quickstart ==\n\n");

  // --- 1. The analyst's first query ----------------------------------------
  RunOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto run1 = session.Run(FoodiesQuery(0.5), no_rewrite);
  if (!run1.ok()) {
    std::fprintf(stderr, "v1 failed: %s\n", run1.status().ToString().c_str());
    return 1;
  }
  std::printf("v1 (threshold 0.5): %zu result rows, %.0f modeled seconds, "
              "%d jobs, %d opportunistic views retained\n",
              run1->table->num_rows(), run1->metrics.sim_time_s,
              run1->metrics.jobs, run1->metrics.views_created);

  // --- 2. The revised query, rewritten against the views -------------------
  auto run2 = session.Run(FoodiesQuery(1.0));  // analyst tightens the bar
  if (!run2.ok()) {
    std::fprintf(stderr, "v2 failed: %s\n", run2.status().ToString().c_str());
    return 1;
  }
  const rewrite::RewriteOutcome& rewr = run2->rewrite;
  std::printf("\nBFREWRITE on v2 (threshold 1.0):\n");
  std::printf("  original plan cost  : %.1f modeled seconds\n",
              rewr.original_cost);
  std::printf("  rewritten plan cost : %.1f modeled seconds\n",
              rewr.est_cost);
  std::printf("  candidates considered: %zu, rewrite attempts: %zu, "
              "search time: %.3fs\n",
              rewr.stats.candidates_considered, rewr.stats.rewrite_attempts,
              rewr.stats.runtime_s);

  // --- 3. Where did the time go? (EXPLAIN ANALYZE) -------------------------
  std::printf("\nObserved per-job stats of the rewritten run:\n%s\n",
              run2->ExplainAnalyze().c_str());

  // --- 4. Compare against running v2 from scratch --------------------------
  auto orig_run = session.Run(FoodiesQuery(1.0), no_rewrite);
  if (!orig_run.ok()) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }
  double orig_t = orig_run->metrics.sim_time_s;
  double rewr_t = run2->metrics.TotalTime() + rewr.stats.runtime_s;
  std::printf("v2 ORIG: %.0f modeled seconds  (%zu rows)\n", orig_t,
              orig_run->table->num_rows());
  std::printf("v2 REWR: %.1f modeled seconds  (%zu rows)  -> %.0f%% faster\n",
              rewr_t, run2->table->num_rows(),
              100.0 * (orig_t - rewr_t) / orig_t);
  if (orig_run->table->num_rows() != run2->table->num_rows()) {
    std::fprintf(stderr, "ERROR: rewritten query returned different rows!\n");
    return 1;
  }
  std::printf("\nResult cardinalities match: the rewrite is equivalent.\n");
  if (run2->trace != nullptr) {
    std::printf("The traced run recorded %zu spans (query -> rewrite/job -> "
                "phase -> task).\n",
                run2->trace->size());
  }
  return 0;
}
