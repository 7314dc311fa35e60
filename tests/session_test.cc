// Tests for the serving entry point as one tenant sees it (Server::Create +
// Connect): wiring, Run over OQL and plans, option consolidation, the
// EXPLAIN ANALYZE rendering (golden shape), and the ExecMetrics
// serializations shared by bench --json and the trace export.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "exec/metrics.h"
#include "oql/parser.h"
#include "server/server.h"
#include "session/session.h"
#include "udf/builtin_udfs.h"
#include "workload/datagen.h"

namespace opd {
namespace {

// A server holding a small TWTR log, plus the "default" tenant's handle.
struct TestServer {
  std::unique_ptr<Server> server;
  ClientSession client;
};

TestServer MakeServer(SessionOptions options = {}) {
  auto server = Server::Create(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  workload::DataGenConfig data;
  data.n_tweets = 500;
  data.n_checkins = 200;
  data.n_locations = 50;
  storage::TablePtr twtr = workload::GenerateTwitterLog(data);
  EXPECT_TRUE(udf::RegisterBuiltinUdfs(&(*server)->udfs()).ok());
  EXPECT_TRUE((*server)->RegisterTable(twtr, {"tweet_id"}).ok());
  TestServer out{std::move(server).value(), {}};
  out.client = out.server->Connect("default");
  return out;
}

TEST(SessionTest, CreateWiresTheWholeStack) {
  auto s = MakeServer();
  EXPECT_TRUE(s.server->catalog().Has("TWTR"));
  EXPECT_GE(s.server->udfs().size(), 10u);
  EXPECT_EQ(s.server->views().size(), 0u);
  EXPECT_EQ(s.client.tenant(), "default");
}

TEST(SessionTest, RunOqlReturnsTableMetricsAndJobs) {
  auto s = MakeServer();
  auto run = s.client.Run(
      "counts = scan TWTR | groupby user_id count(*) as n;");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_NE(run->table, nullptr);
  EXPECT_GT(run->table->num_rows(), 0u);
  EXPECT_GT(run->metrics.jobs, 0);
  EXPECT_EQ(static_cast<int>(run->jobs.size()), run->metrics.jobs);
  EXPECT_TRUE(run->rewritten);
  EXPECT_EQ(run->trace, nullptr);  // tracing is off by default
  // Executing retained the job outputs as opportunistic views.
  EXPECT_GT(s.server->views().size(), 0u);
}

TEST(SessionTest, RunParseErrorsPropagate) {
  auto s = MakeServer();
  auto run = s.client.Run("this is not OQL");
  EXPECT_FALSE(run.ok());
}

TEST(SessionTest, TracingProducesQueryRootedSpans) {
  SessionOptions options;
  options.obs.tracing = true;
  auto s = MakeServer(options);
  RunOptions off;
  off.rewrite = false;
  auto run = s.client.Run(
      "counts = scan TWTR | groupby user_id count(*) as n;", off);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_NE(run->trace, nullptr);
  auto spans = run->trace->Sorted();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].name.rfind("query:", 0), 0u);
  // Every other span hangs off the query root (transitively).
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_NE(spans[i].parent, 0u) << spans[i].name;
  }
}

TEST(SessionTest, ObsOptionsMirrorIntoEngineOptions) {
  SessionOptions options;
  options.obs.metrics = false;
  auto server = Server::Create(options);
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE((*server)->options().engine.metrics);
}

// Masks every number (and byte-unit suffix) so the golden pins the layout
// while times/bytes stay free to vary run to run.
std::string MaskNumbers(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size();) {
    if (std::isdigit(static_cast<unsigned char>(s[i]))) {
      while (i < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.')) {
        ++i;
      }
      if (i + 1 < s.size() && (s[i] == 'K' || s[i] == 'M' || s[i] == 'G') &&
          s[i + 1] == 'B') {
        i += 2;
      } else if (i < s.size() && s[i] == 'B') {
        ++i;
      }
      out += '#';
      continue;
    }
    out += s[i++];
  }
  return out;
}

TEST(SessionTest, ExplainAnalyzeGoldenShape) {
  auto s = MakeServer();
  RunOptions off;
  off.rewrite = false;
  auto run = s.client.Run(
      "counts = scan TWTR | groupby user_id count(*) as n;", off);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string masked =
      MaskNumbers(run->ExplainAnalyze(exec::AnalyzeOptions{.show_wall = false}));
  auto pad = [](std::string s) {
    if (s.size() < 44) s.append(44 - s.size(), ' ');
    return s;
  };
  // Task counts are fused pipeline tasks ("#p") + reduce buckets ("#r").
  // The residual sign is deterministic here: the estimator undershoots this
  // groupby (observed proxy cost > prediction), so resid renders "+".
  // The groupby input is a direct base-table scan, so it is recyclable; a
  // cold server's first run records a recycler miss.
  const std::string expected =
      pad("GROUPBY(user_id)") +
      "  [job #] time=#s pred=#s resid=+#% rows=#-># read=# shuffled=# "
      "written=# tasks=#p+#r recycle=miss\n" +
      pad("  SCAN(TWTR)") + "  (scan)\n" +
      "jobs: #  sim time: #s (+stats #s)  read: #  shuffled: #  written: #  "
      "views: #  max resid: +#%\n";
  EXPECT_EQ(masked, expected);
}

TEST(SessionTest, ExplainAnalyzeOverOqlIncludesWallStats) {
  auto s = MakeServer();
  auto text = s.client.ExplainAnalyze(
      "r = scan TWTR | project user_id, retweets | "
      "filter retweets > 1;");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[job "), std::string::npos);
  EXPECT_NE(text->find("wall="), std::string::npos);
  EXPECT_NE(text->find("straggler="), std::string::npos);
}

TEST(ExecMetricsTest, ToStringIncludesMaxTaskTime) {
  exec::ExecMetrics m;
  m.sim_time_s = 2.0;
  m.max_task_time_s = 0.125;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("max_task="), std::string::npos);
  EXPECT_NE(s.find("0.125"), std::string::npos);
}

TEST(ExecMetricsTest, ToJsonHasEveryField) {
  exec::ExecMetrics m;
  m.sim_time_s = 1.5;
  m.stats_time_s = 0.5;
  m.stats_wall_time_s = 0.125;
  m.bytes_read = 10;
  m.bytes_shuffled = 20;
  m.bytes_written = 30;
  m.jobs = 2;
  m.views_created = 1;
  m.max_task_time_s = 0.25;
  const std::string json = m.ToJson();
  EXPECT_EQ(json.find('{'), 0u);
  EXPECT_NE(json.find("\"sim_time_s\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"total_time_s\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stats_wall_time_s\":0.125"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_read\":10"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_manipulated\":60"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"max_task_time_s\":0.25"), std::string::npos);
}

TEST(ExecMetricsTest, StatsWallTimeMeasuredWhenStatsOn) {
  auto s = MakeServer();
  auto run = s.client.Run(
      "counts = scan TWTR | groupby user_id count(*) as n;");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The StatsCollector pass really ran, so its measured wall time is > 0
  // (the modeled stats_time_s is as well — they answer different questions).
  EXPECT_GT(run->metrics.stats_wall_time_s, 0.0);
  EXPECT_GT(run->metrics.stats_time_s, 0.0);
}

TEST(OqlTest, ConsumeExplainPrefixModes) {
  std::string plain = "x = scan TWTR;";
  EXPECT_EQ(oql::ConsumeExplainPrefix(&plain), oql::ExplainMode::kNone);
  EXPECT_EQ(plain, "x = scan TWTR;");

  std::string explain = "EXPLAIN x = scan TWTR;";
  EXPECT_EQ(oql::ConsumeExplainPrefix(&explain), oql::ExplainMode::kExplain);
  EXPECT_EQ(explain, "x = scan TWTR;");

  std::string analyze = "  explain analyze\nx = scan TWTR;";
  EXPECT_EQ(oql::ConsumeExplainPrefix(&analyze),
            oql::ExplainMode::kExplainAnalyze);
  EXPECT_EQ(analyze, "x = scan TWTR;");

  std::string rewrite = "EXPLAIN REWRITE x = scan TWTR;";
  EXPECT_EQ(oql::ConsumeExplainPrefix(&rewrite),
            oql::ExplainMode::kExplainRewrite);
  EXPECT_EQ(rewrite, "x = scan TWTR;");

  std::string rewrite_lc = "explain rewrite\nx = scan TWTR;";
  EXPECT_EQ(oql::ConsumeExplainPrefix(&rewrite_lc),
            oql::ExplainMode::kExplainRewrite);
  EXPECT_EQ(rewrite_lc, "x = scan TWTR;");

  // A binding that merely starts with the word is left alone.
  std::string binding = "explained = scan TWTR;";
  EXPECT_EQ(oql::ConsumeExplainPrefix(&binding), oql::ExplainMode::kNone);
  EXPECT_EQ(binding, "explained = scan TWTR;");

  // Leading comment lines don't hide the keyword.
  std::string commented = "# banner\n# more\nEXPLAIN ANALYZE x = scan TWTR;";
  EXPECT_EQ(oql::ConsumeExplainPrefix(&commented),
            oql::ExplainMode::kExplainAnalyze);
  EXPECT_EQ(commented, "x = scan TWTR;");
}

TEST(OqlTest, ConsumeShowPrefixKinds) {
  uint64_t ticket = 0;

  std::string queries = "SHOW QUERIES;";
  EXPECT_EQ(oql::ConsumeShowPrefix(&queries, &ticket),
            oql::ShowKind::kQueries);
  EXPECT_TRUE(queries.empty());

  std::string stats = "  show server stats";
  EXPECT_EQ(oql::ConsumeShowPrefix(&stats, &ticket),
            oql::ShowKind::kServerStats);
  EXPECT_TRUE(stats.empty());

  std::string profile = "# comment\nSHOW PROFILE 42;";
  EXPECT_EQ(oql::ConsumeShowPrefix(&profile, &ticket),
            oql::ShowKind::kProfile);
  EXPECT_TRUE(profile.empty());
  EXPECT_EQ(ticket, 42u);

  // Not SHOW statements: bindings, trailing garbage, missing ticket.
  std::string binding = "shower = scan TWTR;";
  EXPECT_EQ(oql::ConsumeShowPrefix(&binding, &ticket), oql::ShowKind::kNone);
  EXPECT_EQ(binding, "shower = scan TWTR;");

  std::string garbage = "show queries extra";
  EXPECT_EQ(oql::ConsumeShowPrefix(&garbage, &ticket), oql::ShowKind::kNone);
  EXPECT_EQ(garbage, "show queries extra");

  std::string no_ticket = "show profile;";
  EXPECT_EQ(oql::ConsumeShowPrefix(&no_ticket, &ticket),
            oql::ShowKind::kNone);
  EXPECT_EQ(no_ticket, "show profile;");
}

// --- EXPLAIN REWRITE --------------------------------------------------------

// Warms a server's view store with two queries, then renders EXPLAIN
// REWRITE for a query that can reuse the first one's views. The engine
// thread count is a parameter precisely so tests can prove it does NOT
// matter: the rewrite search is serial and engine-independent.
std::string WarmExplainRewrite(int threads) {
  SessionOptions options;
  options.engine.num_threads = threads;
  auto s = MakeServer(options);
  auto warm1 = s.client.Run(
      "w = scan TWTR | project user_id, retweets;");
  EXPECT_TRUE(warm1.ok()) << warm1.status().ToString();
  auto warm2 = s.client.Run(
      "v = scan TWTR | groupby user_id count(*) as n;");
  EXPECT_TRUE(warm2.ok()) << warm2.status().ToString();
  auto text = s.client.ExplainRewrite(
      "q = scan TWTR | project user_id, retweets;");
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : std::string();
}

TEST(SessionTest, ExplainRewriteGoldenShape) {
  const std::string masked = MaskNumbers(WarmExplainRewrite(1));
  // Pins the whole report: header, per-target decisions (with machine-
  // readable reject codes), and the counts footer.
  const std::string expected =
      "EXPLAIN REWRITE q\n"
      "views in store: #\n"
      "original cost: #s  best cost: #s  improved: yes\n"
      "search: # candidates considered, # enum attempts, # rewrites found\n"
      "[target #] PROJECT\n"
      "  original #s -> best #s  chosen: view(#)  predicted benefit #s\n"
      "    #             optcost=#s  rewrite=#s  accepted\n"
      "    #             optcost=#s  rejected: pruned_by_bound (never "
      "refined)\n"
      "candidates: #  accepted: #  signature_mismatch: #  filter_not_implied: #"
      "  afk_containment: #  not_cost_improving: #  pruned_by_bound: #\n";
  EXPECT_EQ(masked, expected);
}

TEST(SessionTest, ExplainRewriteByteIdenticalAcrossEngineConfigs) {
  // {1, 2, 8} threads: the decision log and its rendering must be
  // byte-identical — the search never looks at the engine.
  const std::string base = WarmExplainRewrite(1);
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base.find("accepted"), std::string::npos);
  for (int threads : {2, 8}) {
    EXPECT_EQ(base, WarmExplainRewrite(threads)) << "threads=" << threads;
  }
}

TEST(SessionTest, RewriteDoesNotExecuteOrCreditViews) {
  auto s = MakeServer();
  auto warm = s.client.Run("w = scan TWTR | project user_id, retweets;");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const size_t views_before = s.server->views().size();
  const uint64_t clock_before = s.server->views().clock();
  auto outcome =
      s.client.Rewrite("q = scan TWTR | project user_id, retweets;");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->improved);
  EXPECT_FALSE(outcome->decisions.targets.empty());
  // Pure analysis: no new views, no access credit.
  EXPECT_EQ(s.server->views().size(), views_before);
  EXPECT_EQ(s.server->views().clock(), clock_before);
}

// --- Run metrics export -----------------------------------------------------

TEST(SessionTest, MetricsJsonCarriesPerJobResidualsAndDecisions) {
  auto s = MakeServer();
  auto run = s.client.Run(
      "counts = scan TWTR | groupby user_id count(*) as n;");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string json = run->MetricsJson();
  EXPECT_EQ(json.find('{'), 0u);
  // Acceptance contract: per-job predicted/observed/residual fields.
  EXPECT_NE(json.find("\"predicted_cost_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"observed_proxy_cost_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"residual_pct\":"), std::string::npos);
  EXPECT_NE(json.find("\"rewrite\":{\"rewritten\":true"), std::string::npos);
  EXPECT_NE(json.find("\"decisions\":{\"candidates\":"), std::string::npos);
  EXPECT_NE(json.find("\"cost_model\":{\"classes\":["), std::string::npos);
  EXPECT_NE(json.find("\"op_class\":\"GROUPBY\""), std::string::npos);
}

TEST(SessionTest, CostDriftsTrackExecutedOperatorClasses) {
  auto s = MakeServer();
  RunOptions off;
  off.rewrite = false;
  auto run = s.client.Run(
      "counts = scan TWTR | groupby user_id count(*) as n;", off);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_FALSE(run->cost_drifts.empty());
  bool saw_groupby = false;
  for (const auto& d : run->cost_drifts) {
    if (d.op_class == "GROUPBY") {
      saw_groupby = true;
      EXPECT_EQ(d.samples, 1u);
    }
  }
  EXPECT_TRUE(saw_groupby);
}

}  // namespace
}  // namespace opd
