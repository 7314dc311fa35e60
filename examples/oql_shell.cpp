// An interactive(ish) OQL shell over the opportunistic-design system.
//
//   $ ./build/examples/oql_shell                   # built-in demo script
//   $ ./build/examples/oql_shell my_query.oql      # run a script from a file
//   $ ./build/examples/oql_shell --trace=out.json  # also dump a Chrome trace
//   $ ./build/examples/oql_shell --tenant=ana q.oql  # run as a named tenant
//
// Each program executes through a ClientSession on the serving layer
// (Server::Connect): every job's output is retained as an opportunistic
// view published at the query's completion epoch, and each subsequent
// program is first sent through BFREWRITE — so re-running refined variants
// of a script gets faster, exactly like the paper's exploratory sessions.
// --tenant names the tenant the queries run as (default "default"); the
// result line reports the admission epochs and any cross-tenant reuse.
//
// Prefix a program with EXPLAIN to see the costed plan without running it,
// EXPLAIN REWRITE to print the rewrite search's decision log (per-candidate
// reject reasons and OPTCOST estimates) without running it, or EXPLAIN
// ANALYZE to run it and render the observed per-job stats (time, bytes,
// predicted-vs-observed cost residuals, task counts, stragglers). With
// --trace=<path>, every executed query's span tree is merged into one Chrome
// trace_event JSON file — open it in chrome://tracing or Perfetto — and the
// rewrite decision logs are exported alongside it as <path minus
// .json>.rewrite.json.
//
// Introspection statements (served from the query-history ring):
//   SHOW QUERIES;           one line per retained completion
//   SHOW PROFILE <ticket>;  one query in long form (+ slow capture, if any)
//   SHOW SERVER STATS;      counters, admission gate, SLO percentiles

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "obs/trace.h"
#include "oql/parser.h"
#include "plan/explain.h"
#include "server/server.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

namespace {

const char* kDemoScript = R"(
# Session 1: who tweets positively about wine?
extract = scan TWTR | project user_id, tweet_text, mention_user;
wine    = extract | udf UDF_CLASSIFY_WINE_SCORE(threshold = 0.5);
result  = wine | filter wine_score > 0.8;
)";

const char* kDemoScript2 = R"(
# Session 2 (a revision): raise the bar and bring in affluence.
extract  = scan TWTR | project user_id, tweet_text, mention_user;
wine     = extract | udf UDF_CLASSIFY_WINE_SCORE(threshold = 0.5);
rich     = extract | udf UDAF_CLASSIFY_AFFLUENT(min_affluence = 0.05);
result   = join wine rich on user_id = user_id;
)";

const char* kDemoScript3 = R"(
# Session 3: EXPLAIN ANALYZE shows where the time went.
EXPLAIN ANALYZE
extract = scan TWTR | project user_id, tweet_text, mention_user;
wine    = extract | udf UDF_CLASSIFY_WINE_SCORE(threshold = 0.5);
result  = wine | groupby user_id count(*) as n;
)";

// Traces of every executed program, merged into --trace's output file.
std::vector<std::shared_ptr<obs::Trace>> g_traces;

// (label, DecisionLog JSON) of every rewrite search, exported next to the
// Chrome trace as one JSON array.
std::vector<std::pair<std::string, std::string>> g_decision_logs;

// out.json -> out.rewrite.json (appends when there is no .json suffix).
std::string DecisionLogPath(const std::string& trace_path) {
  const std::string suffix = ".json";
  if (trace_path.size() >= suffix.size() &&
      trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return trace_path.substr(0, trace_path.size() - suffix.size()) +
           ".rewrite.json";
  }
  return trace_path + ".rewrite.json";
}

int WriteDecisionLogFile(const std::string& path) {
  JsonWriter w;
  w.BeginArray();
  for (const auto& [label, json] : g_decision_logs) {
    w.BeginObject();
    w.Key("query").String(label);
    w.Key("decisions").Raw(json);
    w.EndObject();
  }
  w.EndArray();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << w.Take() << "\n";
  return 0;
}

int RunProgram(workload::TestBed* bed, ClientSession* client,
               std::string source, const char* label) {
  // SHOW statements are whole programs; dispatch them before EXPLAIN.
  uint64_t ticket = 0;
  const oql::ShowKind show = oql::ConsumeShowPrefix(&source, &ticket);
  if (show != oql::ShowKind::kNone) {
    Server& server = client->server();
    std::printf("--- %s (tenant %s) ---\n", label, client->tenant().c_str());
    if (server.query_log() == nullptr) {
      std::fprintf(stderr, "query log disabled (query_log_capacity = 0)\n");
      return 1;
    }
    switch (show) {
      case oql::ShowKind::kQueries:
        std::printf("%s\n",
                    server::RenderQueries(server.query_log()->Snapshot())
                        .c_str());
        break;
      case oql::ShowKind::kProfile: {
        auto record = server.query_log()->Find(ticket);
        if (record == nullptr) {
          std::fprintf(stderr, "no retained query with ticket %llu\n",
                       static_cast<unsigned long long>(ticket));
          return 1;
        }
        std::printf("%s\n",
                    server::RenderProfile(
                        *record, server.query_log()->FindProfile(ticket))
                        .c_str());
        break;
      }
      case oql::ShowKind::kServerStats:
        std::printf("%s\n",
                    server::RenderServerStats(server.Introspect()).c_str());
        break;
      case oql::ShowKind::kNone:
        break;
    }
    return 0;
  }

  const oql::ExplainMode mode = oql::ConsumeExplainPrefix(&source);
  std::printf("--- %s (tenant %s) ---\n%s\n", label,
              client->tenant().c_str(), source.c_str());

  if (mode == oql::ExplainMode::kExplain) {
    // EXPLAIN: rewrite + cost the plan, print it, don't execute.
    auto plan = oql::ParseQuery(source);
    if (!plan.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    auto outcome = bed->bfr().Rewrite(&plan.value());
    if (!outcome.ok()) {
      std::fprintf(stderr, "rewrite error: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", plan::Explain(outcome->plan).c_str());
    return 0;
  }

  if (mode == oql::ExplainMode::kExplainRewrite) {
    // EXPLAIN REWRITE: print the search's decision log, don't execute.
    auto outcome = client->Rewrite(source);
    if (!outcome.ok()) {
      std::fprintf(stderr, "rewrite error: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", RenderExplainRewrite(*outcome).c_str());
    g_decision_logs.emplace_back(label, outcome->decisions.ToJson());
    return 0;
  }

  auto run = client->Run(source);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  if (run->trace != nullptr) g_traces.push_back(run->trace);
  if (run->rewritten && !run->rewrite.decisions.targets.empty()) {
    g_decision_logs.emplace_back(label, run->rewrite.decisions.ToJson());
  }

  if (mode == oql::ExplainMode::kExplainAnalyze) {
    std::printf("%s\n", run->ExplainAnalyze().c_str());
    return 0;
  }

  std::printf("=> %zu rows in %.1f modeled seconds", run->table->num_rows(),
              run->metrics.sim_time_s);
  if (run->rewritten && run->rewrite.improved) {
    std::printf("  (rewritten: estimated %.1fs instead of %.1fs)",
                run->rewrite.est_cost, run->rewrite.original_cost);
  }
  std::printf("; %zu views in the store\n", bed->views().size());
  size_t cross = 0;
  for (const ViewUse& use : run->views_used) {
    if (!use.tenant.empty() && use.tenant != run->tenant) ++cross;
  }
  std::printf("   admitted at epoch %llu, published epoch %llu, scanned "
              "%zu view(s)%s\n\n",
              static_cast<unsigned long long>(run->admission_epoch),
              static_cast<unsigned long long>(run->publish_epoch),
              run->views_used.size(),
              cross > 0 ? " (cross-tenant reuse!)" : "");
  // Print a small sample of the result.
  const auto& table = *run->table;
  std::printf("   %s\n", table.schema().ToString().c_str());
  const std::vector<storage::Row> rows = table.ToRows();
  for (size_t i = 0; i < std::min<size_t>(rows.size(), 5); ++i) {
    std::printf("   ");
    for (size_t c = 0; c < rows[i].size(); ++c) {
      std::printf("%s%s", c ? ", " : "", rows[i][c].ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  const char* script_path = nullptr;
  const char* tenant = "";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--tenant=", 9) == 0) {
      tenant = argv[i] + 9;
    } else {
      script_path = argv[i];
    }
  }

  workload::TestBedConfig config;
  config.data.n_tweets = 4000;
  config.session.obs.tracing = trace_path != nullptr;
  auto bed_result = workload::TestBed::Create(config);
  if (!bed_result.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 bed_result.status().ToString().c_str());
    return 1;
  }
  auto& bed = *bed_result.value();
  ClientSession client = bed.session().server().Connect(tenant);

  int rc = 0;
  if (script_path != nullptr) {
    std::ifstream file(script_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script_path);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    rc = RunProgram(&bed, &client, buffer.str(), script_path);
  } else {
    rc = RunProgram(&bed, &client, kDemoScript, "session 1");
    if (rc == 0) {
      rc = RunProgram(&bed, &client, kDemoScript2,
                      "session 2 (reuses session 1's views)");
    }
    if (rc == 0) rc = RunProgram(&bed, &client, kDemoScript3, "session 3");
    // Introspection over the queries that just ran.
    if (rc == 0) rc = RunProgram(&bed, &client, "SHOW QUERIES;", "show queries");
    if (rc == 0) {
      rc = RunProgram(&bed, &client, "SHOW SERVER STATS;", "show server stats");
    }
  }

  if (trace_path != nullptr) {
    std::vector<const obs::Trace*> traces;
    traces.reserve(g_traces.size());
    for (const auto& t : g_traces) traces.push_back(t.get());
    Status st = obs::WriteChromeTraceFile(trace_path, traces);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("trace (%zu quer%s) written to %s\n", traces.size(),
                traces.size() == 1 ? "y" : "ies", trace_path);
    const std::string decisions_path = DecisionLogPath(trace_path);
    if (WriteDecisionLogFile(decisions_path) != 0) return 1;
    std::printf("rewrite decisions (%zu) written to %s\n",
                g_decision_logs.size(), decisions_path.c_str());
  }
  return rc;
}
