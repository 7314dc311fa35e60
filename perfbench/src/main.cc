// The repository benchmark program: analyst queries served by opd::Server.
//
//   opd_perfbench --workload <warm_500v|evolve|orig> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Every query is one of the paper's 8-analyst x 4-version workload queries
// (workload::BuildQuery), served through the public serving API. Each
// answer is checked against a reference fingerprint computed on a separate,
// fresh server with rewriting off. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 measures the end-to-end metrics: closed-loop client threads
// call ClientSession::Run for --seconds, after the set-up (server creation,
// data generation and registration, store growth, one warm-up pass) has
// been timed several times.
//
// --trace 1 measures the per-layer metrics. Half of --seconds is an
// untraced ClientSession::Run phase (queue wait, admissions, the untraced
// latency); the other half drives each query through the layers' public
// calls in Server::RunAdmitted's order, recording one span per call, and
// writes the spans as Chrome trace_event JSON to --trace-out.
//
// perfbench/NOTES.md describes the workloads, the metrics and the layer ->
// end-to-end metric map.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/eviction.h"
#include "harness.h"
#include "obs/query_log.h"
#include "obs/snapshot.h"
#include "server/server.h"
#include "session/session.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: FATAL (%s): %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what, result.status());
  return std::move(result).value();
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  /// TWTR rows; the other tables scale as in bench/micro_serve (small) or
  /// keep the DataGenConfig defaults (large).
  bool small_data = false;
  /// RunOptions::rewrite of every timed query.
  bool rewrite = true;
  /// Closed-loop client threads, one tenant each.
  int clients = 1;
  /// Views the store is grown to during set-up (0: no growth).
  size_t grow_views = 0;
  /// Evolution passes: one client runs A1v1..A8v4 in order, and the store
  /// is emptied between passes outside the timed region.
  bool passes = false;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"warm_500v", /*small_data=*/true, /*rewrite=*/true, /*clients=*/4,
       /*grow_views=*/500, /*passes=*/false},
      {"evolve", false, true, 1, 0, true},
      {"orig", false, false, 1, 0, true},
  };
  return kWorkloads;
}

struct QueryId {
  int analyst = 0;
  int version = 0;
  std::string Name() const {
    return "A" + std::to_string(analyst) + "v" + std::to_string(version);
  }
};

/// A1v1..A1v4, A2v1, ..., A8v4: the paper's query and user evolution order.
std::vector<QueryId> AllQueries() {
  std::vector<QueryId> out;
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v) out.push_back({a, v});
  }
  return out;
}

plan::Plan BuildPlan(const QueryId& q) {
  return Check(workload::BuildQuery(q.analyst, q.version),
               "BuildQuery " + q.Name());
}

workload::TestBedConfig MakeConfig(const Workload& w, uint64_t seed,
                                   int engine_threads = 0) {
  workload::TestBedConfig config;
  config.data.seed = 20140622ULL + 7919ULL * seed;
  if (w.small_data) {
    config.data.n_tweets = 2000;
    config.data.n_checkins = 1200;
    config.data.n_locations = 200;
    config.data.n_users = 100;
  }
  // Calibration is derived from wall-clock time and would change rewrite
  // choices from run to run.
  config.calibrate_udfs = false;
  config.session.engine.num_threads = engine_threads;
  return config;
}

std::unique_ptr<workload::TestBed> CreateBed(const Workload& w, uint64_t seed,
                                             int engine_threads = 0) {
  return Check(workload::TestBed::Create(MakeConfig(w, seed, engine_threads)),
               "TestBed::Create");
}

/// Grows the store with executed queries: one cold pass of the workload,
/// then rounds of variants with a distinct, always-true filter on top (as
/// bench/fig10_scalability does), all with rewriting off. Rewriting a
/// stream of new variants is far too slow to grow a store this large (see
/// NOTES.md, "Observed rewriter pathology").
void GrowStore(workload::TestBed* bed, size_t target_views) {
  Server& server = bed->session().server();
  ClientSession client = server.Connect("grower");
  RunOptions off;
  off.rewrite = false;
  for (const QueryId& q : AllQueries()) {
    Check(client.Run(BuildPlan(q), off), "grow cold " + q.Name());
  }
  for (int round = 1; server.views().size() < target_views; ++round) {
    if (round > 200) {
      Fatal("grow", Status::Internal("store stopped growing at " +
                                     std::to_string(server.views().size())));
    }
    for (const QueryId& q : AllQueries()) {
      if (server.views().size() >= target_views) break;
      plan::Plan p = BuildPlan(q);
      const Status prepared = server.optimizer().Prepare(&p);
      if (!prepared.ok()) Fatal("grow prepare " + q.Name(), prepared);
      const std::string column = p.root()->out_schema.column(0).name;
      const plan::FilterCond always_true = plan::FilterCond::Compare(
          column, afk::CmpOp::kNe, storage::Value(-1000.0 - round));
      p = plan::Plan(plan::Filter(p.root(), always_true),
                     p.name() + "_r" + std::to_string(round));
      Check(client.Run(std::move(p), off), "grow variant " + q.Name());
    }
  }
}

/// Creates the server, generates and registers the data, grows the store
/// and runs one untimed warm-up pass, so that caches and memos are filled
/// before the first timed query. Evolution workloads end with an empty
/// store, as every timed pass starts.
std::unique_ptr<workload::TestBed> SetUp(const Workload& w, uint64_t seed) {
  std::unique_ptr<workload::TestBed> bed = CreateBed(w, seed);
  if (w.grow_views > 0) GrowStore(bed.get(), w.grow_views);
  ClientSession client = bed->session().server().Connect("warmup");
  RunOptions opts;
  opts.rewrite = w.rewrite;
  for (const QueryId& q : AllQueries()) {
    Check(client.Run(BuildPlan(q), opts), "warm-up " + q.Name());
  }
  if (w.passes) bed->DropAllViews();
  return bed;
}

/// The correctness oracle: every query's answer on a fresh server with
/// rewriting off, keyed by query name.
std::map<std::string, uint64_t> ReferenceFingerprints(const Workload& w,
                                                      uint64_t seed) {
  std::unique_ptr<workload::TestBed> bed = CreateBed(w, seed);
  ClientSession client = bed->session().server().Connect("reference");
  RunOptions off;
  off.rewrite = false;
  std::map<std::string, uint64_t> out;
  for (const QueryId& q : AllQueries()) {
    RunResult run =
        Check(client.Run(BuildPlan(q), off), "reference " + q.Name());
    if (run.table == nullptr) {
      Fatal("reference " + q.Name(), Status::Internal("no result table"));
    }
    out[q.Name()] = perfbench::UnorderedTableFingerprint(*run.table);
  }
  return out;
}

// --- Query execution ---------------------------------------------------------

/// What one query did, as the client saw it.
struct Sample {
  QueryId q;
  bool ok = false;
  double latency_s = 0;
  double queue_wait_s = 0;
  /// The paper's REWR cost (ORIG without rewriting): modeled execution
  /// time including statistics collection, plus the rewrite search time.
  double modeled_s = 0;
  /// UnorderedTableFingerprint of the answer, taken after the latency
  /// clock stopped.
  uint64_t fingerprint = 0;

  // Layer observations of the traced path.
  size_t candidates = 0;
  size_t attempts = 0;
  size_t decisions = 0;
  size_t accepted = 0;
  bool improved = false;
  int jobs = 0;
  uint64_t rows_read = 0;
  uint64_t bytes_written = 0;
  double udf_job_s = 0;
  double stats_wall_s = 0;
  uint64_t recycle_hits = 0;
  uint64_t recycle_misses = 0;
  size_t published = 0;
  size_t deduplicated = 0;
};

using QueryFn = std::function<Sample(int client, const QueryId& q)>;

/// The untraced path: ClientSession::Run as tenant<client>, timed from call
/// to return.
QueryFn UntracedQueries(Server& server, bool rewrite) {
  return [&server, rewrite](int client, const QueryId& q) {
    Sample s;
    s.q = q;
    ClientSession session = server.Connect("tenant" + std::to_string(client));
    plan::Plan plan = BuildPlan(q);
    RunOptions opts;
    opts.rewrite = rewrite;
    const Clock::time_point start = Clock::now();
    Result<RunResult> run = session.Run(std::move(plan), opts);
    s.latency_s = SecondsSince(start);
    if (!run.ok()) {
      std::fprintf(stderr, "perfbench: query %s failed: %s\n",
                   q.Name().c_str(), run.status().ToString().c_str());
      return s;
    }
    s.ok = true;
    s.queue_wait_s = run->queue_wait_s;
    s.modeled_s = run->metrics.TotalTime() +
                  (run->rewritten ? run->rewrite.stats.runtime_s : 0.0);
    if (run->table != nullptr) {
      s.fingerprint = perfbench::UnorderedTableFingerprint(*run->table);
    }
    return s;
  };
}

/// The traced path: the public calls of Server::RunAdmitted, in its order,
/// one span each, plus Optimizer::Prepare on a separate copy of the plan and
/// the query-log append of Server::Run. There is no admission: the client
/// count never exceeds the server's concurrency slots.
Sample TracedQuery(perfbench::SpanRecorder& rec, Server& server,
                   const std::string& tenant, const QueryId& q, bool rewrite) {
  Sample s;
  s.q = q;
  plan::Plan plan = BuildPlan(q);
  plan::Plan prepare_copy = BuildPlan(q);
  obs::MetricRegistry& global = obs::MetricRegistry::Global();
  obs::MetricRegistry& scope = server.TenantRegistry(tenant);
  const bool metrics_on = server.options().obs.metrics;

  storage::TablePtr answer;
  const uint64_t query = rec.BeginQuery(q.Name());
  const Clock::time_point start = Clock::now();
  auto run = [&]() -> Status {
    obs::MetricsSnapshot before;
    obs::MetricsSnapshot tenant_before;
    if (metrics_on) {
      rec.Time(query, "obs.metrics_capture", [&] {
        before = obs::MetricsSnapshot::Capture(global);
        tenant_before = obs::MetricsSnapshot::Capture(scope);
      });
    }
    OPD_RETURN_NOT_OK(rec.Time(query, "optimizer.prepare", [&] {
      return server.optimizer().Prepare(&prepare_copy);
    }));
    const catalog::Epoch admission_epoch = server.views().epoch();
    rewrite::RewriteOutcome outcome;
    if (rewrite) {
      const catalog::ViewSnapshot snapshot =
          rec.Time(query, "catalog.snapshot",
                   [&] { return server.views().SnapshotAt(admission_epoch); });
      OPD_ASSIGN_OR_RETURN(outcome, rec.Time(query, "rewrite.search", [&] {
        return server.rewriter().Rewrite(&plan, snapshot);
      }));
      OPD_RETURN_NOT_OK(rec.Time(query, "catalog.record_access", [&] {
        return catalog::RecordPlanAccesses(
            &server.views(), outcome.plan,
            std::max(outcome.original_cost - outcome.est_cost, 0.0));
      }));
      plan = outcome.plan;
      const rewrite::DecisionCounts counts = outcome.decisions.Counts();
      s.candidates = outcome.stats.candidates_considered;
      s.attempts = outcome.stats.rewrite_attempts;
      s.decisions = counts.candidates;
      s.accepted = counts.accepted;
      s.improved = outcome.improved;
    }
    OPD_ASSIGN_OR_RETURN(
        exec::ExecResult exec,
        rec.Time(query, "exec.execute",
                 [&] { return server.engine().Execute(&plan); }));
    for (catalog::ViewDefinition& def : exec.pending_views) def.tenant = tenant;
    catalog::Epoch publish_epoch = 0;
    const std::vector<catalog::ViewStore::PublishResult> published =
        rec.Time(query, "catalog.publish", [&] {
          return server.views().PublishBatch(std::move(exec.pending_views),
                                             &publish_epoch);
        });
    rec.Time(query, "recycle.invalidate", [&] {
      return server.recycler().InvalidateViews(
          [&server](int64_t id) { return server.views().Has(id); });
    });
    if (metrics_on) {
      rec.Time(query, "obs.metrics_capture", [&] {
        (void)obs::MetricsSnapshot::Capture(global).DiffFrom(before);
        (void)obs::MetricsSnapshot::Capture(scope).DiffFrom(tenant_before);
      });
    }

    s.published = published.size();
    for (const auto& pub : published) s.deduplicated += pub.added ? 0 : 1;
    s.jobs = exec.metrics.jobs;
    s.rows_read = exec.metrics.rows_read;
    s.bytes_written = exec.metrics.bytes_written;
    s.stats_wall_s = exec.metrics.stats_wall_time_s;
    for (const exec::JobRun& jr : exec.jobs) {
      s.recycle_hits += jr.recycle_hits;
      s.recycle_misses += jr.recycle_misses;
      if (jr.node != nullptr && jr.node->kind == plan::OpKind::kUdf) {
        s.udf_job_s += jr.wall_time_s;
      }
    }
    s.modeled_s = exec.metrics.TotalTime() +
                  (rewrite ? outcome.stats.runtime_s : 0.0);
    answer = exec.table;

    if (server.query_log() != nullptr) {
      rec.Time(query, "obs.querylog_append", [&] {
        obs::QueryRecord record;
        record.tenant = tenant;
        record.admission_epoch = admission_epoch;
        record.publish_epoch = publish_epoch;
        record.wall_time_s = SecondsSince(start);
        record.exec_time_s = exec.metrics.TotalTime();
        record.rows_in = exec.metrics.rows_read;
        record.rows_out = exec.table != nullptr ? exec.table->num_rows() : 0;
        record.jobs = static_cast<uint64_t>(exec.metrics.jobs);
        record.views_published = s.published - s.deduplicated;
        record.recycle_hits = s.recycle_hits;
        record.rw_candidates = s.decisions;
        record.rw_accepted = s.accepted;
        server.query_log()->Append(record);
      });
    }
    return Status::OK();
  };
  const Status status = run();
  rec.EndQuery();
  s.latency_s = SecondsSince(start);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: traced query %s failed: %s\n",
                 q.Name().c_str(), status.ToString().c_str());
    return s;
  }
  s.ok = true;
  if (answer != nullptr) {
    s.fingerprint = perfbench::UnorderedTableFingerprint(*answer);
  }
  return s;
}

// --- Closed loops ------------------------------------------------------------

struct LoopResult {
  std::vector<Sample> samples;
  /// Wall time of the timed region (excludes the between-pass resets).
  double wall_s = 0;
};

/// Queries a closed loop runs at least, however long that takes, so that
/// at least ten samples lie beyond the reported p95.
constexpr size_t kMinQueries = 200;

/// `clients` threads, one tenant each, replay shuffled copies of the
/// workload until `seconds` have passed and kMinQueries have been sent;
/// in-flight queries complete.
LoopResult RunTenants(int clients, uint64_t seed, double seconds,
                      const QueryFn& fn) {
  std::vector<std::vector<Sample>> per_client(clients);
  std::atomic<size_t> sent{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto more = [&] { return Clock::now() < deadline || sent < kMinQueries; };
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003ULL + static_cast<uint64_t>(c));
      std::vector<QueryId> stream = AllQueries();
      while (more()) {
        std::shuffle(stream.begin(), stream.end(), rng);
        for (const QueryId& q : stream) {
          if (!more()) break;
          ++sent;
          per_client[c].push_back(fn(c, q));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  out.wall_s = SecondsSince(start);
  for (std::vector<Sample>& samples : per_client) {
    for (Sample& s : samples) out.samples.push_back(std::move(s));
  }
  return out;
}

/// One client runs whole evolution passes until `seconds` of pass time
/// have passed and kMinQueries have been sent, emptying the store between
/// passes outside the timed region. The run ends on a pass boundary, so the
/// final store state is always that of one complete pass.
LoopResult RunPasses(workload::TestBed* bed, double seconds,
                     const QueryFn& fn) {
  LoopResult out;
  for (int pass = 0; out.wall_s < seconds || out.samples.size() < kMinQueries;
       ++pass) {
    if (pass > 0) bed->DropAllViews();
    const Clock::time_point start = Clock::now();
    for (const QueryId& q : AllQueries()) out.samples.push_back(fn(0, q));
    out.wall_s += SecondsSince(start);
  }
  return out;
}

LoopResult RunLoop(const Workload& w, workload::TestBed* bed, uint64_t seed,
                   double seconds, const QueryFn& fn) {
  return w.passes ? RunPasses(bed, seconds, fn)
                  : RunTenants(w.clients, seed, seconds, fn);
}

/// Compares every answer with the reference and prints each mismatch.
/// Returns the number of failed or wrong queries.
size_t CheckAnswers(const std::vector<Sample>& samples,
                    const std::map<std::string, uint64_t>& reference) {
  size_t bad = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (!s.ok) {
      ++bad;
      continue;
    }
    const std::string name = s.q.Name();
    if (s.fingerprint != reference.at(name)) {
      ++bad;
      std::fprintf(stderr,
                   "perfbench: wrong answer: query %s (sample %zu) "
                   "fingerprint %016llx, reference %016llx\n",
                   name.c_str(), i,
                   static_cast<unsigned long long>(s.fingerprint),
                   static_cast<unsigned long long>(reference.at(name)));
    }
  }
  return bad;
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "perfbench: %-28s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Runs --------------------------------------------------------------------

/// Set-up repetitions of an untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

int RunEndToEnd(const Workload& w, uint64_t seed, double seconds) {
  const std::map<std::string, uint64_t> reference =
      ReferenceFingerprints(w, seed);

  std::vector<double> setup_s;
  std::unique_ptr<workload::TestBed> bed;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bed.reset();
    const Clock::time_point start = Clock::now();
    bed = SetUp(w, seed);
    setup_s.push_back(SecondsSince(start));
  }
  Server& server = bed->session().server();

  LoopResult loop = RunLoop(w, bed.get(), seed, seconds,
                            UntracedQueries(server, w.rewrite));

  const perfbench::StorageAccount storage =
      perfbench::AccountStorage(server.dfs(), server.catalog(), server.views());
  std::vector<double> latencies;
  double modeled_s = 0;
  size_t completed = 0;
  for (const Sample& s : loop.samples) {
    if (!s.ok) continue;
    ++completed;
    latencies.push_back(s.latency_s);
    modeled_s += s.modeled_s;
  }
  const size_t attempted = loop.samples.size();
  const size_t bad = CheckAnswers(loop.samples, reference);

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu queries (%zu latency samples), "
               "%zu views, %zu DFS files, %zu orphan files\n",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               attempted, latencies.size(), server.views().size(),
               storage.dfs_files, storage.orphan_files);

  PrintResult(
      bad == 0, attempted, bad,
      {
          {"latency_p50_ms", 1e3 * perfbench::Percentile(latencies, 0.50),
           "ms"},
          {"latency_p95_ms", 1e3 * perfbench::Percentile(latencies, 0.95),
           "ms"},
          {"queries_per_s", Ratio(static_cast<double>(completed), loop.wall_s),
           "1/s"},
          {"answer_ok_frac",
           Ratio(static_cast<double>(attempted - bad),
                 static_cast<double>(attempted)),
           "ratio"},
          {"modeled_s_per_query",
           Ratio(modeled_s, static_cast<double>(completed)), "s"},
          {"dfs_bytes_per_live_byte", storage.BytesPerLiveByte(), "ratio"},
          {"setup_s", perfbench::Percentile(setup_s, 0.5), "s"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
      });
  return 0;
}

/// Summed Engine::Execute seconds of one rewrite-off pass of the workload's
/// queries on a fresh server whose engine runs `threads` worker threads
/// (after one untimed pass that fills the recycler).
double ExecuteSeconds(const Workload& w, uint64_t seed, int threads) {
  std::unique_ptr<workload::TestBed> bed = CreateBed(w, seed, threads);
  Server& server = bed->session().server();
  double execute_s = 0;
  for (int pass = 0; pass < 2; ++pass) {
    bed->DropAllViews();
    perfbench::SpanRecorder rec(0, 0);
    for (const QueryId& q : AllQueries()) {
      if (!TracedQuery(rec, server, "speedup", q, /*rewrite=*/false).ok) {
        Fatal("speedup " + q.Name(), Status::Internal("query failed"));
      }
    }
    execute_s = perfbench::SumLayers(rec.spans()).self_s["exec.execute"];
  }
  return execute_s;
}

int RunTraced(const Workload& w, uint64_t seed, double seconds,
              const std::string& trace_out) {
  const std::map<std::string, uint64_t> reference =
      ReferenceFingerprints(w, seed);
  std::unique_ptr<workload::TestBed> bed = SetUp(w, seed);
  Server& server = bed->session().server();

  // Untraced half: what the server's own serving path reports.
  const uint64_t queued_before = server.admission_stats().queued;
  LoopResult untraced = RunLoop(w, bed.get(), seed, seconds / 2,
                                UntracedQueries(server, w.rewrite));
  const uint64_t admissions_queued =
      server.admission_stats().queued - queued_before;
  double untraced_latency_s = 0;
  double queue_wait_s = 0;
  for (const Sample& s : untraced.samples) {
    untraced_latency_s += s.latency_s;
    queue_wait_s += s.queue_wait_s;
  }
  const double untraced_n = static_cast<double>(untraced.samples.size());
  if (w.passes) bed->DropAllViews();

  // Traced half: one recorder per client thread.
  std::vector<perfbench::SpanRecorder> recorders;
  for (int c = 0; c < w.clients; ++c) {
    recorders.emplace_back(c, static_cast<uint64_t>(c + 1) << 40);
  }
  const QueryFn traced_fn = [&](int client, const QueryId& q) {
    return TracedQuery(recorders[client], server,
                       "tenant" + std::to_string(client), q, w.rewrite);
  };
  LoopResult traced = RunLoop(w, bed.get(), seed + 1, seconds / 2, traced_fn);

  const perfbench::StorageAccount storage =
      perfbench::AccountStorage(server.dfs(), server.catalog(), server.views());
  const uint64_t recycle_bytes = server.recycler().bytes();

  std::vector<perfbench::Span> spans;
  for (const perfbench::SpanRecorder& rec : recorders) {
    spans.insert(spans.end(), rec.spans().begin(), rec.spans().end());
  }
  perfbench::LayerTotals layers = perfbench::SumLayers(spans);

  double candidates = 0, attempts = 0, decisions = 0, accepted = 0;
  double improved = 0, jobs = 0, rows_read = 0, bytes_written = 0;
  double udf_job_s = 0, stats_wall_s = 0, hits = 0, misses = 0;
  double published = 0, deduplicated = 0;
  for (const Sample& s : traced.samples) {
    candidates += static_cast<double>(s.candidates);
    attempts += static_cast<double>(s.attempts);
    decisions += static_cast<double>(s.decisions);
    accepted += static_cast<double>(s.accepted);
    improved += s.improved ? 1 : 0;
    jobs += s.jobs;
    rows_read += static_cast<double>(s.rows_read);
    bytes_written += static_cast<double>(s.bytes_written);
    udf_job_s += s.udf_job_s;
    stats_wall_s += s.stats_wall_s;
    hits += static_cast<double>(s.recycle_hits);
    misses += static_cast<double>(s.recycle_misses);
    published += static_cast<double>(s.published);
    deduplicated += static_cast<double>(s.deduplicated);
  }
  const double n = static_cast<double>(traced.samples.size());
  double self_sum_s = 0;
  for (const auto& [name, s] : layers.self_s) self_sum_s += s;
  auto layer_ms = [&](const char* name) {
    return 1e3 * Ratio(layers.self_s[name], n);
  };
  const double traced_mean_s = Ratio(layers.query_s, n);
  const double untraced_mean_s = Ratio(untraced_latency_s, untraced_n);

  const double execute_1t = ExecuteSeconds(w, seed, 1);
  const double execute_4t = ExecuteSeconds(w, seed, 4);

  const size_t attempted = untraced.samples.size() + traced.samples.size();
  const size_t bad = CheckAnswers(untraced.samples, reference) +
                     CheckAnswers(traced.samples, reference);

  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
    out << perfbench::ToChromeTraceJson(spans);
    if (!out) {
      Fatal("trace", Status::Internal("cannot write " + trace_out));
    }
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu traced: %zu untraced + %zu traced "
               "queries, %zu spans\n",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               untraced.samples.size(), traced.samples.size(), spans.size());

  PrintResult(
      bad == 0, attempted, bad,
      {
          {"server.queue_wait_ms", 1e3 * Ratio(queue_wait_s, untraced_n), "ms"},
          {"server.admissions_queued", static_cast<double>(admissions_queued),
           "count"},
          {"optimizer.prepare_ms", layer_ms("optimizer.prepare"), "ms"},
          {"catalog.snapshot_ms", layer_ms("catalog.snapshot"), "ms"},
          {"catalog.record_access_ms", layer_ms("catalog.record_access"), "ms"},
          {"catalog.publish_ms", layer_ms("catalog.publish"), "ms"},
          {"catalog.dedup_frac", Ratio(deduplicated, published), "ratio"},
          {"rewrite.search_ms", layer_ms("rewrite.search"), "ms"},
          {"rewrite.candidates", Ratio(candidates, n), "count"},
          {"rewrite.attempts", Ratio(attempts, n), "count"},
          {"rewrite.accept_frac", Ratio(accepted, decisions), "ratio"},
          {"rewrite.improved_frac", Ratio(improved, n), "ratio"},
          {"exec.execute_ms", layer_ms("exec.execute"), "ms"},
          {"exec.jobs", Ratio(jobs, n), "count"},
          {"exec.rows_per_s", Ratio(rows_read, layers.self_s["exec.execute"]),
           "1/s"},
          {"exec.udf_job_ms", 1e3 * Ratio(udf_job_s, n), "ms"},
          {"exec.stats_ms", 1e3 * Ratio(stats_wall_s, n), "ms"},
          {"exec.bytes_written", Ratio(bytes_written, n), "bytes"},
          {"exec.speedup_4v1", Ratio(execute_1t, execute_4t), "x"},
          {"recycle.hit_frac", Ratio(hits, hits + misses), "ratio"},
          {"recycle.invalidate_ms", layer_ms("recycle.invalidate"), "ms"},
          {"recycle.bytes", static_cast<double>(recycle_bytes), "bytes"},
          {"storage.dfs_files", static_cast<double>(storage.dfs_files),
           "count"},
          {"storage.orphan_bytes", static_cast<double>(storage.orphan_bytes),
           "bytes"},
          {"obs.metrics_capture_ms", layer_ms("obs.metrics_capture"), "ms"},
          {"obs.querylog_append_ms", layer_ms("obs.querylog_append"), "ms"},
          {"trace.coverage", Ratio(self_sum_s, layers.query_s), "ratio"},
          {"trace.overhead_pct",
           100.0 * Ratio(traced_mean_s - untraced_mean_s, untraced_mean_s),
           "%"},
      });
  return 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: opd_perfbench --workload <warm_500v|evolve|orig> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  for (const Workload& w : Workloads()) {
    if (w.name != args.workload) continue;
    return args.trace ? RunTraced(w, args.seed, args.seconds, args.trace_out)
                      : RunEndToEnd(w, args.seed, args.seconds);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
