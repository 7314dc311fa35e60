// The experiment environment (TestBed) and the scenario drivers behind the
// paper's evaluation (Section 8.3): query evolution, user evolution, analyst
// accumulation, algorithm comparisons, scalability, convergence, and the
// syntactic-caching comparison.

#ifndef OPD_WORKLOAD_SCENARIOS_H_
#define OPD_WORKLOAD_SCENARIOS_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "exec/engine.h"
#include "optimizer/calibration.h"
#include "optimizer/optimizer.h"
#include "rewrite/bf_rewrite.h"
#include "rewrite/dp_rewrite.h"
#include "rewrite/syntactic.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/dfs.h"
#include "udf/udf_registry.h"
#include "workload/datagen.h"
#include "workload/queries.h"

namespace opd::workload {

struct TestBedConfig {
  DataGenConfig data;
  /// Every subsystem knob (cost params, optimizer, engine, rewrite, obs,
  /// server), consolidated under the server they configure.
  SessionOptions session;
  /// Calibrate UDF cost scalars on 1% samples at startup (Section 4.2).
  bool calibrate_udfs = true;
};

/// \brief The experiment environment: an opd::Server loaded with the
/// paper's synthetic data and UDF workload, a ClientSession for tenant
/// "default", plus the two comparison rewriters (DP and syntactic caching)
/// used by the ablation studies.
class TestBed {
 public:
  /// Creates the bed. Setting the OPD_TRACE environment variable turns on
  /// server tracing (used by scripts/check.sh to exercise traced runs).
  static Result<std::unique_ptr<TestBed>> Create(TestBedConfig config = {});

  /// Drops all views (metadata + DFS files). Base tables survive.
  void DropAllViews();

  /// Executes the original plan of query A<analyst>v<version>, retaining
  /// opportunistic views.
  Result<exec::ExecResult> RunOriginal(int analyst, int version);

  /// Rewrites the query with BFREWRITE against current views, then executes
  /// the best plan. The metrics include statistics collection; the rewrite
  /// outcome carries the search stats.
  struct RewrittenRun {
    exec::ExecResult exec;
    rewrite::RewriteOutcome outcome;
    /// Reported REWR time: execution + stats collection + rewrite runtime
    /// (the paper's REWR metric).
    double TotalTime() const {
      return exec.metrics.TotalTime() + outcome.stats.runtime_s;
    }
  };
  Result<RewrittenRun> RunRewritten(int analyst, int version);

  /// The "default" tenant's handle; `session().server()` is the server
  /// everything below delegates to.
  ClientSession& session() { return session_; }
  storage::Dfs& dfs() { return server_->dfs(); }
  catalog::Catalog& catalog() { return server_->catalog(); }
  catalog::ViewStore& views() { return server_->views(); }
  udf::UdfRegistry& udfs() { return server_->udfs(); }
  const optimizer::Optimizer& optimizer() { return server_->optimizer(); }
  exec::Engine& engine() { return server_->engine(); }
  const rewrite::BfRewriter& bfr() { return server_->rewriter(); }
  const rewrite::DpRewriter& dp() { return *dp_; }
  const rewrite::SyntacticRewriter& syntactic() { return *syntactic_; }
  const TestBedConfig& config() const { return config_; }

 private:
  TestBed() = default;
  Status Calibrate();

  TestBedConfig config_;
  std::unique_ptr<Server> server_;
  ClientSession session_;
  std::unique_ptr<rewrite::DpRewriter> dp_;
  std::unique_ptr<rewrite::SyntacticRewriter> syntactic_;
};

// --- Scenario drivers -------------------------------------------------------

/// One measured query: ORIG vs REWR.
struct ComparisonRow {
  int analyst = 0;
  int version = 0;
  double orig_time_s = 0;
  double rewr_time_s = 0;  // includes rewrite + stats time
  double orig_gb = 0;      // data manipulated, modeled GB
  double rewr_gb = 0;
  rewrite::RewriteStats stats;

  double ImprovementPct() const {
    return orig_time_s <= 0 ? 0
                            : 100.0 * (orig_time_s - rewr_time_s) /
                                  orig_time_s;
  }
};

/// Query evolution (Section 8.3.1): per analyst, run v1..v4 in order,
/// rewriting each version against the views of earlier versions.
Result<std::vector<ComparisonRow>> RunQueryEvolution(TestBed* bed);

/// User evolution (Section 8.3.2): for each holdout analyst, run every other
/// analyst's v1, then rewrite/execute the holdout's v1.
/// `drop_identical_views` reproduces the Table 2 variant.
Result<std::vector<ComparisonRow>> RunUserEvolution(
    TestBed* bed, bool drop_identical_views = false);

/// Analyst accumulation (Table 1): improvement of A5v3 as analysts' queries
/// (all 4 versions each) are added one at a time. Returns improvement % per
/// number of analysts added (index 0 = 1 analyst = just A5's own v3 baseline
/// run with no views).
Result<std::vector<double>> RunAnalystAccumulation(TestBed* bed);

/// Query A<analyst>v<version> for variant round `round`. Round 0 is the
/// query itself; round r > 0 puts the vacuous, round-specific filter
/// `col != -1000 - r` on its root (`col` is the root's first column), which
/// gives the variant a new AFK annotation. Executing rounds of variants
/// grows a store of distinct views (Figure 10).
Result<plan::Plan> BuildVariantQuery(TestBed* bed, int analyst, int version,
                                     int round);

/// The AFK annotations of query A<analyst>v<version>'s targets (its
/// non-scan operators): a view with one of them is identical to a target.
Result<std::vector<afk::Afk>> TargetAnnotations(TestBed* bed, int analyst,
                                                int version);

/// Discards every view whose AFK annotation is identical to some target of
/// query A<analyst>v<version>, with its DFS file (Table 2, Figure 10).
Status DropIdenticalViews(TestBed* bed, int analyst, int version);

}  // namespace opd::workload

#endif  // OPD_WORKLOAD_SCENARIOS_H_
