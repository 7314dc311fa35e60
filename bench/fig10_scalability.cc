// Figure 10 (Section 8.3.3): rewriter runtime as the number of views in the
// system scales up, for query A3v1. Every view is the output of a job that
// really ran, as in the paper (which collected ~9,600 views during
// development and drew subsets): the store grows through the serving path
// with rewriting off, first with one cold pass of the 32 workload queries,
// then with rounds of variants that stack a distinct, always-true filter on
// top (workload::BuildVariantQuery). At each size, the views identical to
// A3v1's targets are discarded, with their DFS files, so the algorithms
// cannot terminate trivially.
//
// A second series follows the slowest of the 32 queries: at each size every
// query is rewritten by a fresh BFR (cold memos: the cost a query pays on
// first sight) against a copy of the store without the views identical to
// its own targets, and the slowest one's time, pops and REWRITEENUM
// attempts are printed.
//
// Paper shape: DP's runtime explodes (prohibitive by ~250 views); BFR grows
// much more slowly and stays feasible at 1,000 views. The most pops any
// query makes grows at most linearly in the number of views.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rewrite/bf_rewrite.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

namespace {

constexpr int kQueries = workload::kNumAnalysts * workload::kNumVersions;

/// Executes the `i`-th query of the growth sequence with rewriting off:
/// variant round i / 32 of the workload's query i % 32.
void RunGrowthQuery(workload::TestBed* bed, int i) {
  const int q = i % kQueries;
  plan::Plan p = bench::CheckResult(
      workload::BuildVariantQuery(bed, q / workload::kNumVersions + 1,
                                  q % workload::kNumVersions + 1,
                                  i / kQueries),
      "build");
  RunOptions off;
  off.rewrite = false;
  bench::CheckResult(bed->session().Run(std::move(p), off), "grow run");
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One point of the slowest-query series.
struct Slowest {
  std::string query;
  double bfr_s = 0;
  size_t pops = 0;
  size_t attempts = 0;
  /// The most pops any of the 32 queries made.
  size_t max_pops = 0;
};

/// Rewrites each of the 32 queries with a fresh BfRewriter over a copy of
/// the store that lacks the views identical to the query's targets.
Slowest SlowestQuery(workload::TestBed* bed) {
  const catalog::ViewSnapshot all = bed->views().Snapshot();
  Slowest slowest;
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v) {
      const std::vector<afk::Afk> targets = bench::CheckResult(
          workload::TargetAnnotations(bed, a, v), "annotate");
      catalog::ViewStore store;
      for (const catalog::ViewDefinition* def : all.All()) {
        if (std::find(targets.begin(), targets.end(), def->afk) ==
            targets.end()) {
          store.Publish(*def);
        }
      }
      rewrite::BfRewriter bfr(&bed->optimizer(), &store,
                              bed->bfr().options());
      plan::Plan plan =
          bench::CheckResult(workload::BuildQuery(a, v), "build");
      const rewrite::RewriteOutcome out =
          bench::CheckResult(bfr.Rewrite(&plan), "BFR");
      slowest.max_pops =
          std::max(slowest.max_pops, out.stats.candidates_considered);
      if (out.stats.runtime_s > slowest.bfr_s) {
        slowest = Slowest{"A" + std::to_string(a) + "v" + std::to_string(v),
                          out.stats.runtime_s,
                          out.stats.candidates_considered,
                          out.stats.rewrite_attempts, slowest.max_pops};
      }
    }
  }
  return slowest;
}

}  // namespace

int main() {
  bench::Header("Figure 10: rewriter runtime vs number of views (A3v1)");

  workload::TestBedConfig config;
  // Let DP burn real time: cap it at 30 s per point, so the exponential
  // blow-up is visible in the series. The default candidate cap counts the
  // candidates DP builds, far fewer than it here.
  config.session.rewrite.dp_time_budget_s = 30.0;
  auto bed =
      bench::CheckResult(workload::TestBed::Create(config), "testbed");
  bench::PrintUdfScalars(*bed);

  const std::vector<size_t> sizes = {50, 250, 500, 750, 1000};
  std::printf("%-10s %14s %14s %16s %16s %12s %12s\n", "views",
              "BFR time(s)", "DP time(s)", "BFR candidates", "DP candidates",
              "BFR cost", "DP cost");

  int queries_run = 0;
  double grow_s = 0;
  std::vector<double> bfr_times, dp_times;
  std::vector<size_t> view_counts;
  std::vector<Slowest> slowest;
  bool dp_explodes = false;
  for (size_t n : sizes) {
    const auto grow_start = std::chrono::steady_clock::now();
    while (bed->views().size() < n) {
      if (queries_run == 500 * kQueries) {
        bench::CheckOk(Status::Internal("store stopped growing"), "grow");
      }
      RunGrowthQuery(bed.get(), queries_run++);
    }
    bench::CheckOk(workload::DropIdenticalViews(bed.get(), 3, 1),
                   "drop identical");
    grow_s += SecondsSince(grow_start);

    auto plan_bfr = bench::CheckResult(workload::BuildQuery(3, 1), "build");
    auto bfr = bench::CheckResult(bed->bfr().Rewrite(&plan_bfr), "BFR");
    auto plan_dp = bench::CheckResult(workload::BuildQuery(3, 1), "build");
    auto dp = bench::CheckResult(bed->dp().Rewrite(&plan_dp), "DP");

    std::printf("%-10zu %14.3f %13.3f%s %16zu %16zu %12.2f %12.2f\n",
                bed->views().size(), bfr.stats.runtime_s, dp.stats.runtime_s,
                dp.stats.budget_exceeded ? "*" : " ",
                bfr.stats.candidates_considered,
                dp.stats.candidates_considered, bfr.est_cost, dp.est_cost);
    bfr_times.push_back(bfr.stats.runtime_s);
    dp_times.push_back(dp.stats.runtime_s);
    view_counts.push_back(bed->views().size());
    slowest.push_back(SlowestQuery(bed.get()));
    if (dp.stats.budget_exceeded) dp_explodes = true;
  }
  std::printf("\n(* = DP hit its safety budget; the paper calls DP "
              "\"prohibitively expensive\" beyond 250 views)\n");
  std::printf("store grown by executing %d queries (rewriting off) in "
              "%.1f s\n\n",
              queries_run, grow_s);

  std::printf("Slowest of the 32 queries (cold BFR, own identical views "
              "removed):\n");
  std::printf("%-10s %-8s %14s %10s %10s %16s\n", "views", "query",
              "BFR time(s)", "pops", "attempts", "max pops (32q)");
  for (size_t i = 0; i < slowest.size(); ++i) {
    std::printf("%-10zu %-8s %14.4f %10zu %10zu %16zu\n", view_counts[i],
                slowest[i].query.c_str(), slowest[i].bfr_s, slowest[i].pops,
                slowest[i].attempts, slowest[i].max_pops);
  }
  std::printf("\n");

  bool ok = true;
  ok &= bench::ShapeCheck(
      bfr_times.back() <= dp_times.back(),
      "at 1000 views BFR is faster than DP (paper: ~10x-100x gap)");
  ok &= bench::ShapeCheck(
      bfr_times.back() < 1000.0,
      "BFR stays feasible at 1000 views (paper: under 1000s)");
  ok &= bench::ShapeCheck(
      dp_times.back() >= 2 * bfr_times.back() || dp_explodes,
      "DP scales much worse than BFR as views grow");
  // Counts, not times: from the first point on, the most pops any query
  // makes grows no faster than the store.
  bool linear = true;
  for (size_t i = 1; i < slowest.size(); ++i) {
    linear &= slowest[i].max_pops * view_counts[0] <=
              slowest[0].max_pops * view_counts[i];
  }
  ok &= bench::ShapeCheck(
      linear, "the most pops of any query grow at most linearly in views");
  return ok ? 0 : 1;
}
