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
// Paper shape: DP's runtime explodes (prohibitive by ~250 views); BFR grows
// much more slowly and stays feasible at 1,000 views.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
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

  const std::vector<size_t> sizes = {50, 250, 500, 750, 1000};
  std::printf("%-10s %14s %14s %16s %16s %12s %12s\n", "views",
              "BFR time(s)", "DP time(s)", "BFR candidates", "DP candidates",
              "BFR cost", "DP cost");

  int queries_run = 0;
  double grow_s = 0;
  std::vector<double> bfr_times, dp_times;
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
    if (dp.stats.budget_exceeded) dp_explodes = true;
  }
  std::printf("\n(* = DP hit its safety budget; the paper calls DP "
              "\"prohibitively expensive\" beyond 250 views)\n");
  std::printf("store grown by executing %d queries (rewriting off) in "
              "%.1f s\n\n",
              queries_run, grow_s);

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
  return ok ? 0 : 1;
}
