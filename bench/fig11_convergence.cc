// Figure 11 (Section 8.3.3): the quality of BFR's solutions over its search
// time. A1v1 runs first (producing views); for each of A1v2..A1v4 we trace
// the % error of the best-known rewrite cost relative to the optimal rewrite
// as the search progresses.
//
// Paper shape: error starts at 100% (no rewrite yet), stays flat while the
// candidate space is grown, then converges to 0% quickly once the first
// rewrites appear; BFR finds far fewer valid rewrites than DP before
// terminating (e.g. 46 vs 4656 for A1v4).

#include <cstdio>

#include "bench_util.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

int main() {
  bench::Header("Figure 11: BFR convergence to the optimal rewrite (A1v2-v4)");

  auto bed = bench::CheckResult(workload::TestBed::Create(), "testbed");
  bench::PrintUdfScalars(*bed);
  bed->DropAllViews();
  bench::CheckResult(bed->RunOriginal(1, 1), "A1v1 execution");
  bench::CheckResult(bed->RunOriginal(1, 2), "A1v2 execution");
  bench::CheckResult(bed->RunOriginal(1, 3), "A1v3 execution");

  bool converges = true;
  bool monotone = true;
  bool bfr_finds_fewer = true;

  for (int version = 2; version <= 4; ++version) {
    auto plan = bench::CheckResult(workload::BuildQuery(1, version), "build");
    auto outcome =
        bench::CheckResult(bed->bfr().Rewrite(&plan), "BFR rewrite");
    auto plan_dp =
        bench::CheckResult(workload::BuildQuery(1, version), "build");
    auto dp = bench::CheckResult(bed->dp().Rewrite(&plan_dp), "DP rewrite");

    const double orig = outcome.original_cost;
    const double opt = outcome.est_cost;
    std::printf("A1v%d: original cost %.1f, optimal rewrite cost %.1f, "
                "search %.4fs, valid rewrites: BFR=%zu DP=%zu\n",
                version, orig, opt, outcome.stats.runtime_s,
                outcome.stats.rewrites_found, dp.stats.rewrites_found);
    std::printf("  %-12s %-12s %s\n", "elapsed (s)", "cost", "% error");
    double prev_err = 1e300;
    for (const auto& [elapsed, cost] : outcome.stats.convergence) {
      double err = (orig - opt) <= 0 ? 0.0
                                     : 100.0 * (cost - opt) / (orig - opt);
      std::printf("  %-12.5f %-12.1f %6.1f%%\n", elapsed, cost, err);
      if (err > prev_err + 1e-9) monotone = false;
      prev_err = err;
    }
    if (outcome.stats.convergence.empty() ||
        outcome.stats.convergence.back().second > opt + 1e-6) {
      converges = false;
    }
    if (outcome.stats.rewrites_found > dp.stats.rewrites_found) {
      bfr_finds_fewer = false;
    }
    std::printf("\n");
  }

  bool ok = true;
  ok &= bench::ShapeCheck(converges,
                          "each trace ends at the optimal rewrite (0% error)");
  ok &= bench::ShapeCheck(monotone, "error decreases monotonically");
  ok &= bench::ShapeCheck(bfr_finds_fewer,
                          "BFR terminates after finding no more valid "
                          "rewrites than exhaustive DP");
  return ok ? 0 : 1;
}
