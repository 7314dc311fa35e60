// Figure 9 (Section 8.3.3): BFR vs DP in the user-evolution setting —
//   (a) candidate views considered, (b) rewrite attempts,
//   (c) algorithm runtime (log scale).
//
// Paper shape: both algorithms find identical rewrites, but BFR considers
// far fewer candidates, attempts far fewer rewrites, and runs faster —
// because GUESSCOMPLETE screens candidates and OPTCOST orders the space so
// the search can stop early.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

int main() {
  bench::Header("Figure 9: BFR vs DP (candidates, attempts, runtime)");

  auto bed = bench::CheckResult(workload::TestBed::Create(), "testbed");

  std::printf("%-8s %12s %12s | %10s %10s | %12s %12s | %12s %12s\n",
              "holdout", "BFR cand", "DP cand", "BFR att", "DP att",
              "BFR time", "DP time", "BFR cost", "DP cost");

  size_t bfr_cand_total = 0, dp_cand_total = 0;
  size_t bfr_att_total = 0, dp_att_total = 0;
  double bfr_time_total = 0, dp_time_total = 0;
  bool identical_rewrites = true;

  for (int holdout = 1; holdout <= workload::kNumAnalysts; ++holdout) {
    bed->DropAllViews();
    for (int analyst = 1; analyst <= workload::kNumAnalysts; ++analyst) {
      if (analyst == holdout) continue;
      bench::CheckResult(bed->RunOriginal(analyst, 1), "warmup run");
    }
    auto plan_bfr =
        bench::CheckResult(workload::BuildQuery(holdout, 1), "build");
    auto bfr =
        bench::CheckResult(bed->bfr().Rewrite(&plan_bfr), "BFR rewrite");
    auto plan_dp =
        bench::CheckResult(workload::BuildQuery(holdout, 1), "build");
    auto dp = bench::CheckResult(bed->dp().Rewrite(&plan_dp), "DP rewrite");

    std::printf(
        "A%-7d %12zu %12zu | %10zu %10zu | %11.3fs %11.3fs | %12.1f %12.1f\n",
        holdout, bfr.stats.candidates_considered,
        dp.stats.candidates_considered, bfr.stats.rewrite_attempts,
        dp.stats.rewrite_attempts, bfr.stats.runtime_s, dp.stats.runtime_s,
        bfr.est_cost, dp.est_cost);

    bfr_cand_total += bfr.stats.candidates_considered;
    dp_cand_total += dp.stats.candidates_considered;
    bfr_att_total += bfr.stats.rewrite_attempts;
    dp_att_total += dp.stats.rewrite_attempts;
    bfr_time_total += bfr.stats.runtime_s;
    dp_time_total += dp.stats.runtime_s;
    // "Both algorithms produce identical rewrites (i.e., r*)." A DP cut
    // short by its budget has not found the optimum.
    if (dp.stats.budget_exceeded) {
      identical_rewrites = false;
      std::printf("  ^ DP hit its safety budget\n");
    }
    if (std::abs(bfr.est_cost - dp.est_cost) > 1e-6 * (1 + dp.est_cost)) {
      identical_rewrites = false;
      std::printf("  ^ MISMATCH: BFR %f vs DP %f\n", bfr.est_cost,
                  dp.est_cost);
    }
  }

  std::printf("\ntotals: candidates BFR=%zu DP=%zu, attempts BFR=%zu DP=%zu, "
              "runtime BFR=%.3fs DP=%.3fs\n",
              bfr_cand_total, dp_cand_total, bfr_att_total, dp_att_total,
              bfr_time_total, dp_time_total);

  bool ok = true;
  ok &= bench::ShapeCheck(identical_rewrites,
                          "BFR and DP find identical minimum-cost rewrites");
  ok &= bench::ShapeCheck(bfr_cand_total * 2 <= dp_cand_total,
                          "BFR considers far fewer candidate views (Fig 9a)");
  ok &= bench::ShapeCheck(bfr_att_total <= dp_att_total,
                          "BFR attempts no more rewrites than DP (Fig 9b)");
  ok &= bench::ShapeCheck(bfr_time_total <= dp_time_total,
                          "BFR runs no slower than DP in total (Fig 9c)");
  return ok ? 0 : 1;
}
