// Figure 7 (Section 8.3.1), query evolution: each analyst iteratively
// refines their query (v1 -> v4); every version is rewritten against the
// opportunistic views produced by the earlier versions.
//
//   Fig 7(a): execution time of ORIG vs REWR per query version (log scale).
//   Fig 7(b): % improvement in execution time (v1 omitted; always 0).
//
// Paper shape: REWR improves v2-v4 by ~10-90% (average ~61%), up to an
// order of magnitude, and never loses.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

int main() {
  bench::Header("Figure 7: Query Evolution (ORIG vs REWR per version)");

  auto bed = bench::CheckResult(workload::TestBed::Create(), "testbed");
  bench::PrintUdfScalars(*bed);
  auto rows =
      bench::CheckResult(workload::RunQueryEvolution(bed.get()), "scenario");

  std::printf("%-8s %12s %12s %14s %12s %12s\n", "query", "ORIG (s)",
              "REWR (s)", "improvement", "ORIG (GB)", "REWR (GB)");
  double improvement_sum = 0;
  int improvement_count = 0;
  double max_improvement = 0;
  bool rewr_never_loses = true;
  for (const auto& row : rows) {
    std::printf("A%dv%-5d %12.1f %12.1f %13.1f%% %12.2f %12.2f\n",
                row.analyst, row.version, row.orig_time_s, row.rewr_time_s,
                row.ImprovementPct(), row.orig_gb, row.rewr_gb);
    if (row.version > 1) {
      improvement_sum += row.ImprovementPct();
      improvement_count += 1;
      max_improvement = std::max(max_improvement, row.ImprovementPct());
      if (row.rewr_time_s > row.orig_time_s * 1.05) rewr_never_loses = false;
    }
  }
  const double avg = improvement_sum / std::max(improvement_count, 1);
  std::printf("\naverage improvement (v2-v4): %.1f%%  max: %.1f%%\n", avg,
              max_improvement);

  bool ok = true;
  ok &= bench::ShapeCheck(avg >= 40.0,
                          "average v2-v4 improvement is large (paper: ~61%)");
  ok &= bench::ShapeCheck(max_improvement >= 85.0,
                          "best case approaches an order of magnitude "
                          "(paper: up to ~10x)");
  ok &= bench::ShapeCheck(rewr_never_loses,
                          "REWR never materially slower than ORIG");
  return ok ? 0 : 1;
}
