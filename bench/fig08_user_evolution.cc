// Figure 8 (Section 8.3.2), user evolution: each analyst in turn is the
// "holdout"; every other analyst runs the first version of their query, and
// the holdout's v1 is then rewritten against those views.
//
//   Fig 8(a): execution time ORIG vs REWR per holdout analyst (log scale).
//   Fig 8(b): data manipulated (read+shuffle+write) in GB.
//   Fig 8(c): % improvement in execution time.
//
// Paper shape: REWR always beats ORIG, improvements roughly 50-90%, and the
// data-manipulated reduction mirrors the time reduction.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

int main() {
  bench::Header("Figure 8: User Evolution (holdout analyst's v1)");

  auto bed = bench::CheckResult(workload::TestBed::Create(), "testbed");
  bench::PrintUdfScalars(*bed);
  auto rows = bench::CheckResult(workload::RunUserEvolution(bed.get()),
                                 "scenario");

  std::printf("%-8s %12s %12s %12s %12s %14s\n", "holdout", "ORIG (s)",
              "REWR (s)", "ORIG (GB)", "REWR (GB)", "improvement");
  double min_impr = 100, max_impr = 0;
  bool always_faster = true;
  bool data_mirrors_time = true;
  for (const auto& row : rows) {
    std::printf("A%-7d %12.1f %12.1f %12.2f %12.2f %13.1f%%\n", row.analyst,
                row.orig_time_s, row.rewr_time_s, row.orig_gb, row.rewr_gb,
                row.ImprovementPct());
    min_impr = std::min(min_impr, row.ImprovementPct());
    max_impr = std::max(max_impr, row.ImprovementPct());
    if (row.rewr_time_s >= row.orig_time_s) always_faster = false;
    if (row.ImprovementPct() > 30.0 && row.rewr_gb >= row.orig_gb) {
      data_mirrors_time = false;
    }
  }
  std::printf("\nimprovement range: %.1f%% .. %.1f%%\n", min_impr, max_impr);

  bool ok = true;
  ok &= bench::ShapeCheck(always_faster,
                          "REWR execution time is always lower than ORIG "
                          "(paper Fig 8a)");
  ok &= bench::ShapeCheck(max_impr >= 70.0 && min_impr >= 5.0,
                          "improvements span a wide range up to ~90% "
                          "(paper Fig 8c: 50-90%)");
  ok &= bench::ShapeCheck(data_mirrors_time,
                          "data manipulated shows the same trend as time "
                          "(paper Fig 8b)");
  return ok ? 0 : 1;
}
