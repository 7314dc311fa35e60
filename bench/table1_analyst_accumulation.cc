// Table 1 (Section 8.3.2): improvement in execution time of query A5v3 as
// more analysts' queries (and therefore more opportunistic views) enter the
// system.
//
// Paper: 1 analyst -> 0%, then 73%, 73%, 75%, 89%, 89%, 89% — improvement
// grows with added analysts and saturates.

#include <cstdio>

#include "bench_util.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

int main() {
  bench::Header("Table 1: improvement of A5v3 as analysts are added");

  auto bed = bench::CheckResult(workload::TestBed::Create(), "testbed");
  bench::PrintUdfScalars(*bed);
  auto improvements = bench::CheckResult(
      workload::RunAnalystAccumulation(bed.get()), "scenario");

  std::printf("%-16s", "Analysts added");
  for (size_t i = 0; i < improvements.size(); ++i) {
    std::printf(" %6zu", i + 1);
  }
  std::printf("\n%-16s", "Improvement");
  for (double imp : improvements) std::printf(" %5.0f%%", imp);
  std::printf("\n\n");

  bool non_decreasing = true;
  for (size_t i = 1; i < improvements.size(); ++i) {
    if (improvements[i] + 8.0 < improvements[i - 1]) non_decreasing = false;
  }
  bool ok = true;
  ok &= bench::ShapeCheck(improvements.front() == 0.0,
                          "a single analyst yields no improvement");
  ok &= bench::ShapeCheck(improvements.back() >= 50.0,
                          "with all analysts present the improvement is "
                          "large (paper: 89%)");
  ok &= bench::ShapeCheck(non_decreasing,
                          "improvement grows (weakly) as analysts are added");
  return ok ? 0 : 1;
}
