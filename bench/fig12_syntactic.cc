// Figure 12 (Section 8.3.4): BFR vs BFR-SYNTACTIC on the query-evolution
// scenario for analyst 1. A1v1 executes once; A1v2-v4 are then rewritten by
// both the semantic rewriter and the syntactic-caching baseline.
//
// Paper shape: both methods tie on A1v2 (syntactically identical sub-plans
// exist), but BFR-SYNTACTIC falls behind on A1v3/A1v4, where reuse requires
// semantic compensation (changed thresholds).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

int main() {
  bench::Header("Figure 12: BFR vs BFR-SYNTACTIC (A1v2-v4, % improvement)");

  auto bed = bench::CheckResult(workload::TestBed::Create(), "testbed");
  bench::PrintUdfScalars(*bed);
  bed->DropAllViews();
  bench::CheckResult(bed->RunOriginal(1, 1), "A1v1 execution");

  std::printf("%-8s %14s %18s\n", "query", "BFR", "BFR-SYNTACTIC");
  double bfr_impr[5] = {0}, syn_impr[5] = {0};
  for (int version = 2; version <= 4; ++version) {
    auto plan_b = bench::CheckResult(workload::BuildQuery(1, version), "b");
    auto bfr = bench::CheckResult(bed->bfr().Rewrite(&plan_b), "BFR");
    auto plan_s = bench::CheckResult(workload::BuildQuery(1, version), "b");
    auto syn =
        bench::CheckResult(bed->syntactic().Rewrite(&plan_s), "SYNTACTIC");

    bfr_impr[version] = bfr.original_cost <= 0
                            ? 0
                            : 100.0 * (bfr.original_cost - bfr.est_cost) /
                                  bfr.original_cost;
    syn_impr[version] = syn.original_cost <= 0
                            ? 0
                            : 100.0 * (syn.original_cost - syn.est_cost) /
                                  syn.original_cost;
    std::printf("A1v%-5d %13.1f%% %17.1f%%\n", version, bfr_impr[version],
                syn_impr[version]);
  }

  bool ok = true;
  ok &= bench::ShapeCheck(
      syn_impr[2] > 0,
      "syntactic matching still helps the immediate revision (A1v2)");
  ok &= bench::ShapeCheck(
      bfr_impr[3] > syn_impr[3] + 5 && bfr_impr[4] > syn_impr[4] + 5,
      "BFR beats BFR-SYNTACTIC on later revisions (A1v3/A1v4)");
  ok &= bench::ShapeCheck(
      bfr_impr[2] >= syn_impr[2] - 1e-9,
      "semantic rewriting subsumes syntactic matching");
  return ok ? 0 : 1;
}
