// Ablation of the paper's rewrite knobs (Section 5, DESIGN.md Section 7):
//   1. J — views per rewrite  (1, 2, 4)
//   2. k — operator repetitions in a compensation  (1, 2)
//
// J and k trade rewrite expressiveness for search effort: restricting
// either can only lose rewrites, never find cheaper ones.

#include <cstdio>

#include "bench_util.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

namespace {

struct Variant {
  const char* name;
  rewrite::RewriteOptions options;
};

struct Totals {
  double cost = 0;
  size_t candidates = 0;
  size_t attempts = 0;
  double runtime = 0;
};

}  // namespace

int main() {
  bench::Header("Ablation: J, k");

  workload::TestBedConfig config;
  config.data.n_tweets = 8000;
  config.data.n_checkins = 5000;
  auto bed = bench::CheckResult(workload::TestBed::Create(config), "testbed");

  // Views from every analyst's first two versions.
  for (int analyst = 1; analyst <= workload::kNumAnalysts; ++analyst) {
    bench::CheckResult(bed->RunOriginal(analyst, 1), "seed v1");
    bench::CheckResult(bed->RunOriginal(analyst, 2), "seed v2");
  }
  std::printf("view store: %zu views\n\n", bed->views().size());

  std::vector<Variant> variants;
  variants.push_back({"FULL (J=4,k=2)", {}});
  {
    rewrite::RewriteOptions o;
    o.max_views_per_rewrite = 1;
    variants.push_back({"J=1 (no merging)", o});
  }
  {
    rewrite::RewriteOptions o;
    o.max_views_per_rewrite = 2;
    variants.push_back({"J=2", o});
  }
  {
    rewrite::RewriteOptions o;
    o.max_op_repetition = 1;
    variants.push_back({"k=1", o});
  }

  std::printf("%-20s %14s %12s %10s %12s\n", "variant", "total cost",
              "candidates", "attempts", "runtime");
  std::vector<Totals> totals(variants.size());
  for (size_t v = 0; v < variants.size(); ++v) {
    rewrite::BfRewriter rewriter(&bed->optimizer(), &bed->views(),
                                 variants[v].options);
    for (int analyst = 1; analyst <= workload::kNumAnalysts; ++analyst) {
      auto q = bench::CheckResult(workload::BuildQuery(analyst, 3), "build");
      auto outcome = bench::CheckResult(rewriter.Rewrite(&q), "rewrite");
      totals[v].cost += outcome.est_cost;
      totals[v].candidates += outcome.stats.candidates_considered;
      totals[v].attempts += outcome.stats.rewrite_attempts;
      totals[v].runtime += outcome.stats.runtime_s;
    }
    std::printf("%-20s %14.1f %12zu %10zu %11.3fs\n", variants[v].name,
                totals[v].cost, totals[v].candidates, totals[v].attempts,
                totals[v].runtime);
  }

  // Restricting J or k can only lose rewrites (cost is weakly higher).
  const bool ok = bench::ShapeCheck(
      totals[1].cost >= totals[0].cost - 1e-6 &&
          totals[3].cost >= totals[0].cost - 1e-6,
      "restricting J or k never finds cheaper rewrites");
  return ok ? 0 : 1;
}
