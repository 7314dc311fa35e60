// Section 10's storage claim: "accumulating all views for every query
// resulted in an additional storage space of only ~2.0x the base data size",
// because queries project narrow slices of wide logs and many log attributes
// go unused. This bench accumulates every view of the whole 32-query
// workload and reports the views-to-base ratio, the advisor's account of
// which retained bytes actually earn their keep, and the orphans: DFS files
// that belong to no base table and no view.

#include <cstdio>
#include <set>
#include <string>

#include "bench_util.h"
#include "rewrite/advisor.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

int main() {
  bench::Header("Section 10: opportunistic view storage footprint");

  auto bed = bench::CheckResult(workload::TestBed::Create(), "testbed");
  for (int analyst = 1; analyst <= workload::kNumAnalysts; ++analyst) {
    for (int version = 1; version <= workload::kNumVersions; ++version) {
      bench::CheckResult(bed->RunOriginal(analyst, version), "run");
    }
  }

  uint64_t base_bytes = 0;
  std::set<std::string> live_paths;
  for (const auto& name : bed->catalog().Names()) {
    auto entry = bed->catalog().Find(name);
    base_bytes += static_cast<uint64_t>((*entry)->stats.TotalBytes());
    live_paths.insert((*entry)->dfs_path);
  }
  for (const catalog::ViewDefinition* def : bed->views().Snapshot().All()) {
    live_paths.insert(def->dfs_path);
  }
  size_t orphan_files = 0;
  uint64_t orphan_bytes = 0;
  for (const std::string& path : bed->dfs().ListPaths()) {
    if (live_paths.count(path) > 0) continue;
    ++orphan_files;
    auto table = bed->dfs().Peek(path);
    if (table.ok()) orphan_bytes += (*table)->ByteSize();
  }
  const uint64_t view_bytes = bed->views().TotalBytes();
  const double ratio =
      static_cast<double>(view_bytes) / static_cast<double>(base_bytes);
  std::printf("base data : %8.2f MB\n", base_bytes / 1048576.0);
  std::printf("views     : %8.2f MB across %zu views\n",
              view_bytes / 1048576.0, bed->views().size());
  std::printf("ratio     : %.2fx the base data (paper: ~2.0x)\n", ratio);
  std::printf("orphans   : %8.2f MB across %zu DFS files of no table or "
              "view\n\n",
              orphan_bytes / 1048576.0, orphan_files);

  // Which of those bytes matter? Score the store against every version-2+
  // query (the revisions that actually reuse).
  std::vector<plan::Plan> workload;
  for (int analyst = 1; analyst <= workload::kNumAnalysts; ++analyst) {
    for (int version = 2; version <= workload::kNumVersions; ++version) {
      workload.push_back(
          bench::CheckResult(workload::BuildQuery(analyst, version), "q"));
    }
  }
  rewrite::ViewAdvisor advisor(&bed->optimizer(), &bed->views());
  auto report = bench::CheckResult(advisor.Analyze(&workload), "advisor");
  uint64_t useful_bytes = 0;
  for (const auto& score : report.ranking) useful_bytes += score.bytes;
  std::printf("advisor: %zu of %zu views used by the revision workload; "
              "%.2f MB of %.2f MB retained bytes earn reuse\n",
              report.ranking.size(), bed->views().size(),
              useful_bytes / 1048576.0, view_bytes / 1048576.0);

  bool ok = true;
  ok &= bench::ShapeCheck(ratio < 4.0,
                          "views cost a small multiple of the base data "
                          "(paper: ~2x) — narrow projections of wide logs");
  ok &= bench::ShapeCheck(orphan_files == 0,
                          "a deduplicated publish leaves no DFS file behind "
                          "(the 4 versions of a query share subplans)");
  ok &= bench::ShapeCheck(!report.ranking.empty() &&
                              report.queries_improved >=
                                  static_cast<int>(workload.size()) / 2,
                          "most revision queries reuse some retained view");
  return ok ? 0 : 1;
}
