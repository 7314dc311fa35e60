// Shared helpers for the per-figure/table benchmark harnesses.

#ifndef OPD_BENCH_BENCH_UTIL_H_
#define OPD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/status.h"
#include "workload/scenarios.h"

namespace opd::bench {

/// Prints an error and aborts when `status` is not OK.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Prints a PASS/FAIL "paper-shape check" line: a qualitative property of
/// the paper's figure that the reproduction should also exhibit.
inline bool ShapeCheck(bool ok, const std::string& description) {
  std::printf("paper-shape check [%s]: %s\n", ok ? "PASS" : "FAIL",
              description.c_str());
  return ok;
}

inline void Header(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Prints the UDF cost scalars `bed` calibrated from wall time. Calibrated
/// figures move with them, so a recorded run cites them.
inline void PrintUdfScalars(workload::TestBed& bed) {
  std::printf("%-26s %10s %13s %10s\n", "UDF", "map_scalar",
              "reduce_scalar", "expansion");
  for (const std::string& name : bed.udfs().Names()) {
    const udf::UdfDefinition* def =
        CheckResult(bed.udfs().Find(name), "UDF lookup");
    std::printf("%-26s %10.3f %13.3f %10.4f\n", name.c_str(),
                def->map_scalar, def->reduce_scalar, def->expansion());
  }
  std::printf("\n");
}

}  // namespace opd::bench

#endif  // OPD_BENCH_BENCH_UTIL_H_
