#!/usr/bin/env bash
# Runs the engine microbenchmarks after the tier-1 build and APPENDS their
# timestamped JSON records to BENCH_engine.json (the perf trajectory of the
# execution engine across PRs — never overwritten). micro_engine --json
# emits one "pipelined" record for the engine's single execution path,
# sweeping threads {1, 2, 4, 8} untraced plus one traced run at 8 threads
# (traced_rows_per_sec vs untraced_rows_per_sec = tracing overhead).
# micro_eval --json contributes one expression-kernel record (fused
# project/filter throughput without engine overheads). micro_serve --json
# contributes one serving-layer record, "serve_observed" (the
# continuous-observability tax — the same interleaved pass with the full
# query log + slow capture on vs the log disabled, gated < 5% by --check,
# plus slow-capture bytes and the server's p95 SLO gauge; serving
# correctness is ServerStressTest's job). micro_recycle --json contributes
# one hash-recycler record (cold vs recycled join wall time, recycler hit
# counters, the zero-rebuild receipt, and the warm-rewrite view-join hit
# rate; the binary
# exits 1 when recycled outputs diverge from the cold build or a warm run
# rebuilds). Every appended record carries "ts" and "git_sha" so the
# trajectory is attributable to commits.
#
# Usage: scripts/bench.sh [--no-build] [--check]
#
# --check is the perf-floor gate: instead of appending to the trajectory it
# runs the benchmarks once and fails (exit 1) if
#   * the pipelined record's output hash differs between thread counts
#     (determinism),
#   * micro_eval's fused_int64_rows_per_sec falls below EVAL_FLOOR_ROWS_PER_SEC
#     or its fused outputs diverge from per-row evaluation,
#   * the pipelined record's speedup_8v1 falls below its recorded
#     speedup_floor_8v1 — skipped with a note when the runner has fewer than
#     2 cores (the CI container is 1-core), since no parallel speedup is
#     measurable there. Single-thread floors always apply; so does the
#     determinism check. Sanitizer builds (scripts/check.sh) run the gate
#     against the regular build, never the instrumented one: sanitizer
#     overhead would make any timing floor meaningless.
#
# When appending, records already in BENCH_engine.json that predate the
# schema_version tag (no "ts"/"mode" keys) are moved to
# BENCH_engine.legacy.json first, so every line in the live trajectory
# parses under one schema.

set -euo pipefail
cd "$(dirname "$0")/.."

# Single-thread floors enforced by --check. EVAL floor is ~25% of the rate
# measured on the 1-core CI container (159M rows/s), leaving headroom for
# noisy neighbors while still catching a vectorization regression (the
# scalar row-eval baseline on the same container is ~115M rows/s on the
# no-null int64 lane, and the pre-fusion gather path was far below that).
EVAL_FLOOR_ROWS_PER_SEC=40000000
# A recycled (warm) repetition of micro_recycle's join must beat the cold
# build-every-time run by this factor (gated on byte-identical outputs and
# the zero-rebuild receipt).
RECYCLE_FLOOR=1.3
# Full continuous observability (query-history ring + JSONL sink +
# slow-query capture of EVERY query) may cost at most this much wall time
# over the same serving pass with the query log disabled (micro_serve's
# "serve_observed" record, best-of-2 per lane).
QUERYLOG_OVERHEAD_PCT_MAX=5.0

build=1
check=0
for arg in "$@"; do
  case "${arg}" in
    --no-build) build=0 ;;
    --check) check=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

if [[ "${build}" == 1 ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j >/dev/null
fi

if [[ "${check}" == 1 ]]; then
  out="$(mktemp)"
  trap 'rm -f "${out}"' EXIT
  ./build/bench/micro_engine --json > "${out}"
  ./build/bench/micro_eval --json >> "${out}"
  ./build/bench/micro_hash --json >> "${out}"
  ./build/bench/micro_serve --json >> "${out}"
  ./build/bench/micro_recycle --json >> "${out}"
  EVAL_FLOOR_ROWS_PER_SEC="${EVAL_FLOOR_ROWS_PER_SEC}" \
  RECYCLE_FLOOR="${RECYCLE_FLOOR}" \
  QUERYLOG_OVERHEAD_PCT_MAX="${QUERYLOG_OVERHEAD_PCT_MAX}" \
  python3 - "${out}" <<'EOF'
import json
import os
import sys

records = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
failures = []
modes = {}
for rec in records:
    if rec.get("bench") == "micro_eval":
        modes["eval"] = rec
    else:
        modes[rec.get("mode")] = rec

engine = modes.get("pipelined")
if engine is None:
    failures.append("no 'pipelined' record in benchmark output")
else:
    cores = engine.get("hw_cores", 0)
    floor = engine.get("speedup_floor_8v1", 0.0)
    speedup = engine.get("speedup_8v1", 0.0)
    if not engine.get("outputs_match_threads", False):
        failures.append("pipelined: output hash differs between thread counts "
                        "(determinism regression)")
    if cores < 2:
        print(f"bench --check: {cores} core(s) available -- speedup floor "
              "not measurable, skipping (determinism still checked)")
    elif speedup < floor:
        failures.append(
            f"pipelined speedup_8v1 {speedup:.2f} is below the floor "
            f"{floor:.2f} (hw_cores={cores})")
    else:
        print(f"bench --check: pipelined speedup_8v1 {speedup:.2f} >= "
              f"floor {floor:.2f} (hw_cores={cores})")

# Expression-kernel gate: fused evaluation throughput and correctness.
ev = modes.get("eval")
eval_floor = float(os.environ["EVAL_FLOOR_ROWS_PER_SEC"])
if ev is None:
    failures.append("no micro_eval record in benchmark output")
else:
    if not ev.get("outputs_match_row_eval", False):
        failures.append("micro_eval: fused outputs diverge from per-row "
                        "evaluation (expression correctness regression)")
    rps = ev.get("fused_int64_rows_per_sec", 0.0)
    if rps < eval_floor:
        failures.append(
            f"micro_eval fused_int64_rows_per_sec {rps:.3g} is below the "
            f"floor {eval_floor:.3g}")
    else:
        print(f"bench --check: micro_eval fused int64 filter "
              f"{rps:.3g} rows/s >= floor {eval_floor:.3g}")

# micro_hash allocation audit: with the table fully pre-sized, a numeric-key
# build+probe must not allocate per row (KeyScratch inline buffer + arena).
mh = modes.get("hash")
if mh is None:
    failures.append("no micro_hash record in benchmark output")
else:
    if not mh.get("outputs_match", False):
        failures.append("micro_hash: flat tables diverge from the "
                        "unordered_map oracle")
    for k in ("numeric_build_allocs_per_row", "numeric_probe_allocs_per_row"):
        if mh.get(k, 1.0) > 0.001:
            failures.append(
                f"micro_hash {k} = {mh.get(k):.4f}: the flat build/probe "
                "inner loops are allocating per row")
    if not any("micro_hash" in f for f in failures):
        print(f"bench --check: micro_hash zero-alloc build/probe OK, "
              f"join {mh.get('join_speedup', 0):.2f}x / groupby "
              f"{mh.get('groupby_speedup', 0):.2f}x vs unordered_map")

# Observability-tax gate: serving with the full query log on (history ring
# + JSONL sink + slow-query capture of every query) must stay within
# QUERYLOG_OVERHEAD_PCT_MAX of the same pass with the log disabled. Both
# lanes are best-of-2 inside micro_serve, so one stall does not flip the
# gate; negative overhead (observed lane won the coin flip) passes.
observed = modes.get("serve_observed")
overhead_max = float(os.environ["QUERYLOG_OVERHEAD_PCT_MAX"])
if observed is None:
    failures.append("no 'serve_observed' record in benchmark output")
else:
    overhead = observed.get("querylog_overhead_pct", 1e9)
    if observed.get("querylog_appended", 0) != observed.get("queries", -1):
        failures.append(
            f"serve_observed: logged {observed.get('querylog_appended')} "
            f"records for {observed.get('queries')} queries (query history "
            "is lossy)")
    if overhead > overhead_max:
        failures.append(
            f"serve_observed querylog_overhead_pct {overhead:.1f} exceeds "
            f"{overhead_max:.1f}%: continuous observability is not cheap "
            "enough to leave on")
    elif not any("serve_observed" in f for f in failures):
        print(f"bench --check: serve_observed overhead {overhead:+.1f}% "
              f"(max {overhead_max:.1f}%), "
              f"{observed.get('slow_capture_bytes')} slow-capture bytes, "
              f"p95 {observed.get('latency_p95_s'):.3f}s")

# Hash-recycler gate: micro_recycle's warm repetitions of the same join
# must probe the cached build (zero_rebuild receipt) and clear the
# RECYCLE_FLOOR speedup over the cold build-every-time run, with
# byte-identical outputs — a fast wrong answer is a correctness bug.
rc = modes.get("recycle")
rc_floor = float(os.environ["RECYCLE_FLOOR"])
if rc is None:
    failures.append("no micro_recycle record in benchmark output")
else:
    if not rc.get("outputs_match", False):
        failures.append("micro_recycle: recycled join outputs diverge from "
                        "the cold build (recycling correctness regression)")
    if not rc.get("zero_rebuild", False):
        failures.append("micro_recycle: warm runs rebuilt the hash table "
                        "(the recycler is not being hit)")
    sp = rc.get("repeated_join_speedup", 0.0)
    if sp < rc_floor:
        failures.append(
            f"micro_recycle repeated_join_speedup {sp:.2f} is below the "
            f"floor {rc_floor}x: recycling is not paying for itself")
    elif not any("micro_recycle" in f for f in failures):
        print(f"bench --check: micro_recycle warm join = {sp:.2f}x cold "
              f"(floor {rc_floor}x), warm_rewrite_hit_rate="
              f"{rc.get('warm_rewrite_hit_rate', 0.0):.2f}")

if failures:
    for f in failures:
        print(f"bench --check FAILED: {f}", file=sys.stderr)
    sys.exit(1)
print("bench --check: OK")
EOF
  exit 0
fi

# Quarantine legacy records (pre-"ts"/"mode" schema) so the live file stays
# single-schema; they keep their history in BENCH_engine.legacy.json.
if [[ -f BENCH_engine.json ]]; then
  python3 - <<'EOF'
import json

keep, legacy = [], []
for line in open("BENCH_engine.json"):
    if not line.strip():
        continue
    try:
        rec = json.loads(line)
    except ValueError:
        legacy.append(line)
        continue
    (legacy if "ts" not in rec or "mode" not in rec else keep).append(line)
if legacy:
    with open("BENCH_engine.legacy.json", "a") as f:
        f.writelines(legacy)
    with open("BENCH_engine.json", "w") as f:
        f.writelines(keep)
    print(f"bench: quarantined {len(legacy)} legacy record(s) to "
          "BENCH_engine.legacy.json")
EOF
fi

ts="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
git_sha="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
{ ./build/bench/micro_engine --json; ./build/bench/micro_eval --json; \
  ./build/bench/micro_hash --json; ./build/bench/micro_serve --json; \
  ./build/bench/micro_recycle --json; } |
while IFS= read -r line; do
  stamped="{\"ts\":\"${ts}\",\"git_sha\":\"${git_sha}\",${line#\{}"
  echo "${stamped}"
  echo "${stamped}" >> BENCH_engine.json
done
