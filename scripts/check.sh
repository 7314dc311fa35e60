#!/usr/bin/env bash
# Sanitizer gate: builds the whole tree with AddressSanitizer + UBSan
# (cmake -DOPD_SANITIZE=ON, see the top-level CMakeLists.txt) into
# build-asan/ and runs the full ctest suite under it — twice: once plain,
# once with OPD_TRACE=1 so every TestBed-based test records spans (the
# tracing hot paths run under the sanitizers too). Catches lifetime and
# aliasing bugs in the columnar arena/dictionary and span-recording code
# that the plain tier-1 build cannot see.
#
# After the ASan+UBSan suites pass, builds the tree a second time with
# ThreadSanitizer (cmake -DOPD_TSAN=ON, build-tsan/) and runs the
# concurrency-sensitive suites under it: the serving-layer tests
# (server_test — admission control, snapshot visibility, and the
# interleaved multi-tenant stress test with its serial-replay oracle), the
# engine's parallel-determinism suite, the hash-recycler stress test
# (concurrent tenants racing lookups/inserts on the shared recycler), and
# the query-log suite (concurrent appends racing ring snapshots,
# plus the 8-tenant query-history-vs-serial-replay determinism check inside
# ServerStress), the oracle suite (the engine's pool, two-wave shuffle
# and cross-job DAG schedule at 8 threads), the trace suites (obs_test's
# TraceTest and TraceDeterminismTest: traced jobs run on the same DAG
# schedule, recording spans into per-job traces on pool threads that the
# engine splices into the query trace; exec_engine_test's EngineTest
# runs a traced failing branch at 8 threads), the view-store stress test
# (publishes, drops and access recording racing snapshots that rewrite
# against the store's copy-on-write versions and their lazy index), and the
# view-statistics tests (the column sketch every executed job's view gets,
# at the end of the job's body, on a pool thread under the DAG schedule),
# the grouping suites (exec_engine_test's GroupingEquivalenceTest and
# GroupByAggregateGoldenTest: GROUP BY folds its buckets' aggregates and
# builds its output batches on pool threads), and the UDF suites
# (udf_test's goldens, executor and stage-shape tests: map tasks run user
# map functions, and reduce tasks call user reduce functions on views of
# the input batches and append to per-bucket builders, on pool threads,
# before the output batches are built concurrently), and the
# concurrent-rewrite test (four
# threads rewriting one query through one BfRewriter, racing on its target
# memo and the REWRITEENUM memos the threads share). TSan
# and ASan cannot share a build, hence the separate tree.
#
# Then runs the perf-floor gate
# (scripts/bench.sh --check) against the REGULAR build — never the
# instrumented one, whose overhead would make any timing floor meaningless —
# then Figure 10's scalability bench (bench/fig10_scalability), whose
# store is grown by executing queries and whose paper-shape checks gate the
# BFR/DP gap, then the rewriter's J/k ablation and Figures 9 and 12, whose
# shape checks cover the shared merge rule and job-DAG composition end to
# end, then the remaining paper figures and tables (Figures 7, 8 and 11,
# Tables 1 and 2, the storage footprint), whose shape checks run every
# workload query through the engine's shuffles, and then the metric-name lint (scripts/lint_metrics.py), which
# diffs the metric literals in src/ against the names
# `micro_engine --dump-metrics` actually registers. Last, one-second traced perfbench runs
# (perfbench/run.py) guard the benchmark's API surface: perfbench compiles
# against src/, so an API change could otherwise break the benchmark
# without any test noticing. `warm_500v` is the rewriter-bound workload;
# `evolve` is the one whose timed queries publish views, and its traced
# half calls Engine::Execute and ViewStore::PublishBatch itself; `orig` is
# engine-bound, so its UDF and group-by outputs carry the load. Each must
# exit 0 and report "correct": true.
#
# Usage: scripts/check.sh [ctest-args...]

set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-asan -S . -DOPD_SANITIZE=ON >/dev/null
cmake --build build-asan -j
cd build-asan
ASAN_OPTIONS=detect_leaks=0 ctest --output-on-failure "$@"
echo "== re-running suite with tracing enabled (OPD_TRACE=1) =="
ASAN_OPTIONS=detect_leaks=0 OPD_TRACE=1 ctest --output-on-failure "$@"
cd ..
echo "== ThreadSanitizer pass (serving layer + parallel determinism) =="
cmake -B build-tsan -S . -DOPD_TSAN=ON >/dev/null
cmake --build build-tsan --target server_test parallel_determinism_test \
  recycler_test query_log_test oracle_test catalog_test exec_engine_test \
  udf_test rewrite_test obs_test -j
cd build-tsan
TSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure \
  -R 'AdmissionController|ServerAdmission|Serving|ServerStress|ServerIntrospection|ParallelDeterminism|RecyclerStress|QueryLog|OracleTest|ViewStoreStress|StatsCollector|UdfGoldenTest|UdfExecTest|UdfShapeTest|ConcurrentRewrites|TraceTest|TraceDeterminismTest|EngineTest|GroupingEquivalenceTest|GroupByAggregateGoldenTest' "$@"
cd ..
echo "== micro_eval under ASan+UBSan (expression kernels, correctness only) =="
# One sanitized pass over the fused expression kernels: masks, selection
# compaction, dictionary bitmaps, and gathers all run under ASan+UBSan.
# Timing from this run is meaningless and is discarded; the run still fails
# on outputs_match_row_eval=false or any sanitizer report.
ASAN_OPTIONS=detect_leaks=0 ./build-asan/bench/micro_eval --json >/dev/null
echo "== micro_hash under ASan+UBSan (flat shuffle tables, correctness only) =="
# One sanitized pass over the flat open-addressing tables: arena storage,
# linear probing, rehash moves, and the vectorized key-hash kernels all run
# under ASan+UBSan against the unordered_map oracle (exit 1 on divergence).
ASAN_OPTIONS=detect_leaks=0 ./build-asan/bench/micro_hash --json >/dev/null
echo "== micro_recycle under ASan+UBSan (hash recycling, correctness only) =="
# One sanitized pass over the recycler: cached-build lifetime across
# queries, shared probes of recycled tables, and the eviction sweep all run
# under ASan+UBSan (exit 1 on output divergence or any warm rebuild).
ASAN_OPTIONS=detect_leaks=0 ./build-asan/bench/micro_recycle --json >/dev/null
echo "== perf-floor gate (regular build, see scripts/bench.sh --check) =="
scripts/bench.sh --check
echo "== Figure 10 on executed views (regular build) =="
# Grows a store of ~1000 views by executing the workload and its variants
# through the serving path, then times BFR against DP on A3v1 at five
# store sizes, and the slowest of the 32 queries under a cold BFR at each
# (~35 s on 4 cores). Exits 1 on any failed paper-shape check, including
# the count-based one that pops grow at most linearly in the views.
./build/bench/fig10_scalability
echo "== rewriter ablation, Figures 9 and 12 (regular build) =="
# BFR, DP and BFR-SYNTACTIC share MERGE's usefulness rule and the job-DAG
# composition; these benches compare them (~5 s together on 4 cores). Each
# exits 1 on a failed paper-shape check.
./build/bench/ablation_rewriter
./build/bench/fig09_algorithm_comparison
./build/bench/fig12_syntactic
echo "== Figures 7, 8, 11, Tables 1, 2, storage footprint (regular build) =="
# The other paper-shape checks (~8 s together on 4 cores). Each exits 1 on
# a failed check.
for bench in fig07_query_evolution fig08_user_evolution fig11_convergence \
    table1_analyst_accumulation table2_no_identical_views storage_footprint; do
  "./build/bench/${bench}"
done
echo "== metric-name lint (scripts/lint_metrics.py) =="
dump="$(mktemp)"
trap 'rm -f "${dump}"' EXIT
./build/bench/micro_engine --dump-metrics > "${dump}"
python3 scripts/lint_metrics.py "${dump}" src
echo "== perfbench smoke (benchmark builds against src/ and answers correctly) =="
# run.py prints only opd_perfbench's JSON result line on stdout.
for workload in warm_500v evolve orig; do
  result="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
    --seconds 1 --trace 1)"
  python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["correct"] is not True)' \
    "${result}"
done
