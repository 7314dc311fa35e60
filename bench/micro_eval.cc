// Expression-evaluation microbench: measures the fused ExprProgram kernels
// (src/exec/expr/) in isolation — no engine, no DFS, no shuffle — over a
// synthetic columnar table (int64 / double / dictionary-string lanes, with
// and without nulls).
//
// `micro_eval --json` runs the single-thread throughput suite once and
// prints one JSON line; scripts/bench.sh appends it to BENCH_engine.json and
// `--check` gates `fused_int64_rows_per_sec` against a floor (the CI runner
// is 1-core, so the gate is on single-thread throughput, not speedups). The
// record also carries `chain_fused_rows_per_sec` vs
// `chain_unfused_rows_per_sec` — the same 3-step project+filter chain run as
// one fused pass vs one operator at a time with gathers in between — and an
// `outputs_match_row_eval` receipt comparing every fused verdict against a
// per-row `afk::EvalCmp` evaluation.
//
// Without --json it runs google-benchmark microbenchmarks of the same
// kernels for interactive profiling.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "afk/predicate.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "exec/expr/expr_program.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/table.h"

using namespace opd;  // NOLINT

namespace {

using exec::expr::EvalScratch;
using exec::expr::ExprProgram;
using exec::expr::ExprStep;
using storage::DataType;
using storage::Row;
using storage::RowBatch;
using storage::Schema;
using storage::Table;
using storage::Value;

constexpr size_t kRows = 256 * 1024;

// Columns: i int64 uniform [0,1000), d double [0,1), s one of 64 words
// (dictionary-encoded table-wide), di int64 with ~10% nulls.
Table MakeEvalTable(size_t n_rows) {
  Schema s;
  if (!s.AddColumn({"i", DataType::kInt64}).ok()) std::abort();
  if (!s.AddColumn({"d", DataType::kDouble}).ok()) std::abort();
  if (!s.AddColumn({"s", DataType::kString}).ok()) std::abort();
  if (!s.AddColumn({"di", DataType::kInt64}).ok()) std::abort();
  Table t("eval", s);
  Rng rng(42);
  std::vector<std::string> vocab;
  for (int w = 0; w < 64; ++w) vocab.push_back("word" + std::to_string(w));
  for (size_t r = 0; r < n_rows; ++r) {
    Row row;
    row.emplace_back(rng.UniformInt(0, 999));
    row.emplace_back(rng.UniformDouble());
    row.emplace_back(vocab[rng.Uniform(vocab.size())]);
    if (rng.Bernoulli(0.1)) {
      row.emplace_back();  // null
    } else {
      row.emplace_back(rng.UniformInt(0, 999));
    }
    if (!t.AppendRow(std::move(row)).ok()) std::abort();
  }
  return t;
}

const std::vector<RowBatch>& EvalBatches() {
  static Table table = MakeEvalTable(kRows);
  static auto batches = table.ToBatches();
  return *batches;
}

// Runs `program` over every batch, returns (surviving rows, wall seconds).
std::pair<uint64_t, double> TimeProgram(const ExprProgram& program,
                                        int iterations) {
  const std::vector<RowBatch>& batches = EvalBatches();
  EvalScratch scratch;
  uint64_t survivors = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    survivors = 0;
    for (const RowBatch& b : batches) {
      survivors += program.Run(b, &scratch).num_rows();
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {survivors, wall_s / iterations};
}

double RowsPerSec(double wall_s) {
  return wall_s > 0 ? static_cast<double>(kRows) / wall_s : 0;
}

// Per-row EvalCmp baseline over the same cells — the row engine's verdict,
// used both as the throughput baseline and the correctness oracle.
uint64_t RowEvalSurvivors(size_t col, afk::CmpOp op, const Value& lit,
                          double* wall_s) {
  const std::vector<RowBatch>& batches = EvalBatches();
  uint64_t survivors = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const RowBatch& b : batches) {
    const auto& c = b.column(col);
    for (size_t i = 0; i < c.size(); ++i) {
      if (afk::EvalCmp(c.GetValue(i), op, lit)) ++survivors;
    }
  }
  *wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return survivors;
}

ExprProgram MustCompile(const std::vector<ExprStep>& steps) {
  auto p = ExprProgram::Compile(4, steps);
  if (!p.has_value()) std::abort();
  return std::move(*p);
}

int RunJsonMode() {
  const std::vector<RowBatch>& batches = EvalBatches();
  constexpr int kIters = 20;

  // Single-filter programs, one per lane class.
  ExprProgram fi = MustCompile(
      {ExprStep::FilterCompare(0, afk::CmpOp::kLt, Value(int64_t{500}))});
  ExprProgram fd = MustCompile(
      {ExprStep::FilterCompare(1, afk::CmpOp::kGe, Value(0.25))});
  ExprProgram fs = MustCompile(
      {ExprStep::FilterCompare(2, afk::CmpOp::kEq, Value("word7"))});
  ExprProgram fn = MustCompile(
      {ExprStep::FilterCompare(3, afk::CmpOp::kGt, Value(int64_t{250}))});
  fi.BindDictionaries(batches);
  fd.BindDictionaries(batches);
  fs.BindDictionaries(batches);
  fn.BindDictionaries(batches);

  const auto [i_rows, i_s] = TimeProgram(fi, kIters);
  const auto [d_rows, d_s] = TimeProgram(fd, kIters);
  const auto [s_rows, s_s] = TimeProgram(fs, kIters);
  const auto [n_rows, n_s] = TimeProgram(fn, kIters);

  // Correctness receipt: fused survivor counts equal per-row EvalCmp.
  double row_i_s = 0, row_d_s = 0, row_s_s = 0, row_n_s = 0;
  const bool match =
      RowEvalSurvivors(0, afk::CmpOp::kLt, Value(int64_t{500}), &row_i_s) ==
          i_rows &&
      RowEvalSurvivors(1, afk::CmpOp::kGe, Value(0.25), &row_d_s) == d_rows &&
      RowEvalSurvivors(2, afk::CmpOp::kEq, Value("word7"), &row_s_s) ==
          s_rows &&
      RowEvalSurvivors(3, afk::CmpOp::kGt, Value(int64_t{250}), &row_n_s) ==
          n_rows;

  // The fusion delta: project+filter+filter as one fused pass vs one
  // operator at a time (each step its own program = gather between steps,
  // which is what the unfused batch engine does).
  const std::vector<ExprStep> chain = {
      ExprStep::FilterCompare(0, afk::CmpOp::kLt, Value(int64_t{500})),
      ExprStep::FilterCompare(1, afk::CmpOp::kGe, Value(0.25)),
      ExprStep::Project({2, 0}),
  };
  ExprProgram fused_chain = MustCompile(chain);
  fused_chain.BindDictionaries(batches);
  const auto [chain_rows, chain_s] = TimeProgram(fused_chain, kIters);

  ExprProgram step1 = MustCompile({chain[0]});
  auto step2 = ExprProgram::Compile(4, {chain[1]});
  auto step3 = ExprProgram::Compile(4, {chain[2]});
  if (!step2.has_value() || !step3.has_value()) std::abort();
  step1.BindDictionaries(batches);
  uint64_t unfused_rows = 0;
  const auto unfused_start = std::chrono::steady_clock::now();
  for (int it = 0; it < kIters; ++it) {
    unfused_rows = 0;
    EvalScratch scratch;
    for (const RowBatch& b : batches) {
      RowBatch b1 = step1.Run(b, &scratch);
      RowBatch b2 = step2->Run(b1, &scratch);
      unfused_rows += step3->Run(b2, &scratch).num_rows();
    }
  }
  const double unfused_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    unfused_start)
          .count() /
      kIters;
  const bool chain_match = chain_rows == unfused_rows;

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("micro_eval");
  w.Key("schema_version").Int(1);
  w.Key("mode").String("eval");
  w.Key("rows").UInt(kRows);
  w.Key("iterations").Int(kIters);
  w.Key("fused_int64_rows_per_sec").Double(RowsPerSec(i_s));
  w.Key("fused_double_rows_per_sec").Double(RowsPerSec(d_s));
  w.Key("fused_dict_string_rows_per_sec").Double(RowsPerSec(s_s));
  w.Key("fused_nullable_int64_rows_per_sec").Double(RowsPerSec(n_s));
  w.Key("row_eval_int64_rows_per_sec").Double(RowsPerSec(row_i_s));
  w.Key("row_eval_dict_string_rows_per_sec").Double(RowsPerSec(row_s_s));
  w.Key("chain_fused_rows_per_sec").Double(RowsPerSec(chain_s));
  w.Key("chain_unfused_rows_per_sec").Double(RowsPerSec(unfused_s));
  w.Key("outputs_match_row_eval").Bool(match && chain_match);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return match && chain_match ? 0 : 1;
}

}  // namespace

static void BM_FusedFilterInt64(benchmark::State& state) {
  const auto& batches = EvalBatches();
  ExprProgram p = MustCompile(
      {ExprStep::FilterCompare(0, afk::CmpOp::kLt, Value(int64_t{500}))});
  p.BindDictionaries(batches);
  EvalScratch scratch;
  for (auto _ : state) {
    uint64_t rows = 0;
    for (const RowBatch& b : batches) rows += p.Run(b, &scratch).num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_FusedFilterInt64)->Unit(benchmark::kMillisecond);

static void BM_FusedFilterDictString(benchmark::State& state) {
  const auto& batches = EvalBatches();
  ExprProgram p = MustCompile(
      {ExprStep::FilterCompare(2, afk::CmpOp::kEq, Value("word7"))});
  p.BindDictionaries(batches);
  EvalScratch scratch;
  for (auto _ : state) {
    uint64_t rows = 0;
    for (const RowBatch& b : batches) rows += p.Run(b, &scratch).num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_FusedFilterDictString)->Unit(benchmark::kMillisecond);

static void BM_FusedChain(benchmark::State& state) {
  const auto& batches = EvalBatches();
  ExprProgram p = MustCompile(
      {ExprStep::FilterCompare(0, afk::CmpOp::kLt, Value(int64_t{500})),
       ExprStep::FilterCompare(1, afk::CmpOp::kGe, Value(0.25)),
       ExprStep::Project({2, 0})});
  p.BindDictionaries(batches);
  EvalScratch scratch;
  for (auto _ : state) {
    uint64_t rows = 0;
    for (const RowBatch& b : batches) rows += p.Run(b, &scratch).num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_FusedChain)->Unit(benchmark::kMillisecond);

static void BM_RowEvalInt64(benchmark::State& state) {
  const auto& batches = EvalBatches();
  const Value lit(int64_t{500});
  for (auto _ : state) {
    uint64_t survivors = 0;
    for (const RowBatch& b : batches) {
      const auto& c = b.column(0);
      for (size_t i = 0; i < c.size(); ++i) {
        if (afk::EvalCmp(c.GetValue(i), afk::CmpOp::kLt, lit)) ++survivors;
      }
    }
    benchmark::DoNotOptimize(survivors);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_RowEvalInt64)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return RunJsonMode();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
