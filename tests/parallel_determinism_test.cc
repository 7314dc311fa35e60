// The parallel engine's determinism contract: running the same workload at
// any thread count produces byte-identical result tables, identical view
// fingerprints, and identical byte-count metrics (and therefore identical
// modeled cluster time). Thread count changes only wall-clock time. (That
// the answers are *right* is oracle_test's job.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/server.h"
#include "session/session.h"
#include "storage/table.h"
#include "workload/scenarios.h"

namespace opd::workload {
namespace {

// Everything one workload run produces that must not depend on threading.
struct WorkloadSnapshot {
  std::vector<std::vector<storage::Row>> tables;
  std::vector<std::string> fingerprints;  // sorted view fingerprints
  std::vector<uint64_t> bytes;            // read/shuffled/written per run
  std::vector<double> sim_times;
  int jobs = 0;
  int views_created = 0;
};

// Runs a scenario-style slice of the paper workload: three analysts'
// original queries (projections, filters, joins, group-bys, and UDF
// pipelines), then a rewritten revision that reuses the accumulated
// opportunistic views.
WorkloadSnapshot RunWorkload(int num_threads, int num_reduce_tasks = 0) {
  TestBedConfig config;
  config.data.n_tweets = 400;
  config.data.n_checkins = 250;
  config.data.n_locations = 60;
  config.data.n_users = 40;
  config.calibrate_udfs = false;
  config.session.engine.num_threads = num_threads;
  config.session.engine.num_reduce_tasks = num_reduce_tasks;
  auto bed_result = TestBed::Create(config);
  EXPECT_TRUE(bed_result.ok()) << bed_result.status().ToString();
  std::unique_ptr<TestBed> bed = std::move(bed_result).value();

  WorkloadSnapshot snap;
  auto record = [&snap](const exec::ExecResult& run) {
    snap.tables.push_back(run.table->ToRows());
    snap.bytes.push_back(run.metrics.bytes_read);
    snap.bytes.push_back(run.metrics.bytes_shuffled);
    snap.bytes.push_back(run.metrics.bytes_written);
    snap.sim_times.push_back(run.metrics.sim_time_s);
    snap.jobs += run.metrics.jobs;
    snap.views_created += run.metrics.views_created;
  };

  for (int analyst = 1; analyst <= 3; ++analyst) {
    auto run = bed->RunOriginal(analyst, 1);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (run.ok()) record(*run);
  }
  auto rewritten = bed->RunRewritten(1, 2);
  EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  if (rewritten.ok()) record(rewritten->exec);

  for (const auto* def : bed->views().All()) {
    snap.fingerprints.push_back(def->fingerprint);
  }
  std::sort(snap.fingerprints.begin(), snap.fingerprints.end());
  return snap;
}

void ExpectIdentical(const WorkloadSnapshot& a, const WorkloadSnapshot& b) {
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t t = 0; t < a.tables.size(); ++t) {
    ASSERT_EQ(a.tables[t].size(), b.tables[t].size()) << "table " << t;
    for (size_t r = 0; r < a.tables[t].size(); ++r) {
      ASSERT_EQ(a.tables[t][r], b.tables[t][r])
          << "table " << t << " row " << r;
    }
  }
  EXPECT_EQ(a.fingerprints, b.fingerprints);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.views_created, b.views_created);
  ASSERT_EQ(a.sim_times.size(), b.sim_times.size());
  for (size_t i = 0; i < a.sim_times.size(); ++i) {
    // Modeled time is pure arithmetic over the (identical) byte counts.
    EXPECT_DOUBLE_EQ(a.sim_times[i], b.sim_times[i]) << "run " << i;
  }
}

TEST(ParallelDeterminismTest, SameResultsAtOneTwoAndEightThreads) {
  WorkloadSnapshot one = RunWorkload(1);
  WorkloadSnapshot two = RunWorkload(2);
  WorkloadSnapshot eight = RunWorkload(8);
  ASSERT_FALSE(one.tables.empty());
  ExpectIdentical(one, two);
  ExpectIdentical(one, eight);
}

TEST(ParallelDeterminismTest, ReduceTaskCountDoesNotChangeResults) {
  // Bucket granularity, like thread count, must never leak into results:
  // force an odd bucket count well off the bytes-derived default.
  WorkloadSnapshot derived = RunWorkload(1);
  WorkloadSnapshot forced = RunWorkload(4, /*num_reduce_tasks=*/13);
  ExpectIdentical(derived, forced);
}

// Heavy key skew with a forced odd bucket count: ~90% of the rows land in
// one bucket, so one reduce task runs far longer than the others. Results
// must still be byte-identical to the serial run.
TEST(ParallelDeterminismTest, SkewedKeysAreThreadAndModeInvariant) {
  auto run_skewed = [](int num_threads) {
    SessionOptions options;
    options.engine.num_threads = num_threads;
    options.engine.num_reduce_tasks = 7;
    auto server = Server::Create(options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    ClientSession client = (*server)->Connect("default");

    auto skew = std::make_shared<storage::Table>(
        "SKEW",
        storage::Schema({{"k", storage::DataType::kInt64},
                         {"v", storage::DataType::kInt64}}));
    // ~90% of rows share one key; the rest spread over 40 keys.
    for (int64_t i = 0; i < 4000; ++i) {
      const int64_t key = (i % 10 == 0) ? 1 + i % 40 : 0;
      EXPECT_TRUE(
          skew->AppendRow({storage::Value(key), storage::Value(i * 7 % 101)})
              .ok());
    }
    EXPECT_TRUE(
        (*server)
            ->RegisterTable(storage::TablePtr(std::move(skew)), {"k"})
            .ok());

    RunOptions off;
    off.rewrite = false;
    auto run = client.Run(
        "g = scan SKEW | groupby k count(*) as n, sum(v) as s;", off);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    std::vector<storage::Row> rows;
    if (run.ok() && run->table != nullptr) rows = run->table->ToRows();
    return rows;
  };

  const std::vector<storage::Row> serial = run_skewed(/*num_threads=*/1);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial, run_skewed(threads));
  }
}

}  // namespace
}  // namespace opd::workload
