// Tests of the benchmark's own helpers: the percentile, the order-insensitive
// answer fingerprint, orphan-byte accounting and span self times.

#include "harness.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "storage/dfs.h"
#include "storage/row_batch.h"

namespace opd::perfbench {
namespace {

using storage::Column;
using storage::Schema;
using storage::DataType;
using storage::Table;
using storage::Value;

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.95), 7.0);
  // Unsorted input; ranks 0..4 hold 1..5.
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.95), 4.8);  // rank 3.8
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 0.5), 2.5);
}

TEST(PercentileTest, P95OfHundredSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.95), 95.05);
}

Table MakeTable(const std::vector<std::pair<int64_t, std::string>>& rows) {
  Table t("t", Schema({Column{"id", DataType::kInt64},
                       Column{"name", DataType::kString}}));
  for (const auto& [id, name] : rows) {
    EXPECT_TRUE(t.AppendRow({Value(id), Value(name)}).ok());
  }
  return t;
}

TEST(FingerprintTest, IgnoresRowOrder) {
  const Table a = MakeTable({{1, "x"}, {2, "y"}, {3, "z"}});
  const Table b = MakeTable({{3, "z"}, {1, "x"}, {2, "y"}});
  EXPECT_EQ(UnorderedTableFingerprint(a), UnorderedTableFingerprint(b));
}

TEST(FingerprintTest, DetectsChangedMissingAndDuplicatedRows) {
  const Table base = MakeTable({{1, "x"}, {2, "y"}});
  const uint64_t fp = UnorderedTableFingerprint(base);
  EXPECT_NE(fp, UnorderedTableFingerprint(MakeTable({{1, "x"}, {2, "w"}})));
  EXPECT_NE(fp, UnorderedTableFingerprint(MakeTable({{1, "x"}})));
  EXPECT_NE(fp, UnorderedTableFingerprint(
                    MakeTable({{1, "x"}, {2, "y"}, {2, "y"}})));
  // Values swapped between rows change the multiset of rows.
  EXPECT_NE(UnorderedTableFingerprint(MakeTable({{1, "y"}, {2, "x"}})), fp);
}

TEST(FingerprintTest, DetectsSchemaChanges) {
  const Table a = MakeTable({{1, "x"}});
  Table renamed("t", Schema({Column{"key", DataType::kInt64},
                             Column{"name", DataType::kString}}));
  ASSERT_TRUE(renamed.AppendRow({Value(int64_t{1}), Value("x")}).ok());
  EXPECT_NE(UnorderedTableFingerprint(a), UnorderedTableFingerprint(renamed));
}

TEST(FingerprintTest, SameForRowAndBatchPrimaryTables) {
  const Table rows = MakeTable({{1, "x"}, {2, "y"}, {3, "z"}});
  const std::shared_ptr<const std::vector<storage::RowBatch>> batches =
      rows.ToBatches();
  const Table columnar = Table::FromBatches("t", rows.schema(), *batches);
  ASSERT_TRUE(columnar.columnar());
  EXPECT_EQ(UnorderedTableFingerprint(rows),
            UnorderedTableFingerprint(columnar));
}

TEST(StorageAccountTest, CountsFilesNoBaseTableOrViewReferences) {
  storage::Dfs dfs;
  catalog::Catalog catalog;
  catalog::ViewStore views;

  auto base = std::make_shared<const Table>(
      MakeTable({{1, "a"}, {2, "b"}, {3, "c"}}));
  ASSERT_TRUE(catalog.RegisterBase(base, {"id"}, &dfs).ok());

  auto view_table = std::make_shared<const Table>(MakeTable({{1, "a"}}));
  ASSERT_TRUE(dfs.Write("views/run1/job0", view_table).ok());
  catalog::ViewDefinition def;
  def.dfs_path = "views/run1/job0";
  def.bytes = view_table->ByteSize();
  def.schema = view_table->schema();
  views.Publish(def);

  auto orphan = std::make_shared<const Table>(MakeTable({{9, "zz"}, {8, "y"}}));
  ASSERT_TRUE(dfs.Write("views/run2/job0", orphan).ok());

  const StorageAccount account = AccountStorage(dfs, catalog, views);
  EXPECT_EQ(account.dfs_files, 3u);
  EXPECT_EQ(account.base_bytes, base->ByteSize());
  EXPECT_EQ(account.view_bytes, view_table->ByteSize());
  EXPECT_EQ(account.orphan_files, 1u);
  EXPECT_EQ(account.orphan_bytes, orphan->ByteSize());
  EXPECT_EQ(account.dfs_bytes, base->ByteSize() + view_table->ByteSize() +
                                   orphan->ByteSize());
  EXPECT_DOUBLE_EQ(
      account.BytesPerLiveByte(),
      static_cast<double>(account.dfs_bytes) /
          static_cast<double>(base->ByteSize() + view_table->ByteSize()));

  // Deleting the orphan leaves only live bytes: the ideal ratio of 1.0.
  ASSERT_TRUE(dfs.Delete("views/run2/job0").ok());
  EXPECT_EQ(AccountStorage(dfs, catalog, views).orphan_bytes, 0u);
  EXPECT_DOUBLE_EQ(AccountStorage(dfs, catalog, views).BytesPerLiveByte(),
                   1.0);
}

TEST(SpanRecorderTest, SelfTimesAddUpToQueryTime) {
  SpanRecorder rec(0, 0);
  const uint64_t q = rec.BeginQuery("A1v1");
  const int x = rec.Time(q, "layer.a", [] { return 41; });
  rec.Time(q, "layer.b", [] {});
  rec.EndQuery();
  EXPECT_EQ(x, 41);
  ASSERT_EQ(rec.spans().size(), 3u);
  for (const Span& s : rec.spans()) {
    EXPECT_EQ(s.query, q);
    EXPECT_LE(s.start, s.end);
  }
  const LayerTotals totals = SumLayers(rec.spans());
  EXPECT_EQ(totals.queries, 1u);
  EXPECT_EQ(totals.self_s.size(), 2u);
  EXPECT_LE(totals.self_s.at("layer.a") + totals.self_s.at("layer.b"),
            totals.query_s);
  const std::string json = ToChromeTraceJson(rec.spans());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"layer.a\""), std::string::npos);
}

}  // namespace
}  // namespace opd::perfbench
