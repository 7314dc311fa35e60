// Tests for the catalog and the materialized-view metadata store.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "storage/dfs.h"

namespace opd::catalog {
namespace {

using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

storage::TablePtr MakeTable(const std::string& name, int rows) {
  auto t = std::make_shared<Table>(
      name, Schema({Column{"id", DataType::kInt64},
                    Column{"grp", DataType::kInt64},
                    Column{"txt", DataType::kString}}));
  for (int i = 0; i < rows; ++i) {
    (void)const_cast<Table&>(*t).AppendRow(
        {Value(int64_t{i}), Value(int64_t{i % 4}), Value("abc")});
  }
  return t;
}

TEST(CatalogTest, RegisterAndFind) {
  storage::Dfs dfs;
  Catalog cat;
  ASSERT_TRUE(cat.RegisterBase(MakeTable("T", 100), {"id"}, &dfs).ok());
  auto entry = cat.Find("T");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->name, "T");
  EXPECT_EQ((*entry)->schema.num_columns(), 3u);
  EXPECT_EQ((*entry)->attrs.size(), 3u);
  EXPECT_EQ((*entry)->afk.keys().keys().size(), 1u);
  EXPECT_DOUBLE_EQ((*entry)->stats.rows, 100.0);
  EXPECT_DOUBLE_EQ((*entry)->stats.DistinctOr("grp", 0), 4.0);
  EXPECT_TRUE(dfs.Exists("base/T"));
}

TEST(CatalogTest, RejectsDuplicatesAndBadKeys) {
  storage::Dfs dfs;
  Catalog cat;
  ASSERT_TRUE(cat.RegisterBase(MakeTable("T", 10), {"id"}, &dfs).ok());
  EXPECT_EQ(cat.RegisterBase(MakeTable("T", 10), {"id"}, &dfs).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.RegisterBase(MakeTable("U", 10), {"nope"}, &dfs).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(cat.Find("missing").ok());
}

TEST(CatalogTest, ExactStatsWidths) {
  auto t = MakeTable("T", 50);
  TableStats stats = ComputeExactStats(*t);
  EXPECT_DOUBLE_EQ(stats.rows, 50.0);
  EXPECT_DOUBLE_EQ(stats.ColBytesOr("id", 0), 8.0);
  EXPECT_DOUBLE_EQ(stats.ColBytesOr("txt", 0), 7.0);  // 3 chars + 4 prefix
  EXPECT_DOUBLE_EQ(stats.DistinctOr("id", 0), 50.0);
}

// ComputeExactStats reads columns; its figures must equal the definition
// over rows (Value::Hash distincts, mean Value::ByteSize widths) for nulls,
// dictionary strings, and a column demoted to the variant lane by one
// mistyped cell, across several batches.
TEST(CatalogTest, ExactStatsMatchRowDefinition) {
  Table t("M", Schema({Column{"id", DataType::kInt64},
                       Column{"name", DataType::kString},
                       Column{"score", DataType::kDouble}}));
  const int n = 2500;
  for (int i = 0; i < n; ++i) {
    Value name = i % 7 == 0 ? Value::Null() : Value("n" + std::to_string(i % 40));
    Value score = i % 11 == 0 ? Value::Null() : Value(0.5 * (i % 90));
    if (i == 1500) score = Value("mistyped");  // demotes that batch's column
    ASSERT_TRUE(t.AppendRow({Value(int64_t{i % 600}), name, score}).ok());
  }
  bool demoted = false;
  for (const storage::RowBatch& b : *t.ToBatches()) {
    demoted = demoted || !b.column(2).is_native();
  }
  ASSERT_TRUE(demoted);

  const TableStats stats = ComputeExactStats(t);
  const std::vector<storage::Row> rows = t.ToRows();
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    const std::string& name = t.schema().column(c).name;
    SCOPED_TRACE(name);
    std::set<uint64_t> hashes;
    size_t width = 0;
    for (const storage::Row& row : rows) {
      hashes.insert(row[c].Hash());
      width += row[c].ByteSize();
    }
    EXPECT_EQ(stats.DistinctOr(name, -1), static_cast<double>(hashes.size()));
    EXPECT_EQ(stats.ColBytesOr(name, -1),
              static_cast<double>(width) / static_cast<double>(n));
  }
  EXPECT_EQ(stats.DistinctOr("id", -1), 600.0);
  EXPECT_EQ(stats.DistinctOr("name", -1), 41.0);  // 40 strings + null
}

ViewDefinition MakeView(const std::string& rel, const std::string& attr) {
  ViewDefinition def;
  def.dfs_path = "views/" + rel + "/" + attr;
  afk::Attribute a = afk::Attribute::Base(rel, attr, DataType::kInt64);
  def.afk = afk::Afk({a}, afk::FilterSet(), afk::KeySet({a}, 0));
  def.out_attrs = {a};
  def.schema = Schema({Column{attr, DataType::kInt64}});
  def.fingerprint = "fp:" + rel + "." + attr;
  def.bytes = 100;
  return def;
}

TEST(ViewStoreTest, AddFindDrop) {
  ViewStore store;
  ViewId id = store.Add(MakeView("R", "a"));
  EXPECT_GE(id, 0);
  EXPECT_TRUE(store.Has(id));
  auto def = store.Find(id);
  ASSERT_TRUE(def.ok());
  EXPECT_EQ((*def)->id, id);
  EXPECT_TRUE(store.Drop(id).ok());
  EXPECT_FALSE(store.Has(id));
  EXPECT_FALSE(store.Drop(id).ok());
}

TEST(ViewStoreTest, DeduplicatesByAfk) {
  ViewStore store;
  ViewId a = store.Add(MakeView("R", "a"));
  ViewId b = store.Add(MakeView("R", "a"));  // identical AFK
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.size(), 1u);
  ViewId c = store.Add(MakeView("R", "b"));
  EXPECT_NE(a, c);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ViewStoreTest, DropReenablesAdd) {
  ViewStore store;
  ViewId a = store.Add(MakeView("R", "a"));
  ASSERT_TRUE(store.Drop(a).ok());
  ViewId b = store.Add(MakeView("R", "a"));
  EXPECT_NE(a, b);  // new id
  EXPECT_EQ(store.size(), 1u);
}

TEST(ViewStoreTest, DropIdentical) {
  ViewStore store;
  store.Add(MakeView("R", "a"));
  store.Add(MakeView("R", "b"));
  ViewDefinition probe = MakeView("R", "a");
  EXPECT_EQ(store.DropIdentical(probe.afk), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.DropIdentical(probe.afk), 0u);
}

TEST(ViewStoreTest, TotalBytesAndAll) {
  ViewStore store;
  store.Add(MakeView("R", "a"));
  store.Add(MakeView("R", "b"));
  EXPECT_EQ(store.TotalBytes(), 200u);
  EXPECT_EQ(store.All().size(), 2u);
  store.DropAll();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
}

}  // namespace
}  // namespace opd::catalog
