// Unit tests for the columnar batch layer: ColumnVector null bitmap and
// string dictionary, RowBatch round-trips, and the hash/byte-size
// equivalence contracts the vectorized engine kernels rely on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/column_vector.h"
#include "storage/row_batch.h"
#include "storage/table.h"

namespace opd::storage {
namespace {

Schema FiveTypeSchema() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"n", DataType::kNull}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kBool}).ok());
  EXPECT_TRUE(s.AddColumn({"i", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"d", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"s", DataType::kString}).ok());
  return s;
}

// Rows covering every DataType, nulls in every column, duplicate strings,
// and numeric edge values.
std::vector<Row> FiveTypeRows() {
  std::vector<Row> rows;
  rows.push_back({Value::Null(), Value(true), Value(int64_t{42}),
                  Value(3.25), Value("alpha")});
  rows.push_back({Value::Null(), Value(false), Value(int64_t{-7}),
                  Value(-0.0), Value("beta")});
  rows.push_back({Value::Null(), Value::Null(), Value::Null(), Value::Null(),
                  Value::Null()});
  rows.push_back({Value::Null(), Value(true), Value(int64_t{0}), Value(1e18),
                  Value("alpha")});  // duplicate dictionary entry
  rows.push_back({Value::Null(), Value(false),
                  Value(int64_t{1} << 62), Value(0.0), Value("")});
  return rows;
}

TEST(ColumnVectorTest, NullBitmapRoundTrip) {
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 200; ++i) {
    if (i % 3 == 0) {
      col.AppendNull();
    } else {
      col.Append(Value(int64_t{i}));
    }
  }
  ASSERT_EQ(col.size(), 200u);
  EXPECT_EQ(col.null_count(), 67u);
  EXPECT_TRUE(col.is_native());
  for (int i = 0; i < 200; ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(col.IsNull(i)) << i;
      EXPECT_TRUE(col.GetValue(i).is_null()) << i;
    } else {
      EXPECT_FALSE(col.IsNull(i)) << i;
      EXPECT_EQ(col.GetValue(i), Value(int64_t{i})) << i;
    }
  }
}

TEST(ColumnVectorTest, StringDictionaryDedup) {
  ColumnVector col(DataType::kString);
  const std::vector<std::string> words = {"tweet", "retweet", "tweet",
                                          "tweet", "like", "retweet"};
  for (const auto& w : words) col.Append(Value(w));
  ASSERT_TRUE(col.is_native());
  EXPECT_EQ(col.dict_size(), 3u);  // tweet, retweet, like
  // Equal strings share a code; distinct strings do not.
  EXPECT_EQ(col.code_at(0), col.code_at(2));
  EXPECT_EQ(col.code_at(0), col.code_at(3));
  EXPECT_EQ(col.code_at(1), col.code_at(5));
  EXPECT_NE(col.code_at(0), col.code_at(1));
  EXPECT_NE(col.code_at(0), col.code_at(4));
  for (size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(col.string_at(i), words[i]) << i;
  }
}

TEST(DictionaryTest, InternAndFindAcrossIndexGrowth) {
  Dictionary dict;
  const size_t n = 5000;  // grows the lookup index many times
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(dict.Find("k" + std::to_string(i)), -1) << i;
    ASSERT_EQ(dict.Intern("k" + std::to_string(i)), i);
  }
  ASSERT_EQ(dict.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const std::string s = "k" + std::to_string(i);
    EXPECT_EQ(dict.Intern(s), i);
    EXPECT_EQ(dict.Find(s), static_cast<int64_t>(i));
    EXPECT_EQ(dict.hashes[i], Value(s).Hash());
    EXPECT_EQ(dict.lengths[i], s.size());
  }
  EXPECT_EQ(dict.size(), n);
  // A string with its hash already known interns to the same code.
  EXPECT_EQ(dict.Intern(std::string("k7"), Value("k7").Hash()), 7u);
  EXPECT_EQ(dict.Intern(std::string("new"), Value("new").Hash()), n);
  EXPECT_EQ(dict.Find("new"), static_cast<int64_t>(n));
}

TEST(ColumnVectorTest, TypeMismatchFallsBackToVariantLane) {
  ColumnVector col(DataType::kInt64);
  col.Append(Value(int64_t{1}));
  col.Append(Value("not an int"));  // demotes
  col.Append(Value(2.5));
  EXPECT_FALSE(col.is_native());
  EXPECT_EQ(col.GetValue(0), Value(int64_t{1}));
  EXPECT_EQ(col.GetValue(1), Value("not an int"));
  EXPECT_EQ(col.GetValue(2), Value(2.5));
  // Hash and byte size still match the row representation.
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col.HashAt(i), col.GetValue(i).Hash()) << i;
    EXPECT_EQ(col.CellByteSize(i), col.GetValue(i).ByteSize()) << i;
  }
}

TEST(RowBatchTest, AppendRowBatchRoundTripAllTypes) {
  Table t("five", FiveTypeSchema());
  for (const Row& r : FiveTypeRows()) ASSERT_TRUE(t.AppendRow(r).ok());

  auto batches = t.ToBatches();
  ASSERT_EQ(batches->size(), 1u);
  const RowBatch& batch = (*batches)[0];
  ASSERT_EQ(batch.num_rows(), t.num_rows());

  // RowAt reproduces every appended row exactly.
  const std::vector<Row> want = FiveTypeRows();
  ASSERT_EQ(want.size(), t.num_rows());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(batch.RowAt(r), want[r]) << "row " << r;
  }
  EXPECT_EQ(t.ToRows(), want);
  // And byte accounting is representation-independent.
  size_t row_bytes = 0;
  for (const Row& r : want) row_bytes += RowByteSize(r);
  EXPECT_EQ(batch.ByteSize(), row_bytes);
  EXPECT_EQ(t.ByteSize(), row_bytes);
}

TEST(RowBatchTest, FromBatchesSharesTheSourceBatches) {
  Table t("five", FiveTypeSchema());
  for (const Row& r : FiveTypeRows()) ASSERT_TRUE(t.AppendRow(r).ok());
  auto batches = t.ToBatches();

  Table from = Table::FromBatches("copy", t.schema(), *batches);
  EXPECT_TRUE(from.columnar());
  EXPECT_EQ(from.num_rows(), t.num_rows());
  EXPECT_EQ(from.ByteSize(), t.ByteSize());
  // Get() answers from columns; ToRows() rebuilds the same cells.
  auto cell = from.Get(1, "s");
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(cell.value(), Value("beta"));
  EXPECT_EQ(from.ToRows(), t.ToRows());
  // A table built from batches is sealed: appending fails and leaves the
  // shared source batches untouched.
  EXPECT_FALSE(from.AppendRow(FiveTypeRows()[0]).ok());
  EXPECT_EQ(from.num_rows(), t.num_rows());
  EXPECT_EQ((*batches)[0].num_rows(), t.num_rows());
  EXPECT_EQ(t.ToRows(), FiveTypeRows());
}

TEST(RowBatchTest, AppendRowOpensBatchesSharingOneDictionary) {
  Table t("s", Schema({Column{"s", DataType::kString}}));
  const size_t n = 2 * RowBatch::kDefaultRows + 5;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("w" + std::to_string(i % 7))}).ok());
  }
  auto batches = t.ToBatches();
  ASSERT_EQ(batches->size(), 3u);
  EXPECT_EQ(t.batch_offsets(),
            (std::vector<size_t>{0, RowBatch::kDefaultRows,
                                 2 * RowBatch::kDefaultRows}));
  for (const RowBatch& b : *batches) {
    EXPECT_EQ(b.column(0).dict().get(), (*batches)[0].column(0).dict().get());
  }
  EXPECT_EQ((*batches)[0].column(0).dict_size(), 7u);
  auto cell = t.Get(2 * RowBatch::kDefaultRows + 3, "s");
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(cell.value(), Value("w" + std::to_string((n - 2) % 7)));

  // Once its batches are shared (a held ToBatches() result, a copy of the
  // table), appending fails on either side and writes nothing.
  EXPECT_FALSE(t.AppendRow({Value("new")}).ok());
  batches.reset();
  Table copy = t;
  EXPECT_FALSE(copy.AppendRow({Value("new")}).ok());
  EXPECT_FALSE(t.AppendRow({Value("new")}).ok());
  EXPECT_EQ(copy.num_rows(), n);
  EXPECT_EQ(t.num_rows(), n);
  EXPECT_EQ(t.ToBatches()->front().column(0).dict_size(), 7u);
}

TEST(RowBatchTest, HashEquivalenceWithRowHash) {
  Table t("five", FiveTypeSchema());
  for (const Row& r : FiveTypeRows()) ASSERT_TRUE(t.AppendRow(r).ok());
  auto batches = t.ToBatches();
  const RowBatch& batch = (*batches)[0];

  const std::vector<size_t> key_cols = {2, 4};  // int64 + string
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const Row row = t.ToRows()[r];
    EXPECT_EQ(batch.HashRowAt(r), RowHash()(row)) << "row " << r;
    Row key = {row[2], row[4]};
    EXPECT_EQ(batch.HashKeysAt(r, key_cols), RowHash()(key)) << "row " << r;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      EXPECT_EQ(batch.column(c).HashAt(r), row[c].Hash())
          << "row " << r << " col " << c;
    }
  }
  // 1, 1.0, and true hash equal across differently-typed columns, exactly
  // as Value::Hash defines.
  ColumnVector ints(DataType::kInt64), doubles(DataType::kDouble),
      bools(DataType::kBool);
  ints.Append(Value(int64_t{1}));
  doubles.Append(Value(1.0));
  bools.Append(Value(true));
  EXPECT_EQ(ints.HashAt(0), doubles.HashAt(0));
  EXPECT_EQ(ints.HashAt(0), bools.HashAt(0));
}

TEST(RowBatchTest, ProjectSharesColumnsAndGatherSelects) {
  Table t("five", FiveTypeSchema());
  for (const Row& r : FiveTypeRows()) ASSERT_TRUE(t.AppendRow(r).ok());
  const RowBatch& batch = (*t.ToBatches())[0];

  RowBatch proj = batch.Project({4, 2});
  EXPECT_EQ(proj.num_columns(), 2u);
  EXPECT_EQ(proj.column_ptr(0).get(), batch.column_ptr(4).get());  // zero copy
  EXPECT_EQ(proj.column_ptr(1).get(), batch.column_ptr(2).get());

  RowBatch picked = batch.Gather({0, 3});
  ASSERT_EQ(picked.num_rows(), 2u);
  EXPECT_EQ(picked.RowAt(0), t.ToRows()[0]);
  EXPECT_EQ(picked.RowAt(1), t.ToRows()[3]);
  // Gathered string column shares the source dictionary (passthrough):
  // only the 32-bit codes are gathered, strings are never re-interned.
  EXPECT_EQ(picked.column(4).dict().get(), batch.column(4).dict().get());
  EXPECT_EQ(picked.column(4).code_at(0), picked.column(4).code_at(1));

  RowBatch all = batch.Gather({0, 1, 2, 3, 4});
  EXPECT_EQ(all.column_ptr(0).get(), batch.column_ptr(0).get());  // zero copy
}

TEST(RowBatchTest, EmptyTableRoundTrip) {
  Table t("empty", FiveTypeSchema());
  auto batches = t.ToBatches();
  ASSERT_EQ(batches->size(), 1u);
  EXPECT_EQ((*batches)[0].num_rows(), 0u);
  Table from = Table::FromBatches("e2", t.schema(), *batches);
  EXPECT_EQ(from.num_rows(), 0u);
  EXPECT_EQ(from.ByteSize(), 0u);
  EXPECT_TRUE(from.ToRows().empty());
}

}  // namespace
}  // namespace opd::storage
