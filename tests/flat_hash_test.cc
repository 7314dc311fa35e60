// Property tests for the vectorized shuffle-hash layer (src/exec/hash/):
// the flat open-addressing tables against std::unordered_map oracles over
// randomized key distributions, and the canonical key encoding / flat hash
// family against Value-equality semantics — nulls, NaN / -0.0
// normalization, dictionary and non-dictionary strings, empty key sets, and
// duplicate-heavy key distributions.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/hash/flat_table.h"
#include "exec/hash/hash_kernels.h"
#include "storage/row_batch.h"
#include "storage/table.h"
#include "storage/value.h"

namespace opd::exec::hash {
namespace {

using storage::Column;
using storage::DataType;
using storage::Row;
using storage::RowBatch;
using storage::Schema;
using storage::Table;
using storage::Value;

// Flat per-row key hash over `cols` of `row`: the definition HashKeys
// computes batch-wide.
uint64_t FlatRowKeyHash(const Row& row, const std::vector<size_t>& cols) {
  uint64_t h = kKeySeed;
  for (size_t i : cols) HashCombine(&h, FlatCellHash(row[i]));
  return h;
}

// Normalizes the key cells of `row` at `cols` into `out`: the per-row
// definition of NormalizeKey.
void NormalizeKeyRow(const Row& row, const std::vector<size_t>& cols,
                     KeyScratch* out) {
  out->Clear();
  for (size_t i : cols) EncodeCell(row[i], out);
}

std::string KeyBytes(const Row& row, const std::vector<size_t>& cols) {
  KeyScratch scratch;
  NormalizeKeyRow(row, cols, &scratch);
  return std::string(scratch.data(), scratch.size());
}

// Small value pool: few distinct values per type so random rows collide a
// lot (duplicate-heavy), plus cross-type numeric equality (1 == 1.0 == true)
// and nulls. NaN is covered by its own test: Value::operator== follows IEEE
// (NaN != NaN) while the canonical encoding compares NaN by bit pattern, so
// it stays out of the Value-equality oracle here.
Value RandomValue(Rng* rng) {
  switch (rng->Uniform(8)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(true);
    case 2:
      return Value(static_cast<int64_t>(rng->Uniform(3)));
    case 3:
      return Value(static_cast<double>(rng->Uniform(3)));
    case 4:
      return Value(rng->Uniform(2) == 0 ? -0.0 : 0.0);
    case 5:
      return Value(std::string(1, 'a' + rng->Uniform(3)));
    case 6:
      return Value("shared-key");
    default:
      return Value(static_cast<int64_t>(1));
  }
}

TEST(KeyScratchTest, GrowsPastInlineBufferAndRetainsContents) {
  KeyScratch s;
  std::string expect;
  for (int i = 0; i < 40; ++i) {  // 40 * 5 bytes: well past the 48B inline
    const char c = static_cast<char>('a' + i % 26);
    s.PushByte(c);
    s.Append("1234", 4);
    expect += c;
    expect += "1234";
  }
  ASSERT_EQ(std::string(s.data(), s.size()), expect);
  s.Clear();
  ASSERT_EQ(s.size(), 0u);
  s.Append("xy", 2);  // reuse after clear keeps the grown buffer
  ASSERT_EQ(std::string(s.data(), s.size()), "xy");
}

TEST(HashKernelsTest, NumericCellsNormalizeAcrossTypesAndSignedZero) {
  // 1 == 1.0 == true under Value equality: one hash, one encoding.
  EXPECT_EQ(FlatCellHash(Value(true)), FlatCellHash(Value(int64_t{1})));
  EXPECT_EQ(FlatCellHash(Value(int64_t{1})), FlatCellHash(Value(1.0)));
  EXPECT_EQ(HashNumericCell(-0.0), HashNumericCell(0.0));
  Row neg{Value(-0.0)}, pos{Value(0.0)};
  EXPECT_EQ(KeyBytes(neg, {0}), KeyBytes(pos, {0}));
  // Distinct values get distinct encodings.
  Row one{Value(int64_t{1})}, two{Value(int64_t{2})};
  EXPECT_NE(KeyBytes(one, {0}), KeyBytes(two, {0}));
}

TEST(HashKernelsTest, NaNComparesByBitPattern) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Row a{Value(nan)}, b{Value(nan)};
  // Same bit pattern: equal encoding and equal hash, so one group — the
  // flat paths' documented NaN semantics (Value::operator== would say
  // NaN != NaN).
  EXPECT_EQ(KeyBytes(a, {0}), KeyBytes(b, {0}));
  EXPECT_EQ(FlatRowKeyHash(a, {0}), FlatRowKeyHash(b, {0}));
  // And NaN is not null, not zero.
  Row null_row{Value::Null()}, zero{Value(0.0)};
  EXPECT_NE(KeyBytes(a, {0}), KeyBytes(null_row, {0}));
  EXPECT_NE(KeyBytes(a, {0}), KeyBytes(zero, {0}));
}

TEST(HashKernelsTest, EncodingEquivalentToValueEqualityOnRandomKeys) {
  Rng rng(7);
  const std::vector<size_t> cols{0, 1};
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(Row{RandomValue(&rng), RandomValue(&rng)});
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      const bool value_eq = rows[i][0] == rows[j][0] &&
                            rows[i][1] == rows[j][1];
      const bool bytes_eq = KeyBytes(rows[i], cols) == KeyBytes(rows[j], cols);
      ASSERT_EQ(value_eq, bytes_eq)
          << "row " << i << " vs row " << j << ": Value equality and "
          << "canonical key encoding disagree";
      if (bytes_eq) {
        ASSERT_EQ(FlatRowKeyHash(rows[i], cols), FlatRowKeyHash(rows[j], cols));
      }
    }
  }
}

TEST(FlatGroupIndexTest, MatchesUnorderedMapOracleOnDuplicateHeavyKeys) {
  Rng rng(11);
  const std::vector<size_t> cols{0, 1, 2};
  // No Reserve call: growth from the 16-slot minimum exercises Rehash, and
  // the resize count must show up in the stats.
  FlatGroupIndex index;
  std::unordered_map<std::string, uint32_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    Row row{RandomValue(&rng), RandomValue(&rng), RandomValue(&rng)};
    const std::string key = KeyBytes(row, cols);
    auto [id, inserted] =
        index.InsertOrGet(FlatRowKeyHash(row, cols), key.data(),
                          static_cast<uint32_t>(key.size()));
    auto [it, oracle_inserted] =
        oracle.try_emplace(key, static_cast<uint32_t>(oracle.size()));
    ASSERT_EQ(inserted, oracle_inserted) << "iteration " << i;
    ASSERT_EQ(id, it->second) << "iteration " << i;
  }
  EXPECT_EQ(index.size(), oracle.size());
  EXPECT_GT(index.stats().resizes, 0u);
  EXPECT_GT(index.arena_bytes(), 0u);
  EXPECT_LE(index.load_factor(), 0.875);
}

TEST(FlatGroupIndexTest, ReserveMakesInsertResizeFree) {
  Rng rng(13);
  const std::vector<size_t> cols{0};
  FlatGroupIndex index;
  index.Reserve(512, 9);  // worst case: all distinct single-numeric keys
  for (int i = 0; i < 512; ++i) {
    Row row{Value(static_cast<int64_t>(i))};
    const std::string key = KeyBytes(row, cols);
    index.InsertOrGet(FlatRowKeyHash(row, cols), key.data(),
                      static_cast<uint32_t>(key.size()));
  }
  EXPECT_EQ(index.size(), 512u);
  EXPECT_EQ(index.stats().resizes, 0u);
}

TEST(FlatMultiMapTest, MatchesUnorderedMapOracleIncludingMissingProbes) {
  Rng rng(17);
  const std::vector<size_t> cols{0, 1};
  FlatMultiMap<int> table;
  std::unordered_map<std::string, std::vector<int>> oracle;
  std::vector<Row> build_rows;
  for (int i = 0; i < 2000; ++i) {
    Row row{RandomValue(&rng), RandomValue(&rng)};
    const std::string key = KeyBytes(row, cols);
    table.Insert(FlatRowKeyHash(row, cols), key.data(),
                 static_cast<uint32_t>(key.size()), i);
    oracle[key].push_back(i);
    build_rows.push_back(std::move(row));
  }
  // Probe with every build key plus fresh keys that were never inserted.
  for (int i = 0; i < 500; ++i) {
    Row probe = i < 250
                    ? build_rows[rng.Uniform(build_rows.size())]
                    : Row{Value(static_cast<int64_t>(1000 + i)),
                          Value("missing")};
    const std::string key = KeyBytes(probe, cols);
    std::vector<int> got;
    table.ForEachMatch(FlatRowKeyHash(probe, cols), key.data(),
                       static_cast<uint32_t>(key.size()),
                       [&](int payload) { got.push_back(payload); });
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      ASSERT_TRUE(got.empty()) << "probe " << i << " matched a missing key";
    } else {
      // Insertion order, exactly — the join paths rely on build-row order.
      ASSERT_EQ(got, it->second) << "probe " << i;
    }
  }
}

TEST(FlatGroupIndexTest, EmptyKeySetPutsEverythingInOneGroup) {
  const std::vector<size_t> cols;  // group-by with no keys: one global group
  FlatGroupIndex index;
  for (int i = 0; i < 10; ++i) {
    Row row{Value(static_cast<int64_t>(i))};
    const std::string key = KeyBytes(row, cols);
    ASSERT_TRUE(key.empty());
    auto [id, inserted] =
        index.InsertOrGet(FlatRowKeyHash(row, cols), key.data(),
                          static_cast<uint32_t>(key.size()));
    ASSERT_EQ(id, 0u);
    ASSERT_EQ(inserted, i == 0);
  }
  EXPECT_EQ(index.size(), 1u);
}

// Batch-wide HashKeys must agree with the per-row FlatRowKeyHash on every
// lane the engine produces — typed numerics, dictionary strings, nulls —
// so one table column can be hashed in either representation.
TEST(HashKernelsTest, BatchHashKeysMatchesRowHashAcrossLanes) {
  Rng rng(23);
  Table t("t", Schema({Column{"a", DataType::kInt64},
                       Column{"s", DataType::kString},
                       Column{"d", DataType::kDouble}}));
  for (int i = 0; i < 400; ++i) {
    Row row;
    row.push_back(rng.Uniform(10) == 0
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng.Uniform(5))));
    row.push_back(rng.Uniform(10) == 0
                      ? Value::Null()
                      : Value(std::string(1, 'a' + rng.Uniform(4))));
    row.push_back(rng.Uniform(10) == 0
                      ? Value::Null()
                      : Value(static_cast<double>(rng.Uniform(3))));
    ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  const std::vector<size_t> cols{0, 1, 2};
  auto batches = t.ToBatches();
  const std::vector<Row> rows = t.ToRows();
  size_t global = 0;
  for (const RowBatch& b : *batches) {
    std::vector<uint64_t> hashes(b.num_rows());
    HashKeys(b, 0, b.num_rows(), cols, hashes.data());
    for (size_t i = 0; i < b.num_rows(); ++i, ++global) {
      ASSERT_EQ(hashes[i], FlatRowKeyHash(rows[global], cols))
          << "row " << global;
    }
    // A row range hashes like the same rows of the whole batch.
    const size_t begin = b.num_rows() / 3, end = b.num_rows() - 5;
    std::vector<uint64_t> part(end - begin);
    HashKeys(b, begin, end, cols, part.data());
    EXPECT_TRUE(std::equal(part.begin(), part.end(), hashes.begin() + begin));
  }
  ASSERT_EQ(global, t.num_rows());
}

TEST(KeyCodecTest, SharedDictionaryUsesDictCodesAndStaysConsistent) {
  Table t("t", Schema({Column{"s", DataType::kString},
                       Column{"v", DataType::kInt64}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow(Row{Value(std::string(1, 'a' + i % 3)),
                                Value(static_cast<int64_t>(i))})
                    .ok());
  }
  auto batches = t.ToBatches();
  const std::vector<size_t> cols{0};
  const auto codecs = PlanKeyCodecs({{batches.get(), &cols}});
  ASSERT_EQ(codecs.size(), 1u);
  ASSERT_EQ(codecs[0].modes.size(), 1u);
  ASSERT_EQ(codecs[0].modes[0], KeyColMode::kDictCode);
  ASSERT_TRUE(codecs[0].bounded);
  ASSERT_EQ(codecs[0].width_bound, 1 + sizeof(uint32_t));

  // Dict-code encodings group rows exactly like the string values do.
  KeyScratch scratch;
  std::unordered_map<std::string, std::string> code_key_of_string;
  for (const RowBatch& b : *batches) {
    for (size_t i = 0; i < b.num_rows(); ++i) {
      NormalizeKey(b, i, codecs[0], &scratch);
      std::string code_key(scratch.data(), scratch.size());
      const std::string s = b.column(0).GetValue(i).as_string();
      auto [it, inserted] =
          code_key_of_string.try_emplace(s, std::move(code_key));
      if (!inserted) {
        ASSERT_EQ(it->second, std::string(scratch.data(), scratch.size()))
            << "same string, different dict-code key";
      }
    }
  }
  ASSERT_EQ(code_key_of_string.size(), 3u);
}

TEST(KeyCodecTest, DifferentDictionariesFallBackToStringBytes) {
  // Two independently built tables: same strings, different Dictionary
  // objects — dict codes are incomparable, so the codec must use the byte
  // encoding, which compares equal across the sides.
  auto make = [](const char* name) {
    Table t(name, Schema({Column{"s", DataType::kString}}));
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          t.AppendRow(Row{Value(std::string(1, 'x' + i % 2))}).ok());
    }
    return t;
  };
  Table t1 = make("t1"), t2 = make("t2");
  auto b1 = t1.ToBatches(), b2 = t2.ToBatches();
  const std::vector<size_t> cols{0};
  const auto codecs = PlanKeyCodecs({{b1.get(), &cols}, {b2.get(), &cols}});
  ASSERT_EQ(codecs.size(), 2u);
  EXPECT_EQ(codecs[0].modes[0], KeyColMode::kString);
  EXPECT_EQ(codecs[1].modes[0], KeyColMode::kString);
  EXPECT_FALSE(codecs[0].bounded);

  KeyScratch s1, s2;
  NormalizeKey((*b1)[0], 0, codecs[0], &s1);
  NormalizeKey((*b2)[0], 0, codecs[1], &s2);
  EXPECT_EQ(std::string(s1.data(), s1.size()),
            std::string(s2.data(), s2.size()));
  // And both equal the generic row encoding.
  EXPECT_EQ(std::string(s1.data(), s1.size()), KeyBytes(t1.ToRows()[0], cols));
}

}  // namespace
}  // namespace opd::exec::hash
