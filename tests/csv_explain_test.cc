// Tests for CSV import/export and the plan explainer.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "optimizer/optimizer.h"
#include "plan/explain.h"
#include "storage/csv.h"
#include "storage/dfs.h"
#include "udf/builtin_udfs.h"

namespace opd::storage {
namespace {

Schema TestSchema() {
  return Schema({Column{"id", DataType::kInt64},
                 Column{"name", DataType::kString},
                 Column{"score", DataType::kDouble},
                 Column{"flag", DataType::kBool}});
}

Table TestTable() {
  Table t("t", TestSchema());
  (void)t.AppendRow({Value(int64_t{1}), Value("alice"), Value(1.5),
                     Value(true)});
  (void)t.AppendRow({Value(int64_t{2}), Value("bob,jr"), Value(-2.0),
                     Value(false)});
  (void)t.AppendRow(
      {Value(int64_t{3}), Value("quote\"inside"), Value(0.0), Value(true)});
  return t;
}

TEST(CsvTest, RoundTrip) {
  Table original = TestTable();
  std::string csv = ToCsv(original);
  auto parsed = FromCsv(csv, TestSchema(), "t2");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), original.num_rows());
  const std::vector<Row> want = original.ToRows();
  const std::vector<Row> got = parsed->ToRows();
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t c = 0; c < want[i].size(); ++c) {
      // Doubles round-trip through ToString; compare via string form.
      EXPECT_EQ(want[i][c].ToString(), got[i][c].ToString())
          << "cell " << i << "," << c;
    }
  }
}

TEST(CsvTest, HeaderEmittedAndValidated) {
  Table t = TestTable();
  std::string csv = ToCsv(t);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "id,name,score,flag");
  // Wrong header order rejected.
  Schema wrong({Column{"name", DataType::kString},
                Column{"id", DataType::kInt64},
                Column{"score", DataType::kDouble},
                Column{"flag", DataType::kBool}});
  EXPECT_FALSE(FromCsv(csv, wrong, "t").ok());
}

TEST(CsvTest, QuotedCellsWithDelimitersAndQuotes) {
  Table t = TestTable();
  std::string csv = ToCsv(t);
  EXPECT_NE(csv.find("\"bob,jr\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(CsvTest, NullsRoundTrip) {
  Schema schema({Column{"x", DataType::kInt64}});
  Table t("t", schema);
  (void)t.AppendRow({Value::Null()});
  (void)t.AppendRow({Value(int64_t{5})});
  std::string csv = ToCsv(t);
  auto parsed = FromCsv(csv, schema, "t");
  ASSERT_TRUE(parsed.ok());
  const std::vector<Row> rows = parsed->ToRows();
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[1][0].as_int64(), 5);
}

TEST(CsvTest, TypeErrorsCarryRowNumbers) {
  Schema schema({Column{"x", DataType::kInt64}});
  auto result = FromCsv("x\n1\nnot_a_number\n", schema, "t");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row 3"), std::string::npos);
}

TEST(CsvTest, ArityMismatchRejected) {
  Schema schema({Column{"x", DataType::kInt64},
                 Column{"y", DataType::kInt64}});
  EXPECT_FALSE(FromCsv("x,y\n1,2,3\n", schema, "t").ok());
  EXPECT_FALSE(FromCsv("x,y\n1\n", schema, "t").ok());
}

TEST(CsvTest, NoHeaderMode) {
  Schema schema({Column{"x", DataType::kInt64}});
  CsvOptions options;
  options.header = false;
  auto parsed = FromCsv("1\n2\n3\n", schema, "t", options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 3u);
}

TEST(CsvTest, CustomDelimiter) {
  Table t = TestTable();
  CsvOptions options;
  options.delimiter = '\t';
  std::string csv = ToCsv(t, options);
  auto parsed = FromCsv(csv, TestSchema(), "t", options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), t.num_rows());
}

}  // namespace
}  // namespace opd::storage

namespace opd::plan {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(udf::RegisterBuiltinUdfs(&udfs_).ok());
    storage::Schema schema(
        {storage::Column{"tweet_id", storage::DataType::kInt64},
         storage::Column{"user_id", storage::DataType::kInt64},
         storage::Column{"tweet_text", storage::DataType::kString}});
    auto t = std::make_shared<storage::Table>("TWTR", schema);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(t->AppendRow({storage::Value(int64_t{i}),
                                storage::Value(int64_t{i % 3}),
                                storage::Value("words here")})
                      .ok());
    }
    ASSERT_TRUE(catalog_.RegisterBase(t, {"tweet_id"}, &dfs_).ok());
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        AnnotationContext{&catalog_, &views_, &udfs_},
        optimizer::CostModel());
  }

  storage::Dfs dfs_;
  catalog::Catalog catalog_;
  catalog::ViewStore views_;
  udf::UdfRegistry udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
};

TEST_F(ExplainTest, RendersOperatorsAndCosts) {
  Plan p(GroupBy(Project(Scan("TWTR"), {"user_id"}), {"user_id"},
                 {AggSpec{AggFn::kCount, "", "n"}}));
  ASSERT_TRUE(optimizer_->Prepare(&p).ok());
  std::string text = Explain(p);
  EXPECT_NE(text.find("GROUPBY"), std::string::npos);
  EXPECT_NE(text.find("PROJECT"), std::string::npos);
  EXPECT_NE(text.find("SCAN(TWTR)"), std::string::npos);
  EXPECT_NE(text.find("total estimated cost"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
}

TEST_F(ExplainTest, SharedSubtreeMarked) {
  auto extract = Project(Scan("TWTR"), {"user_id", "tweet_text"});
  auto wine = Udf(extract, "UDF_CLASSIFY_WINE_SCORE",
                  {{"threshold", storage::Value(0.5)}});
  auto counts =
      GroupBy(extract, {"user_id"}, {AggSpec{AggFn::kCount, "", "n"}});
  Plan p(Join(wine, counts, {{"user_id", "user_id"}}));
  ASSERT_TRUE(optimizer_->Prepare(&p).ok());
  std::string text = Explain(p);
  EXPECT_NE(text.find("(shared)"), std::string::npos);
}

TEST_F(ExplainTest, AfkShownOnRequest) {
  Plan p(Project(Scan("TWTR"), {"user_id"}));
  ASSERT_TRUE(optimizer_->Prepare(&p).ok());
  ExplainOptions options;
  options.show_afk = true;
  std::string text = Explain(p, options);
  EXPECT_NE(text.find("A,F,K:"), std::string::npos);
}

TEST_F(ExplainTest, TotalCostMatchesSum) {
  Plan p(GroupBy(Scan("TWTR"), {"user_id"},
                 {AggSpec{AggFn::kCount, "", "n"}}));
  ASSERT_TRUE(optimizer_->Prepare(&p).ok());
  EXPECT_DOUBLE_EQ(TotalCost(p), p.root()->cost.total_s);
}

TEST_F(ExplainTest, EmptyPlan) {
  EXPECT_EQ(Explain(Plan()), "<empty plan>\n");
}

}  // namespace
}  // namespace opd::plan
