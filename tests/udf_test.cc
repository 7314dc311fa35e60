// Tests for the UDF model and the builtin UDF library: gray-box model
// application (Section 3.1/3.2), local-function execution, and the
// text-analytics helpers.

#include <gtest/gtest.h>

#include "exec/udf_exec.h"
#include "reference_interpreter.h"
#include "udf/builtin_udfs.h"
#include "udf/udf.h"
#include "udf/udf_registry.h"

namespace opd::udf {
namespace {

using afk::Afk;
using afk::Attribute;
using storage::Column;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;

// --- Text helpers -----------------------------------------------------------

TEST(TextHelpersTest, LexiconScore) {
  EXPECT_GT(LexiconScore("great wine and merlot tonight", "wine"), 0.0);
  EXPECT_EQ(LexiconScore("nothing topical here", "wine"), 0.0);
  EXPECT_LT(LexiconScore("tasted like vinegar corked", "wine"), 0.0);
  EXPECT_EQ(LexiconScore("wine", "nonexistent-lexicon"), 0.0);
}

TEST(TextHelpersTest, JaccardSimilarity) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity("a b c", "a b c"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("a b", "c d"), 0.0);
  EXPECT_NEAR(JaccardSimilarity("a b c", "b c d"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("", ""), 0.0);
}

TEST(TextHelpersTest, GeoTileIdGrid) {
  // Same cell.
  EXPECT_EQ(GeoTileId(37.1, -122.1, 1.0), GeoTileId(37.9, -122.05, 1.0));
  // Different rows.
  EXPECT_NE(GeoTileId(37.5, -122.1, 1.0), GeoTileId(38.5, -122.1, 1.0));
  // Finer tiles distinguish more.
  EXPECT_NE(GeoTileId(37.1, -122.1, 0.5), GeoTileId(37.9, -122.1, 0.5));
}

TEST(TextHelpersTest, ParseLatLon) {
  double lat, lon;
  EXPECT_TRUE(ParseLatLon("37.5,-122.2", &lat, &lon));
  EXPECT_DOUBLE_EQ(lat, 37.5);
  EXPECT_DOUBLE_EQ(lon, -122.2);
  EXPECT_FALSE(ParseLatLon("", &lat, &lon));
  EXPECT_FALSE(ParseLatLon("n/a", &lat, &lon));
  EXPECT_FALSE(ParseLatLon("999,0", &lat, &lon));
}

TEST(TextHelpersTest, ParseLogMeta) {
  std::string lang, device;
  ParseLogMeta("lang=en;dev=ios", &lang, &device);
  EXPECT_EQ(lang, "en");
  EXPECT_EQ(device, "ios");
  ParseLogMeta("garbage", &lang, &device);
  EXPECT_EQ(lang, "unknown");
  EXPECT_EQ(device, "unknown");
}

// --- Registry ----------------------------------------------------------------

TEST(RegistryTest, RegisterAndFind) {
  UdfRegistry reg;
  ASSERT_TRUE(RegisterBuiltinUdfs(&reg).ok());
  EXPECT_GE(reg.size(), 10u);  // the paper's "10 unique UDFs"
  EXPECT_TRUE(reg.Find("UDF_CLASSIFY_WINE_SCORE").ok());
  EXPECT_FALSE(reg.Find("NO_SUCH_UDF").ok());
  EXPECT_TRUE(reg.FindPredicate("valid_geo").ok());
  // Double registration fails.
  EXPECT_FALSE(reg.Register(MakeGeoTileUdf()).ok());
}

// --- Model application --------------------------------------------------------

class UdfModelTest : public ::testing::Test {
 protected:
  Afk TwtrAfk() {
    std::vector<Attribute> attrs = {
        Attribute::Base("TWTR", "tweet_id", DataType::kInt64),
        Attribute::Base("TWTR", "user_id", DataType::kInt64),
        Attribute::Base("TWTR", "tweet_text", DataType::kString),
        Attribute::Base("TWTR", "mention_user", DataType::kInt64),
        Attribute::Base("TWTR", "geo", DataType::kString),
    };
    return Afk::ForBaseRelation("TWTR", attrs, {"tweet_id"});
  }
};

TEST_F(UdfModelTest, FoodiesEndToEndTransformation) {
  // The paper's Figure 3(b): A' = {user_id, sent_sum},
  // F' = {sent_sum > threshold}, K' = {user_id}.
  UdfDefinition udf = MakeClassifyFoodScoreUdf();
  Params params = {{"threshold", Value(0.5)}};
  auto out = ApplyUdfModel(udf, TwtrAfk(), params);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->attrs().size(), 2u);
  EXPECT_TRUE(out->FindByName("user_id").has_value());
  auto sent = out->FindByName("sent_sum");
  ASSERT_TRUE(sent.has_value());
  EXPECT_EQ(sent->producer(), "UDF_CLASSIFY_FOOD_SCORE");
  EXPECT_EQ(out->filters().size(), 1u);
  EXPECT_EQ(out->keys().agg_depth(), 1);
  ASSERT_EQ(out->keys().keys().size(), 1u);
  EXPECT_EQ(out->keys().keys()[0].name(), "user_id");
}

TEST_F(UdfModelTest, ThresholdIsFilterOnlyParameter) {
  // Different thresholds produce the SAME output attribute (signature) but
  // different filters — the property that lets revised queries reuse views.
  UdfDefinition udf = MakeClassifyFoodScoreUdf();
  auto out1 = ApplyUdfModel(udf, TwtrAfk(), {{"threshold", Value(0.5)}});
  auto out2 = ApplyUdfModel(udf, TwtrAfk(), {{"threshold", Value(1.0)}});
  ASSERT_TRUE(out1.ok() && out2.ok());
  EXPECT_EQ(*out1->FindByName("sent_sum"), *out2->FindByName("sent_sum"));
  EXPECT_FALSE(out1->filters() == out2->filters());
}

TEST_F(UdfModelTest, ValueParamEntersSignature) {
  // tile_size changes what tile_id *is*, so it must change the signature.
  UdfDefinition latlon = MakeExtractLatLonUdf();
  auto with_geo = ApplyUdfModel(latlon, TwtrAfk(), {});
  ASSERT_TRUE(with_geo.ok());
  UdfDefinition tile = MakeGeoTileUdf();
  auto t1 = ApplyUdfModel(tile, *with_geo, {{"tile_size", Value(1.0)}});
  auto t2 = ApplyUdfModel(tile, *with_geo, {{"tile_size", Value(0.5)}});
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_FALSE(*t1->FindByName("tile_id") == *t2->FindByName("tile_id"));
}

TEST_F(UdfModelTest, MissingInputFails) {
  UdfDefinition udf = MakeClassifyFoodScoreUdf();
  Afk no_text = Afk::ForBaseRelation(
      "X", {Attribute::Base("X", "user_id", DataType::kInt64)}, {});
  EXPECT_FALSE(ApplyUdfModel(udf, no_text, {}).ok());
}

TEST_F(UdfModelTest, KeptStarPassesEverything) {
  UdfDefinition udf = MakeExtractLatLonUdf();
  auto out = ApplyUdfModel(udf, TwtrAfk(), {});
  ASSERT_TRUE(out.ok());
  // All 5 inputs + lat + lon.
  EXPECT_EQ(out->attrs().size(), 7u);
  // The validity filter is recorded in the model.
  EXPECT_EQ(out->filters().size(), 1u);
}

TEST_F(UdfModelTest, DeterministicAcrossApplications) {
  UdfDefinition udf = MakeFriendshipStrengthUdf();
  Params p = {{"min_strength", Value(2.0)}};
  auto a = ApplyUdfModel(udf, TwtrAfk(), p);
  auto b = ApplyUdfModel(udf, TwtrAfk(), p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
}

// --- Local-function execution -------------------------------------------------

class UdfExecTest : public ::testing::Test {
 protected:
  Table TweetTable() {
    Schema schema({Column{"user_id", DataType::kInt64},
                   Column{"tweet_text", DataType::kString},
                   Column{"mention_user", DataType::kInt64}});
    Table t("tweets", schema);
    auto add = [&](int64_t u, const std::string& text, int64_t m) {
      ASSERT_TRUE(t.AppendRow({Value(u), Value(text), Value(m)}).ok());
    };
    add(1, "lovely wine and merlot and chardonnay", 2);
    add(1, "more wine again vineyard sommelier", 2);
    add(2, "bland stale burnt", 1);
    add(2, "nothing to see", -1);
    add(3, "wine", -1);
    return t;
  }
};

TEST_F(UdfExecTest, WineScoreFiltersAndAggregates) {
  UdfDefinition udf = MakeClassifyWineScoreUdf();
  Table out;
  Params params = {{"threshold", Value(0.5)}};
  ASSERT_TRUE(
      exec::RunLocalFunctions(udf, TweetTable(), params, &out).ok());
  // user 1 has strong wine signal; user 3 has one wine word (0.30 < 0.5);
  // user 2 has none.
  ASSERT_EQ(out.num_rows(), 1u);
  const Row row = out.ToRows()[0];
  EXPECT_EQ(row[0].as_int64(), 1);
  EXPECT_GT(row[1].as_double(), 0.5);
}

TEST_F(UdfExecTest, ThresholdParameterRespected) {
  UdfDefinition udf = MakeClassifyWineScoreUdf();
  Table out;
  Params params = {{"threshold", Value(0.1)}};
  ASSERT_TRUE(
      exec::RunLocalFunctions(udf, TweetTable(), params, &out).ok());
  EXPECT_EQ(out.num_rows(), 2u);  // users 1 and 3 now pass
}

TEST_F(UdfExecTest, FriendshipNormalizesPairs) {
  UdfDefinition udf = MakeFriendshipStrengthUdf();
  Table out;
  Params params = {{"min_strength", Value(1.0)}};
  ASSERT_TRUE(
      exec::RunLocalFunctions(udf, TweetTable(), params, &out).ok());
  // (1->2) twice and (2->1) once normalize to pair (1,2) with strength 3.
  ASSERT_EQ(out.num_rows(), 1u);
  const Row row = out.ToRows()[0];
  EXPECT_EQ(row[0].as_int64(), 1);
  EXPECT_EQ(row[1].as_int64(), 2);
  EXPECT_DOUBLE_EQ(row[2].as_double(), 3.0);
}

TEST_F(UdfExecTest, TokenizeExplodesRows) {
  UdfDefinition udf = MakeTokenizeUdf();
  Table out;
  ASSERT_TRUE(exec::RunLocalFunctions(udf, TweetTable(), {}, &out).ok());
  EXPECT_GT(out.num_rows(), TweetTable().num_rows());
  EXPECT_EQ(out.schema().num_columns(), 2u);
}

TEST_F(UdfExecTest, StageAccountingReported) {
  UdfDefinition udf = MakeClassifyWineScoreUdf();
  Table out;
  std::vector<exec::LfStageRun> stages;
  ASSERT_TRUE(exec::RunLocalFunctions(udf, TweetTable(),
                                      {{"threshold", Value(0.5)}}, &out,
                                      &stages)
                  .ok());
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].kind, LfKind::kMap);
  EXPECT_EQ(stages[1].kind, LfKind::kReduce);
  EXPECT_EQ(stages[0].in_rows, 5u);
  EXPECT_GT(stages[0].in_bytes, 0u);
}

TEST_F(UdfExecTest, ExtractLatLonDropsInvalid) {
  Schema schema({Column{"geo", DataType::kString}});
  Table t("g", schema);
  ASSERT_TRUE(t.AppendRow({Value("37.5,-122.2")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("n/a")}).ok());
  UdfDefinition udf = MakeExtractLatLonUdf();
  Table out;
  ASSERT_TRUE(exec::RunLocalFunctions(udf, t, {}, &out).ok());
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.schema().num_columns(), 3u);  // geo, lat, lon
}

// A synthetic UDF with three consecutive map stages (no builtin has a
// map→map chain), exercising the runner's map-chain fusion: the fused
// single-wave execution, serial and split over many tasks, must match the
// reference interpreter's stage-at-a-time run row for row, including the
// per-stage accounting calibration relies on.
TEST_F(UdfExecTest, PipelinedFusesConsecutiveMapStagesIdentically) {
  UdfDefinition udf;
  udf.name = "UDF_TEST_MAPCHAIN";

  LocalFunction dbl;
  dbl.name = "chain-lf1-double";
  dbl.kind = LfKind::kMap;
  dbl.op_types = kOpAttrs;
  dbl.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return Schema({Column{"y", DataType::kInt64}});
  };
  dbl.map_fn = [](const Row& row, const LfContext& ctx,
                  std::vector<Row>* out) {
    out->push_back({Value(row[ctx.In("x")].as_int64() * 2)});
  };
  udf.local_functions.push_back(std::move(dbl));

  LocalFunction expand;
  expand.name = "chain-lf2-expand";
  expand.kind = LfKind::kMap;
  expand.op_types = kOpAttrs;
  expand.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return Schema({Column{"z", DataType::kInt64}});
  };
  expand.map_fn = [](const Row& row, const LfContext& ctx,
                     std::vector<Row>* out) {
    const int64_t y = row[ctx.In("y")].as_int64();
    out->push_back({Value(y)});
    out->push_back({Value(y + 1)});
  };
  udf.local_functions.push_back(std::move(expand));

  LocalFunction keep_even;
  keep_even.name = "chain-lf3-keep-even";
  keep_even.kind = LfKind::kMap;
  keep_even.op_types = kOpFilter;
  keep_even.out_schema = [](const Schema& in, const Params&) ->
      Result<Schema> { return in; };
  keep_even.map_fn = [](const Row& row, const LfContext& ctx,
                        std::vector<Row>* out) {
    if (row[ctx.In("z")].as_int64() % 2 == 0) out->push_back(row);
  };
  udf.local_functions.push_back(std::move(keep_even));

  Table t("nums", Schema({Column{"x", DataType::kInt64}}));
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i)}).ok());
  }

  auto expected =
      reference::RunUdfStages(udf, t.schema(), t.ToRows(), /*params=*/{});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->size(), 3u);
  // Each x yields y=2x (even, kept) and y+1 (odd, dropped): 200 rows.
  EXPECT_EQ(expected->back().size(), 200u);
  auto bytes = [](const std::vector<Row>& rows) {
    uint64_t b = 0;
    for (const Row& r : rows) b += storage::RowByteSize(r);
    return b;
  };

  ThreadPool pool(4);
  exec::UdfExecOptions split;
  split.pool = &pool;
  split.block_size_bytes = 256;  // force multiple fused map tasks
  for (const exec::UdfExecOptions& opts : {exec::UdfExecOptions{}, split}) {
    Table fused_out;
    std::vector<exec::LfStageRun> stages;
    ASSERT_TRUE(
        exec::RunLocalFunctions(udf, t, {}, &fused_out, &stages, opts).ok());
    EXPECT_EQ(fused_out.ToRows(), expected->back());

    // Fusion must not change the per-stage observations.
    ASSERT_EQ(stages.size(), expected->size());
    const std::vector<Row> input = t.ToRows();
    const std::vector<Row>* in = &input;
    for (size_t s = 0; s < stages.size(); ++s) {
      SCOPED_TRACE(stages[s].lf_name);
      const std::vector<Row>& out = (*expected)[s];
      EXPECT_EQ(stages[s].lf_name, udf.local_functions[s].name);
      EXPECT_EQ(stages[s].kind, LfKind::kMap);
      EXPECT_EQ(stages[s].in_rows, in->size());
      EXPECT_EQ(stages[s].out_rows, out.size());
      EXPECT_EQ(stages[s].in_bytes, bytes(*in));
      EXPECT_EQ(stages[s].out_bytes, bytes(out));
      in = &out;
    }
  }
}

TEST_F(UdfExecTest, WordCountCounts) {
  Schema schema({Column{"token", DataType::kString}});
  Table t("tok", schema);
  for (const char* w : {"a", "b", "a", "a", "c", "b"}) {
    ASSERT_TRUE(t.AppendRow({Value(w)}).ok());
  }
  UdfDefinition udf = MakeWordCountUdf();
  Table out;
  ASSERT_TRUE(exec::RunLocalFunctions(udf, t, {{"min_count", Value(1.0)}},
                                      &out)
                  .ok());
  // Only words with count > 1: a(3), b(2).
  ASSERT_EQ(out.num_rows(), 2u);
}

TEST_F(UdfExecTest, HasShuffleDetectsReduce) {
  EXPECT_TRUE(MakeClassifyWineScoreUdf().HasShuffle());
  EXPECT_FALSE(MakeGeoTileUdf().HasShuffle());
  EXPECT_FALSE(MakeExtractLatLonUdf().HasShuffle());
}

}  // namespace
}  // namespace opd::udf

// --- Three-stage UDF (map -> reduce -> map) -----------------------------------

namespace opd::udf {
namespace {

using storage::Column;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;

class HashtagTrendsTest : public ::testing::Test {
 protected:
  Table TagTable() {
    Schema schema({Column{"user_id", DataType::kInt64},
                   Column{"tweet_text", DataType::kString}});
    Table t("tweets", schema);
    auto add = [&](int64_t u, const std::string& text) {
      ASSERT_TRUE(t.AppendRow({Value(u), Value(text)}).ok());
    };
    // #wine mentioned by 4 distinct users (one twice), #rare by 1.
    add(1, "lovely evening #wine");
    add(2, "cellar visit #wine #Wine");
    add(3, "tasting #wine");
    add(4, "more #wine");
    add(4, "obscure #rare");
    return t;
  }
};

TEST_F(HashtagTrendsTest, ThreeStagesExecute) {
  UdfDefinition udf = MakeHashtagTrendsUdf();
  ASSERT_EQ(udf.local_functions.size(), 3u);
  EXPECT_EQ(udf.local_functions[0].kind, LfKind::kMap);
  EXPECT_EQ(udf.local_functions[1].kind, LfKind::kReduce);
  EXPECT_EQ(udf.local_functions[2].kind, LfKind::kMap);
  EXPECT_TRUE(udf.HasShuffle());

  Table out;
  Params params = {{"min_users", Value(2.0)}};
  std::vector<exec::LfStageRun> stages;
  ASSERT_TRUE(
      exec::RunLocalFunctions(udf, TagTable(), params, &out, &stages).ok());
  ASSERT_EQ(stages.size(), 3u);
  // Only #wine passes min_users = 2 (4 distinct users).
  ASSERT_EQ(out.num_rows(), 1u);
  const Row row = out.ToRows()[0];
  EXPECT_EQ(row[0].as_string(), "wine");
  EXPECT_EQ(row[1].as_int64(), 4);
  EXPECT_EQ(row[2].as_string(), "rising");  // 4 <= 4*2
}

TEST_F(HashtagTrendsTest, DistinctUsersNotOccurrences) {
  // user 2 used #wine twice in one tweet: still one distinct user each.
  UdfDefinition udf = MakeHashtagTrendsUdf();
  Table out;
  ASSERT_TRUE(exec::RunLocalFunctions(udf, TagTable(),
                                      {{"min_users", Value(0.0)}}, &out)
                  .ok());
  // Both tags pass with min_users = 0.
  ASSERT_EQ(out.num_rows(), 2u);
}

TEST_F(HashtagTrendsTest, ModelMatchesExecution) {
  // The value-affecting parameter min_users is part of trend_tier's
  // signature but not of tag/tag_users.
  UdfDefinition udf = MakeHashtagTrendsUdf();
  std::vector<afk::Attribute> attrs = {
      afk::Attribute::Base("TWTR", "user_id", DataType::kInt64),
      afk::Attribute::Base("TWTR", "tweet_text", DataType::kString)};
  afk::Afk in = afk::Afk::ForBaseRelation("TWTR", attrs, {});
  auto out2 = ApplyUdfModel(udf, in, {{"min_users", Value(2.0)}});
  auto out3 = ApplyUdfModel(udf, in, {{"min_users", Value(3.0)}});
  ASSERT_TRUE(out2.ok() && out3.ok());
  EXPECT_EQ(*out2->FindByName("tag"), *out3->FindByName("tag"));
  EXPECT_EQ(*out2->FindByName("tag_users"), *out3->FindByName("tag_users"));
  EXPECT_FALSE(*out2->FindByName("trend_tier") ==
               *out3->FindByName("trend_tier"));
  EXPECT_EQ(out2->keys().keys().size(), 1u);
  EXPECT_EQ(out2->keys().keys()[0].name(), "tag");
}

}  // namespace
}  // namespace opd::udf
