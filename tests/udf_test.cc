// Tests for the UDF model and the builtin UDF library: gray-box model
// application (Section 3.1/3.2), local-function execution, and the
// text-analytics helpers.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <map>
#include <set>

#include "common/rng.h"
#include "common/string_util.h"
#include "exec/udf_exec.h"
#include "reference_interpreter.h"
#include "udf/builtin_udfs.h"
#include "udf/udf.h"
#include "udf/udf_registry.h"
#include "workload/datagen.h"

namespace opd::udf {
namespace {

using afk::Afk;
using afk::Attribute;
using storage::Column;
using storage::DataType;
using storage::Row;
using storage::RowBatch;
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

// --- Kernel equivalence ------------------------------------------------------
// The row-at-a-time definitions the text and parse kernels replaced, kept as
// references. The reference interpreter runs the same UDF bodies as the
// engine, so only these tests catch a kernel that drifts from them.
// TokenizeWords itself is checked against std::isalnum in common_test.

const std::map<std::string, double>& ReferenceLexicon(const std::string& name) {
  static const std::map<std::string, double> kWine = {
      {"wine", 0.30},    {"merlot", 0.35},   {"cabernet", 0.35},
      {"pinot", 0.30},   {"chardonnay", 0.30}, {"vineyard", 0.25},
      {"tannin", 0.20},  {"sommelier", 0.40}, {"rose", 0.15},
      {"riesling", 0.30}, {"corked", -0.20},  {"vinegar", -0.25},
  };
  static const std::map<std::string, double> kFood = {
      {"delicious", 0.35}, {"tasty", 0.30},  {"yummy", 0.30},
      {"brunch", 0.20},    {"foodie", 0.40}, {"pasta", 0.20},
      {"ramen", 0.25},     {"dessert", 0.25}, {"savory", 0.25},
      {"bland", -0.30},    {"stale", -0.35}, {"burnt", -0.25},
  };
  static const std::map<std::string, double> kLuxury = {
      {"yacht", 0.45},    {"penthouse", 0.40}, {"champagne", 0.35},
      {"caviar", 0.40},   {"firstclass", 0.35}, {"designer", 0.25},
      {"chauffeur", 0.35}, {"resort", 0.20},   {"golf", 0.15},
      {"thrift", -0.20},  {"coupon", -0.15},
  };
  static const std::map<std::string, double> kEmpty = {};
  if (name == "wine") return kWine;
  if (name == "food") return kFood;
  if (name == "luxury") return kLuxury;
  return kEmpty;
}

double ReferenceLexiconScore(std::string_view text,
                             const std::string& lexicon) {
  const auto& lex = ReferenceLexicon(lexicon);
  double score = 0;
  for (const std::string& word : TokenizeWords(text)) {
    auto it = lex.find(word);
    if (it != lex.end()) score += it->second;
  }
  return score;
}

double ReferenceJaccard(std::string_view a, std::string_view b) {
  auto wa = TokenizeWords(a);
  auto wb = TokenizeWords(b);
  std::set<std::string> sa(wa.begin(), wa.end());
  std::set<std::string> sb(wb.begin(), wb.end());
  if (sa.empty() && sb.empty()) return 0.0;
  size_t inter = 0;
  for (const auto& w : sa) inter += sb.count(w);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

bool ReferenceParseLatLon(std::string_view geo, double* lat, double* lon) {
  size_t comma = geo.find(',');
  if (comma == std::string_view::npos) return false;
  try {
    *lat = std::stod(std::string(geo.substr(0, comma)));
    *lon = std::stod(std::string(geo.substr(comma + 1)));
  } catch (...) {
    return false;
  }
  return *lat >= -90.0 && *lat <= 90.0 && *lon >= -180.0 && *lon <= 180.0;
}

void ReferenceParseLogMeta(std::string_view meta, std::string* lang,
                           std::string* device) {
  *lang = "unknown";
  *device = "unknown";
  for (const std::string& field : SplitString(meta, ';')) {
    auto kv = SplitString(field, '=');
    if (kv.size() != 2) continue;
    if (kv[0] == "lang") *lang = kv[1];
    if (kv[0] == "dev") *device = kv[1];
  }
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// The string cells of `column` in a generated table, nulls skipped.
std::vector<std::string> StringCells(const Table& table,
                                     const std::string& column) {
  std::vector<std::string> out;
  const size_t c = *table.schema().IndexOf(column);
  for (const Row& row : table.ToRows()) {
    if (!row[c].is_null()) out.push_back(row[c].as_string());
  }
  return out;
}

const Table& GeneratedTweets() {
  static const storage::TablePtr tweets = [] {
    workload::DataGenConfig config;
    config.n_tweets = 20000;
    return workload::GenerateTwitterLog(config);
  }();
  return *tweets;
}

TEST(KernelEquivalenceTest, LexiconScoreBitEqualOnGeneratedTweets) {
  std::vector<std::string> texts = StringCells(GeneratedTweets(), "tweet_text");
  ASSERT_EQ(texts.size(), 20000u);
  // Upper case, punctuation and long runs, which the generator never makes.
  texts.push_back("WINE!Merlot,,corked... wine-wine " + std::string(100, 'w'));
  texts.push_back("  Yacht\tCAVIAR\ncoupon#golf_resort 123 firstclass");
  texts.push_back("");
  std::map<std::string, int> scored;
  for (const std::string& text : texts) {
    for (const std::string lexicon : {"wine", "food", "luxury", "none"}) {
      const double score = LexiconScore(text, lexicon);
      ASSERT_EQ(Bits(score), Bits(ReferenceLexiconScore(text, lexicon)))
          << lexicon << ": " << text;
      scored[lexicon] += score != 0.0;
    }
  }
  // Every real lexicon scores a share of the tweets.
  EXPECT_GT(scored["wine"], 100);
  EXPECT_GT(scored["food"], 100);
  EXPECT_GT(scored["luxury"], 100);
  EXPECT_EQ(scored["none"], 0);
}

TEST(KernelEquivalenceTest, ParseLatLonMatchesStod) {
  std::vector<std::string> inputs = {
      " 1,2",     "+1,2",     "0x1p3,4",   "1e-400,0", "1e400,0",
      "nan,1",    "inf,1",    "1.5x,2",    "1,2,3",    "",
      ",",        "n/a",      "1e-310,0",  "0,1e-310", "-0,0",
      "0,-0.0",   "90,180",   "-90,-180",  "90.0000000001,0",
      "1 ,2",     "1, 2",     "\t1,2",     "1e5,2",    ".5,.5",
      "5.,5.",    "-,1",      "1,",        "1,-",      "INF,1",
      "-nan,1",   "1e,2",     "0x,1",      "1,2 ",     "1,2\n",
      "37.5,-122.2", "2.2250738585072014e-308,1", "1,0x1.8p1"};
  for (const std::string& geo : StringCells(GeneratedTweets(), "geo")) {
    inputs.push_back(geo);
  }
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double lat = (rng.UniformDouble() - 0.5) * 200;
    const double lon = (rng.UniformDouble() - 0.5) * 400;
    char buf[128];
    const char* formats[] = {"%.17g,%.17g", "%.3f,%.6f", "%a,%a", "%g,%e",
                             "%.0f,%.1f"};
    std::snprintf(buf, sizeof(buf), formats[i % 5], lat, lon);
    inputs.push_back(buf);
  }
  for (const std::string& geo : inputs) {
    double lat = -1.25, lon = -2.5, want_lat = -1.25, want_lon = -2.5;
    const bool ok = ParseLatLon(geo, &lat, &lon);
    const bool want = ReferenceParseLatLon(geo, &want_lat, &want_lon);
    ASSERT_EQ(ok, want) << geo;
    ASSERT_EQ(Bits(lat), Bits(want_lat)) << geo;
    ASSERT_EQ(Bits(lon), Bits(want_lon)) << geo;
  }
}

TEST(KernelEquivalenceTest, ParseLogMetaMatchesSplitDefinition) {
  std::vector<std::string> inputs = {
      "",          "lang=en",         "lang=en;dev=ios",
      "lang=en=x;dev=ios", "=;=",     "lang=;dev=",
      ";;lang=fr;;", "lang=en;lang=de", "dev=a;dev=b;lang=x=y",
      "lang",      "lang=en;dev",     "x=1;lang=es;dev=android;lang=pt",
      "==",        "lang==en",        "dev=;",
      "LANG=en",   " lang=en",        "lang=en ;dev=ios;"};
  for (const std::string& meta : StringCells(GeneratedTweets(), "raw_meta")) {
    inputs.push_back(meta);
  }
  for (const std::string& meta : inputs) {
    std::string lang = "stale", device = "stale";
    std::string want_lang, want_device;
    ParseLogMeta(meta, &lang, &device);
    ReferenceParseLogMeta(meta, &want_lang, &want_device);
    ASSERT_EQ(lang, want_lang) << meta;
    ASSERT_EQ(device, want_device) << meta;
  }
}

TEST(KernelEquivalenceTest, JaccardSimilarityBitEqual) {
  workload::DataGenConfig config;
  const storage::TablePtr land = workload::GenerateLandmarks(config);
  std::vector<std::string> menus = StringCells(*land, "menu_text");
  const std::vector<std::string> texts =
      StringCells(GeneratedTweets(), "tweet_text");
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""}, {"", "a"}, {"...", "!!"}, {"A a A", "a"},
      {"x y z", "Z, Y; X"}, {"a b c", "b c d"}};
  for (const std::string& menu : menus) {
    pairs.emplace_back(menu, workload::ReferenceMenu());
  }
  for (size_t i = 0; i + 1 < texts.size(); i += 7) {
    pairs.emplace_back(texts[i], texts[i + 1]);
  }
  for (const auto& [a, b] : pairs) {
    ASSERT_EQ(Bits(JaccardSimilarity(a, b)), Bits(ReferenceJaccard(a, b)))
        << a << " | " << b;
  }
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
  dbl.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const storage::ColumnVector& x = in.column(ctx.In("x"));
    auto y = std::make_shared<storage::ColumnVector>(DataType::kInt64);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      y->Append(Value(x.GetValue(i).as_int64() * 2));
    }
    return RowBatch({y}, in.num_rows());
  };
  udf.local_functions.push_back(std::move(dbl));

  LocalFunction expand;
  expand.name = "chain-lf2-expand";
  expand.kind = LfKind::kMap;
  expand.op_types = kOpAttrs;
  expand.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return Schema({Column{"z", DataType::kInt64}});
  };
  expand.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const storage::ColumnVector& y = in.column(ctx.In("y"));
    auto z = std::make_shared<storage::ColumnVector>(DataType::kInt64);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      z->Append(y.GetValue(i));
      z->Append(Value(y.GetValue(i).as_int64() + 1));
    }
    return RowBatch({z}, 2 * in.num_rows());
  };
  udf.local_functions.push_back(std::move(expand));

  LocalFunction keep_even;
  keep_even.name = "chain-lf3-keep-even";
  keep_even.kind = LfKind::kMap;
  keep_even.op_types = kOpFilter;
  keep_even.out_schema = [](const Schema& in, const Params&) ->
      Result<Schema> { return in; };
  keep_even.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const storage::ColumnVector& z = in.column(ctx.In("z"));
    std::vector<uint32_t> sel;
    for (size_t i = 0; i < in.num_rows(); ++i) {
      if (z.GetValue(i).as_int64() % 2 == 0) {
        sel.push_back(static_cast<uint32_t>(i));
      }
    }
    return in.Gather(sel);
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

// --- Parent-recorded golden of every builtin UDF's output --------------------

namespace opd::udf {
namespace {

using storage::Column;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;

/// 64-bit FNV-1a over the exact cells of `rows`, in order: each cell's type
/// tag, then its bits (doubles bit for bit, strings length-prefixed).
uint64_t RowsFingerprint(const std::vector<Row>& rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const Row& row : rows) {
    const uint64_t arity = row.size();
    mix(&arity, sizeof(arity));
    for (const Value& v : row) {
      const auto tag = static_cast<uint8_t>(v.type());
      mix(&tag, 1);
      switch (v.type()) {
        case DataType::kNull:
          break;
        case DataType::kBool: {
          const uint8_t b = v.as_bool() ? 1 : 0;
          mix(&b, 1);
          break;
        }
        case DataType::kInt64: {
          const int64_t i = v.as_int64();
          mix(&i, sizeof(i));
          break;
        }
        case DataType::kDouble: {
          const uint64_t bits = std::bit_cast<uint64_t>(v.as_double());
          mix(&bits, sizeof(bits));
          break;
        }
        case DataType::kString: {
          const uint64_t n = v.as_string().size();
          mix(&n, sizeof(n));
          mix(v.as_string().data(), n);
          break;
        }
      }
    }
  }
  return h;
}

/// `rows` with each of `edges` inserted before the row at its position,
/// appended row by row (one dictionary per string column). A mis-typed edge
/// cell moves its batch's column to the variant lane.
Table WithEdgeRows(const std::string& name, const Schema& schema,
                   const std::vector<Row>& rows,
                   const std::vector<std::pair<size_t, Row>>& edges) {
  Table t(name, schema);
  size_t e = 0;
  for (size_t r = 0; r <= rows.size(); ++r) {
    for (; e < edges.size() && edges[e].first == r; ++e) {
      EXPECT_TRUE(t.AppendRow(edges[e].second).ok());
    }
    if (r < rows.size()) {
      EXPECT_TRUE(t.AppendRow(rows[r]).ok());
    }
  }
  return t;
}

struct StageGolden {
  uint64_t in_rows, out_rows, in_bytes, out_bytes;
  bool operator==(const StageGolden&) const = default;
};

struct UdfGolden {
  const char* udf;
  uint64_t out_rows;
  uint64_t fingerprint;
  std::vector<StageGolden> stages;
};

// Recorded by the row-at-a-time map path, before map local functions ran
// over column batches; a change of representation must not move it.
const UdfGolden kUdfGoldens[] = {
    {"UDF_CLASSIFY_WINE_SCORE", 32, 3405543361549004828ULL,
     {{2509, 2509, 488438, 40139}, {2509, 32, 40139, 514}}},
    {"UDF_CLASSIFY_FOOD_SCORE", 35, 12140261482807153103ULL,
     {{2509, 2509, 488438, 40139}, {2509, 35, 40139, 562}}},
    {"UDAF_CLASSIFY_AFFLUENT", 15, 6492983133303193705ULL,
     {{2509, 2509, 488438, 40139}, {2509, 15, 40139, 242}}},
    {"UDF_FRIENDSHIP_STRENGTH", 463, 13324496259501671220ULL,
     {{2509, 783, 488438, 12528}, {783, 463, 12528, 11112}}},
    {"UDF_NETWORK_INFLUENCE", 151, 6342296638779606800ULL,
     {{466, 932, 11156, 14877}, {932, 151, 14877, 2409}}},
    {"UDF_EXTRACT_LATLON", 1380, 5639283676160504749ULL,
     {{2509, 1380, 488438, 302458}}},
    {"UDF_GEO_TILE", 1382, 1068207523485760841ULL,
     {{1382, 1382, 302498, 313554}}},
    {"UDF_TOKENIZE", 20582, 18186357583008772418ULL,
     {{2509, 20582, 488438, 360769}}},
    {"UDF_WORD_COUNT", 70, 4352973506102195475ULL,
     {{20584, 20584, 360787, 360782}, {20584, 70, 360782, 1246}}},
    {"UDF_PARSE_LOG", 2509, 14400634240482028576ULL,
     {{2509, 2509, 488438, 526112}}},
    {"UDF_HASHTAG_TRENDS", 3, 14085090912002339228ULL,
     {{2509, 14, 488438, 248}, {14, 4, 248, 72}, {4, 3, 72, 79}}},
    {"UDF_MENU_SIMILARITY", 175, 13708228936475786120ULL,
     {{302, 175, 30153, 22007}}},
};

class UdfGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::DataGenConfig config;
    config.n_users = 150;
    config.n_tweets = 2500;
    config.n_locations = 300;
    twtr_ = new workload::DataGenConfig(config);
  }
  static void TearDownTestSuite() {
    delete twtr_;
    twtr_ = nullptr;
  }

  // TWTR plus edge rows: all nulls; a string user_id (the variant lane)
  // with no mention, geo or hashtag; a double ts and an int64 payload
  // (variant lanes in pass-through columns) on an otherwise valid row; and
  // hashtag tweets from six users (the generator writes none).
  static Table Tweets() {
    const storage::TablePtr base = workload::GenerateTwitterLog(*twtr_);
    Row nulls(base->schema().num_columns());
    Row string_uid = nulls;
    string_uid[1] = Value("u-edge");
    string_uid[2] = Value("wine tasty yacht and some words");
    Row mistyped{Value(int64_t{-1}), Value(int64_t{7}),
                 Value("#Edge_Tag wine merlot #edge_tag caviar"),
                 Value(int64_t{9}), Value("12.5,45.25"),
                 Value("lang=xx;dev=yy;bad=1=2"), Value(1.5),
                 Value(int64_t{0}), Value(int64_t{0}), Value(),
                 Value(int64_t{42})};
    std::vector<std::pair<size_t, Row>> edges = {
        {100, nulls}, {1030, string_uid}, {1999, mistyped}};
    for (int64_t u = 1; u <= 6; ++u) {
      Row tagged = nulls;
      tagged[1] = Value(u);
      tagged[2] = Value(u % 3 == 0 ? "#Wine and #food tonight"
                                   : "more #wine_bar #wine");
      edges.emplace_back(2000 + 40 * static_cast<size_t>(u), tagged);
    }
    return WithEdgeRows("TWTR", base->schema(), base->ToRows(), edges);
  }

  // Runs `udf` serially and split into many tasks on a pool; both runs must
  // agree, and the serial run is checked against the golden.
  void Check(const UdfDefinition& udf, const Table& input,
             const Params& params, Table* out = nullptr) {
    SCOPED_TRACE(udf.name);
    ThreadPool pool(4);
    exec::UdfExecOptions split;
    split.pool = &pool;
    split.block_size_bytes = 16 * 1024;
    std::vector<Row> first_rows;
    std::vector<StageGolden> first_stages;
    for (const exec::UdfExecOptions& opts : {exec::UdfExecOptions{}, split}) {
      Table result;
      std::vector<exec::LfStageRun> runs;
      ASSERT_TRUE(
          exec::RunLocalFunctions(udf, input, params, &result, &runs, opts)
              .ok());
      std::vector<StageGolden> stages;
      for (const exec::LfStageRun& r : runs) {
        stages.push_back({r.in_rows, r.out_rows, r.in_bytes, r.out_bytes});
      }
      const std::vector<Row> rows = result.ToRows();
      if (opts.pool == nullptr) {
        first_rows = rows;
        first_stages = stages;
        if (out != nullptr) *out = result;
      } else {
        EXPECT_EQ(rows, first_rows);
        EXPECT_EQ(stages, first_stages);
      }
    }
    const UdfGolden* golden = nullptr;
    for (const UdfGolden& g : kUdfGoldens) {
      if (udf.name == g.udf) golden = &g;
    }
    std::string got = "    {\"" + udf.name + "\", " +
                      std::to_string(first_rows.size()) + ", " +
                      std::to_string(RowsFingerprint(first_rows)) + "ULL, {";
    for (const StageGolden& s : first_stages) {
      got += "{" + std::to_string(s.in_rows) + ", " +
             std::to_string(s.out_rows) + ", " + std::to_string(s.in_bytes) +
             ", " + std::to_string(s.out_bytes) + "}, ";
    }
    got += "}},";
    ASSERT_NE(golden, nullptr) << "no golden; got:\n" << got;
    EXPECT_EQ(first_rows.size(), golden->out_rows) << got;
    EXPECT_EQ(RowsFingerprint(first_rows), golden->fingerprint) << got;
    EXPECT_EQ(first_stages, golden->stages) << got;
  }

  static workload::DataGenConfig* twtr_;
};

workload::DataGenConfig* UdfGoldenTest::twtr_ = nullptr;

/// The exact state of a column: its lane bytes, validity words and
/// dictionary (by identity and contents).
std::string ColumnBits(const storage::ColumnVector& col) {
  std::string bits = std::to_string(col.is_native()) + "/" +
                     std::to_string(col.size()) + "/" +
                     std::to_string(col.null_count()) + "/" +
                     std::to_string(reinterpret_cast<uintptr_t>(
                         col.dict().get())) + "/";
  auto raw = [&bits](const void* p, size_t n) {
    bits.append(static_cast<const char*>(p), n);
  };
  const size_t n = col.size();
  raw(col.valid_words(), ((n + 63) / 64) * sizeof(uint64_t));
  if (col.is_native()) {
    switch (col.declared_type()) {
      case DataType::kBool:
        raw(col.bools(), n);
        break;
      case DataType::kInt64:
        raw(col.ints(), n * sizeof(int64_t));
        break;
      case DataType::kDouble:
        raw(col.doubles(), n * sizeof(double));
        break;
      case DataType::kString:
        raw(col.codes(), n * sizeof(uint32_t));
        break;
      default:
        break;
    }
  }
  for (size_t i = 0; i < n; ++i) bits += col.GetValue(i).ToString() + "|";
  if (col.dict() != nullptr) {
    for (const std::string& e : col.dict()->entries) bits += e + "|";
  }
  return bits;
}

std::vector<std::string> TableBits(const Table& t) {
  std::vector<std::string> out;
  for (const storage::RowBatch& b : *t.ToBatches()) {
    for (size_t c = 0; c < b.num_columns(); ++c) {
      out.push_back(ColumnBits(b.column(c)));
    }
  }
  return out;
}

// Map outputs over many split slices: a pass-through string column keeps
// its input's dictionary (shared, never re-interned), each newly built
// string column has one dictionary across all batches, and the input
// table's columns are bit-identical after the job. (No edge rows: a slice
// of a variant-lane column is re-encoded, as any gather of one is.)
TEST_F(UdfGoldenTest, PassThroughKeepsInputDictionariesAndNewColumnsShareOne) {
  const Table tweets = *workload::GenerateTwitterLog(*twtr_);
  const std::vector<std::string> before = TableBits(tweets);
  const Schema& in_schema = tweets.schema();
  ThreadPool pool(4);
  exec::UdfExecOptions split;
  split.pool = &pool;
  // Small splits slice batches (gathered copies); one split per table hands
  // the map functions whole input batches (shared columns).
  std::vector<std::pair<uint64_t, UdfDefinition>> runs;
  for (const uint64_t block : {uint64_t{16 * 1024}, uint64_t{1} << 30}) {
    for (UdfDefinition udf :
         {MakeParseLogUdf(), MakeExtractLatLonUdf(), MakeTokenizeUdf()}) {
      runs.emplace_back(block, std::move(udf));
    }
  }
  for (const auto& [block, udf] : runs) {
    SCOPED_TRACE(udf.name + " block " + std::to_string(block));
    split.block_size_bytes = block;
    Table out;
    ASSERT_TRUE(
        exec::RunLocalFunctions(udf, tweets, {}, &out, nullptr, split).ok());
    ASSERT_GT(out.ToBatches()->size(), 1u);
    for (size_t c = 0; c < out.schema().num_columns(); ++c) {
      if (out.schema().column(c).type != DataType::kString) continue;
      const std::string& name = out.schema().column(c).name;
      std::set<const storage::Dictionary*> input_dicts, output_dicts;
      if (auto in_c = in_schema.IndexOf(name)) {
        for (const storage::RowBatch& b : *tweets.ToBatches()) {
          input_dicts.insert(b.column(*in_c).dict().get());
        }
      }
      for (const storage::RowBatch& b : *out.ToBatches()) {
        if (b.column(c).is_native()) {
          output_dicts.insert(b.column(c).dict().get());
        }
      }
      if (udf.name != "UDF_TOKENIZE" && in_schema.IndexOf(name)) {
        // Pass-through: only the input's own dictionaries.
        for (const storage::Dictionary* d : output_dicts) {
          EXPECT_EQ(input_dicts.count(d), 1u) << name;
        }
      } else {
        EXPECT_EQ(output_dicts.size(), 1u) << name;
        EXPECT_EQ(input_dicts.count(*output_dicts.begin()), 0u) << name;
      }
    }
  }
  EXPECT_EQ(TableBits(tweets), before);
}

TEST_F(UdfGoldenTest, UserScorers) {
  const Table tweets = Tweets();
  Check(MakeClassifyWineScoreUdf(), tweets, {{"threshold", Value(0.2)}});
  Check(MakeClassifyFoodScoreUdf(), tweets, {{"threshold", Value(0.2)}});
  Check(MakeClassifyAffluentUdf(), tweets, {{"min_affluence", Value(0.01)}});
}

TEST_F(UdfGoldenTest, FriendshipThenInfluence) {
  Table pairs;
  Check(MakeFriendshipStrengthUdf(), Tweets(), {{"min_strength", Value(0.0)}},
        &pairs);
  // Edge rows: all nulls, an int64 strength (variant lane), a null user_b.
  const Row nulls(3);
  const Row int_strength{Value(int64_t{1}), Value(int64_t{2}),
                         Value(int64_t{3})};
  const Row null_b{Value(int64_t{5}), Value(), Value(2.0)};
  Check(MakeNetworkInfluenceUdf(),
        WithEdgeRows("pairs", pairs.schema(), pairs.ToRows(),
                     {{0, nulls}, {7, int_strength}, {20, null_b}}),
        {{"min_influence", Value(0.0)}});
}

TEST_F(UdfGoldenTest, LatLonThenGeoTile) {
  Table located;
  Check(MakeExtractLatLonUdf(), Tweets(), {}, &located);
  // Edge rows: all nulls (tile of 0, 0), an int64 lat (variant lane).
  const Row nulls(located.schema().num_columns());
  Row int_lat = nulls;
  int_lat[located.schema().num_columns() - 2] = Value(int64_t{10});
  int_lat[located.schema().num_columns() - 1] = Value(20.5);
  Check(MakeGeoTileUdf(),
        WithEdgeRows("located", located.schema(), located.ToRows(),
                     {{3, nulls}, {500, int_lat}}),
        {{"tile_size", Value(0.5)}});
}

TEST_F(UdfGoldenTest, TokenizeThenWordCount) {
  Table tokens;
  Check(MakeTokenizeUdf(), Tweets(), {}, &tokens);
  // Edge rows: all nulls, an int64 token (variant lane).
  const Row nulls(2);
  const Row int_token{Value(int64_t{1}), Value(int64_t{7})};
  Check(MakeWordCountUdf(),
        WithEdgeRows("tokens", tokens.schema(), tokens.ToRows(),
                     {{10, nulls}, {4000, int_token}}),
        {{"min_count", Value(1.0)}});
}

TEST_F(UdfGoldenTest, ParseLogAndHashtags) {
  const Table tweets = Tweets();
  Check(MakeParseLogUdf(), tweets, {});
  Check(MakeHashtagTrendsUdf(), tweets, {{"min_users", Value(1.0)}});
}

TEST_F(UdfGoldenTest, MenuSimilarity) {
  const storage::TablePtr land = workload::GenerateLandmarks(*twtr_);
  // Edge rows: all nulls, an int64 name (variant lane) on the reference
  // menu itself.
  const Row nulls(land->schema().num_columns());
  Row int_name{Value(int64_t{-1}), Value(int64_t{3}), Value("edge"),
               Value(), Value(workload::ReferenceMenu()), Value(4.5)};
  Check(MakeMenuSimilarityUdf(),
        WithEdgeRows("LAND", land->schema(), land->ToRows(),
                     {{0, nulls}, {150, int_name}}),
        {{"ref_menu", Value(workload::ReferenceMenu())},
         {"min_sim", Value(0.05)}});
}

}  // namespace
}  // namespace opd::udf

// --- UDF stage shapes no builtin has -----------------------------------------

namespace opd::udf {
namespace {

using storage::Column;
using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;
using storage::Row;
using storage::RowBatch;
using storage::Schema;
using storage::Table;
using storage::Value;

Result<Schema> Cols(std::vector<Column> cols) {
  return Schema(std::move(cols));
}

// `in` with `extra` appended as new columns, the input columns shared.
RowBatch WithColumns(const RowBatch& in, std::vector<ColumnVectorPtr> extra) {
  std::vector<ColumnVectorPtr> cols;
  for (size_t c = 0; c < in.num_columns(); ++c) {
    cols.push_back(in.column_ptr(c));
  }
  for (ColumnVectorPtr& c : extra) cols.push_back(std::move(c));
  return RowBatch(std::move(cols), in.num_rows());
}

// reduce {k}: (k, n, total) with `total` summed in group order.
LocalFunction CountByK(const std::string& name) {
  LocalFunction lf;
  lf.name = name;
  lf.kind = LfKind::kReduce;
  lf.op_types = kOpGroup | kOpAttrs;
  lf.group_keys = {"k"};
  lf.out_schema = [](const Schema&, const Params&) {
    return Cols({Column{"k", DataType::kInt64}, Column{"n", DataType::kInt64},
                 Column{"total", DataType::kDouble}});
  };
  lf.reduce_fn = [](const GroupView& group, const LfContext& ctx,
                    storage::BatchBuilder* out) {
    double total = 0;
    for (size_t i = 0; i < group.size(); ++i) {
      total += group.Number(i, ctx.In("v"));
    }
    out->AppendFrom(0, group.column(0, ctx.In("k")), group.row(0));
    out->Append(1, Value(static_cast<int64_t>(group.size())));
    out->Append(2, Value(total));
  };
  return lf;
}

// A leading reduce keyed on variant-lane cells.
UdfDefinition LeadingReduceUdf() {
  UdfDefinition udf;
  udf.name = "SHAPE_LEADING_REDUCE";
  udf.local_functions.push_back(CountByK("count-by-k"));
  return udf;
}

// map -> reduce -> map: the map builds a new string column `w` in every
// batch (one dictionary each, codes in first-seen order, which is not key
// order; null where `k` is null), the reduce is keyed on it, and a final
// map filters and extends the reduce's output.
UdfDefinition MapReduceMapUdf() {
  UdfDefinition udf;
  udf.name = "SHAPE_MAP_REDUCE_MAP";
  LocalFunction tag;
  tag.name = "tag-w";
  tag.kind = LfKind::kMap;
  tag.op_types = kOpAttrs | kOpFilter;
  tag.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"w", DataType::kString}));
    return out;
  };
  tag.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const ColumnVector& k = in.column(ctx.In("k"));
    const ColumnVector& s = in.column(ctx.In("s"));
    const ColumnVector& v = in.column(ctx.In("v"));
    std::vector<uint32_t> sel;
    auto w = std::make_shared<ColumnVector>(DataType::kString);
    for (size_t r = 0; r < in.num_rows(); ++r) {
      if (s.IsNull(r)) continue;
      sel.push_back(static_cast<uint32_t>(r));
      const auto x = static_cast<int64_t>(v.GetValue(r).ToDouble());
      w->Append(k.IsNull(r) ? Value()
                            : Value("w" + std::to_string(7 * x % 9)));
    }
    return WithColumns(in.Gather(sel), {std::move(w)});
  };
  udf.local_functions.push_back(std::move(tag));

  LocalFunction count;
  count.name = "count-by-w";
  count.kind = LfKind::kReduce;
  count.op_types = kOpGroup | kOpAttrs;
  count.group_keys = {"w"};
  count.out_schema = [](const Schema&, const Params&) {
    return Cols({Column{"w", DataType::kString}, Column{"n", DataType::kInt64},
                 Column{"first_k", DataType::kInt64}});
  };
  count.reduce_fn = [](const GroupView& group, const LfContext& ctx,
                       storage::BatchBuilder* out) {
    out->AppendFrom(0, group.column(0, ctx.In("w")), group.row(0));
    out->Append(1, Value(static_cast<int64_t>(group.size())));
    out->AppendFrom(2, group.column(0, ctx.In("k")), group.row(0));
  };
  udf.local_functions.push_back(std::move(count));

  LocalFunction half;
  half.name = "half-n";
  half.kind = LfKind::kMap;
  half.op_types = kOpAttrs | kOpFilter;
  half.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"half", DataType::kDouble}));
    return out;
  };
  half.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const ColumnVector& n = in.column(ctx.In("n"));
    std::vector<uint32_t> sel;
    auto h = std::make_shared<ColumnVector>(DataType::kDouble);
    for (size_t r = 0; r < in.num_rows(); ++r) {
      const int64_t x = n.GetValue(r).as_int64();
      if (x % 3 == 0) continue;
      sel.push_back(static_cast<uint32_t>(r));
      h->Append(Value(static_cast<double>(x) / 2.0));
    }
    return WithColumns(in.Gather(sel), {std::move(h)});
  };
  udf.local_functions.push_back(std::move(half));
  return udf;
}

// reduce -> reduce: the first reduce emits every row of its group with the
// row's rank in it, the second counts per variant-lane `k`.
UdfDefinition ReduceReduceUdf() {
  UdfDefinition udf;
  udf.name = "SHAPE_REDUCE_REDUCE";
  LocalFunction rank;
  rank.name = "rank-by-s";
  rank.kind = LfKind::kReduce;
  rank.op_types = kOpGroup | kOpAttrs;
  rank.group_keys = {"s"};
  rank.out_schema = [](const Schema&, const Params&) {
    return Cols({Column{"k", DataType::kInt64}, Column{"s", DataType::kString},
                 Column{"v", DataType::kDouble},
                 Column{"rank", DataType::kInt64}});
  };
  rank.reduce_fn = [](const GroupView& group, const LfContext& ctx,
                      storage::BatchBuilder* out) {
    for (size_t i = 0; i < group.size(); ++i) {
      out->AppendFrom(0, group.column(i, ctx.In("k")), group.row(i));
      out->AppendFrom(1, group.column(i, ctx.In("s")), group.row(i));
      out->AppendFrom(2, group.column(i, ctx.In("v")), group.row(i));
      out->Append(3, Value(static_cast<int64_t>(i)));
    }
  };
  udf.local_functions.push_back(std::move(rank));
  udf.local_functions.push_back(CountByK("count-ranked-by-k"));
  return udf;
}

// 3000 rows over three AppendRow batches. `k` is int64 except for
// variant-lane cells in the second and third batches (double 1.0 after
// int64 1, double -0.0 and 0.0 next to int64 0, nulls); `s` has nulls.
Table ShapeInput() {
  Table t("SHAPE", Schema({Column{"k", DataType::kInt64},
                           Column{"s", DataType::kString},
                           Column{"v", DataType::kDouble}}));
  for (int64_t i = 0; i < 3000; ++i) {
    Value k(i % 17);
    if (i == 1100 || i == 2500) k = Value(1.0);
    if (i == 1200) k = Value(-0.0);
    if (i == 1201 || i == 2600) k = Value(0.0);
    if (i % 401 == 7) k = Value();
    const Value s = i % 97 == 3 ? Value() : Value("s" + std::to_string(i % 11));
    EXPECT_TRUE(t.AppendRow({k, s, Value(static_cast<double>(i) * 0.25)}).ok());
  }
  return t;
}

std::string CellBits(const Value& v) {
  std::string bits = std::to_string(static_cast<int>(v.type())) + ":";
  if (v.type() == DataType::kDouble) {
    return bits + std::to_string(std::bit_cast<uint64_t>(v.as_double()));
  }
  return bits + v.ToString();
}

std::vector<std::string> RowBits(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) s += CellBits(v) + "|";
    out.push_back(std::move(s));
  }
  return out;
}

uint64_t RowsBytes(const std::vector<Row>& rows) {
  uint64_t bytes = 0;
  for (const Row& r : rows) bytes += storage::RowByteSize(r);
  return bytes;
}

// Runs `udf` serially and on a 4-thread pool with 16 KiB splits at 0, 1, 3
// and 7 reduce tasks; each run's ordered output (cell types and double bits
// included) and per-stage rows/bytes must equal the reference
// interpreter's stage-at-a-time run.
void CheckAgainstReference(const UdfDefinition& udf, const Table& input) {
  SCOPED_TRACE(udf.name);
  const std::vector<Row> in_rows = input.ToRows();
  auto ref = reference::RunUdfStages(udf, input.schema(), in_rows, {});
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(input.ByteSize(), RowsBytes(in_rows));
  ASSERT_GT(ref->back().size(), 1u);

  ThreadPool pool(4);
  std::vector<exec::UdfExecOptions> configs = {exec::UdfExecOptions{}};
  for (int reduce_tasks : {0, 1, 3, 7}) {
    exec::UdfExecOptions opts;
    opts.pool = &pool;
    opts.block_size_bytes = 16 * 1024;
    opts.num_reduce_tasks = reduce_tasks;
    configs.push_back(opts);
  }
  for (const exec::UdfExecOptions& opts : configs) {
    SCOPED_TRACE("pool " + std::to_string(opts.pool != nullptr) +
                 " reduce tasks " + std::to_string(opts.num_reduce_tasks));
    Table out;
    std::vector<exec::LfStageRun> runs;
    ASSERT_TRUE(
        exec::RunLocalFunctions(udf, input, {}, &out, &runs, opts).ok());
    EXPECT_EQ(RowBits(out.ToRows()), RowBits(ref->back()));
    ASSERT_EQ(runs.size(), ref->size());
    for (size_t i = 0; i < runs.size(); ++i) {
      const std::vector<Row>& stage_in = i == 0 ? in_rows : (*ref)[i - 1];
      EXPECT_EQ(runs[i].in_rows, stage_in.size()) << i;
      EXPECT_EQ(runs[i].in_bytes, RowsBytes(stage_in)) << i;
      EXPECT_EQ(runs[i].out_rows, (*ref)[i].size()) << i;
      EXPECT_EQ(runs[i].out_bytes, RowsBytes((*ref)[i])) << i;
    }
  }
}

TEST(UdfShapeTest, InputHasVariantLaneBatches) {
  const Table input = ShapeInput();
  ASSERT_EQ(input.ToBatches()->size(), 3u);
  EXPECT_TRUE(input.ToBatches()->at(0).column(0).is_native());
  EXPECT_FALSE(input.ToBatches()->at(1).column(0).is_native());
  EXPECT_FALSE(input.ToBatches()->at(2).column(0).is_native());
}

TEST(UdfShapeTest, LeadingReduce) {
  CheckAgainstReference(LeadingReduceUdf(), ShapeInput());
}

TEST(UdfShapeTest, MapReduceMapOverPerBatchDictionaries) {
  CheckAgainstReference(MapReduceMapUdf(), ShapeInput());
}

TEST(UdfShapeTest, ReduceThenReduce) {
  CheckAgainstReference(ReduceReduceUdf(), ShapeInput());
}

}  // namespace
}  // namespace opd::udf
