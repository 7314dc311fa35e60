#include "udf/builtin_udfs.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>

#include "common/string_util.h"

namespace opd::udf {

using storage::BatchBuilder;
using storage::Column;
using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;
using storage::RowBatch;
using storage::Schema;
using storage::Value;

namespace {

struct LexiconEntry {
  std::string_view word;
  double weight;
};

constexpr bool ByWord(const LexiconEntry& a, const LexiconEntry& b) {
  return a.word < b.word;
}

/// A lexicon: entries sorted by word, looked up by binary search behind a
/// filter on (first byte, length) that rejects most words in one load.
struct Lexicon {
  std::span<const LexiconEntry> entries;
  /// Bit `len` of `lengths_by_first[c]` is set when an entry of length
  /// `len` (< 64) starts with byte `c`.
  std::array<uint64_t, 256> lengths_by_first{};

  constexpr explicit Lexicon(std::span<const LexiconEntry> sorted)
      : entries(sorted) {
    for (const LexiconEntry& e : sorted) {
      lengths_by_first[static_cast<unsigned char>(e.word[0])] |=
          uint64_t{1} << e.word.size();
    }
  }

  /// The entry for `word` (non-empty), or null.
  const LexiconEntry* Find(std::string_view word) const {
    if (word.size() >= 64 ||
        ((lengths_by_first[static_cast<unsigned char>(word[0])] >>
          word.size()) & 1) == 0) {
      return nullptr;
    }
    auto it = std::lower_bound(
        entries.begin(), entries.end(), word,
        [](const LexiconEntry& e, std::string_view w) { return e.word < w; });
    return it != entries.end() && it->word == word ? &*it : nullptr;
  }
};

constexpr LexiconEntry kWineEntries[] = {
    {"cabernet", 0.35}, {"chardonnay", 0.30}, {"corked", -0.20},
    {"merlot", 0.35},   {"pinot", 0.30},      {"riesling", 0.30},
    {"rose", 0.15},     {"sommelier", 0.40},  {"tannin", 0.20},
    {"vinegar", -0.25}, {"vineyard", 0.25},   {"wine", 0.30},
};
constexpr LexiconEntry kFoodEntries[] = {
    {"bland", -0.30},    {"brunch", 0.20},  {"burnt", -0.25},
    {"delicious", 0.35}, {"dessert", 0.25}, {"foodie", 0.40},
    {"pasta", 0.20},     {"ramen", 0.25},   {"savory", 0.25},
    {"stale", -0.35},    {"tasty", 0.30},   {"yummy", 0.30},
};
constexpr LexiconEntry kLuxuryEntries[] = {
    {"caviar", 0.40},  {"champagne", 0.35}, {"chauffeur", 0.35},
    {"coupon", -0.15}, {"designer", 0.25},  {"firstclass", 0.35},
    {"golf", 0.15},    {"penthouse", 0.40}, {"resort", 0.20},
    {"thrift", -0.20}, {"yacht", 0.45},
};
static_assert(std::is_sorted(std::begin(kWineEntries), std::end(kWineEntries),
                             ByWord));
static_assert(std::is_sorted(std::begin(kFoodEntries), std::end(kFoodEntries),
                             ByWord));
static_assert(std::is_sorted(std::begin(kLuxuryEntries),
                             std::end(kLuxuryEntries), ByWord));

constexpr Lexicon kWine(kWineEntries);
constexpr Lexicon kFood(kFoodEntries);
constexpr Lexicon kLuxury(kLuxuryEntries);
constexpr Lexicon kNoLexicon({});

/// The lexicon named "wine", "food" or "luxury"; an empty one for any
/// other name.
const Lexicon& FindLexicon(std::string_view name) {
  if (name == "wine") return kWine;
  if (name == "food") return kFood;
  if (name == "luxury") return kLuxury;
  return kNoLexicon;
}

/// Sums the weights of `text`'s words found in `lex`, in word order.
double ScoreWords(std::string_view text, const Lexicon& lex) {
  double score = 0;
  ForEachWord(text, [&](std::string_view word) {
    if (const LexiconEntry* e = lex.Find(word)) score += e->weight;
  });
  return score;
}

/// The distinct words of `text`, sorted.
std::vector<std::string> WordSet(std::string_view text) {
  std::vector<std::string> words = TokenizeWords(text);
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

/// Parses one coordinate exactly as `std::stod` would. `from_chars` is
/// taken only when it consumes the whole field and yields a normal number,
/// where both round correctly and agree; every other field (leading spaces,
/// '+', hex floats, trailing junk, zeros, denormals, out-of-range values,
/// nan, inf) goes through `stod`. `*out` is written only on success.
bool ParseCoordinate(std::string_view field, double* out) {
  const char* end = field.data() + field.size();
  double v = 0;
  auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec == std::errc() && ptr == end && std::isnormal(v)) {
    *out = v;
    return true;
  }
  try {
    *out = std::stod(std::string(field));
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

double LexiconScore(std::string_view text, const std::string& lexicon) {
  return ScoreWords(text, FindLexicon(lexicon));
}

double JaccardSimilarity(std::string_view a, std::string_view b) {
  const std::vector<std::string> sa = WordSet(a);
  const std::vector<std::string> sb = WordSet(b);
  if (sa.empty() && sb.empty()) return 0.0;
  size_t inter = 0;
  for (size_t i = 0, j = 0; i < sa.size() && j < sb.size();) {
    if (sa[i] < sb[j]) {
      ++i;
    } else if (sb[j] < sa[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

int64_t GeoTileId(double lat, double lon, double tile_size) {
  if (tile_size <= 0) tile_size = 1.0;
  int64_t r = static_cast<int64_t>(std::floor((lat + 90.0) / tile_size));
  int64_t c = static_cast<int64_t>(std::floor((lon + 180.0) / tile_size));
  return r * 1000000 + c;
}

bool ParseLatLon(std::string_view geo, double* lat, double* lon) {
  size_t comma = geo.find(',');
  if (comma == std::string_view::npos) return false;
  if (!ParseCoordinate(geo.substr(0, comma), lat) ||
      !ParseCoordinate(geo.substr(comma + 1), lon)) {
    return false;
  }
  return *lat >= -90.0 && *lat <= 90.0 && *lon >= -180.0 && *lon <= 180.0;
}

void ParseLogMeta(std::string_view meta, std::string* lang,
                  std::string* device) {
  *lang = "unknown";
  *device = "unknown";
  // ';'-separated fields, empty ones included; a field counts only with
  // exactly one '=', and a later field overrides an earlier one.
  size_t start = 0;
  while (true) {
    const size_t end = std::min(meta.find(';', start), meta.size());
    const std::string_view field = meta.substr(start, end - start);
    const size_t eq = field.find('=');
    if (eq != std::string_view::npos &&
        field.find('=', eq + 1) == std::string_view::npos) {
      const std::string_view key = field.substr(0, eq);
      const std::string_view value = field.substr(eq + 1);
      if (key == "lang") lang->assign(value);
      if (key == "dev") device->assign(value);
    }
    if (end == meta.size()) return;
    start = end + 1;
  }
}

namespace {

// --- Column helpers for the batch map functions ------------------------------

/// A new, empty column of `type` with room for `n` cells.
ColumnVectorPtr NewColumn(DataType type, size_t n) {
  auto col = std::make_shared<ColumnVector>(type);
  col->Reserve(n);
  return col;
}

/// `kept`'s columns followed by `added`, each `kept.num_rows()` cells long.
RowBatch Extend(const RowBatch& kept,
                std::initializer_list<ColumnVectorPtr> added) {
  std::vector<ColumnVectorPtr> cols;
  cols.reserve(kept.num_columns() + added.size());
  for (size_t c = 0; c < kept.num_columns(); ++c) {
    cols.push_back(kept.column_ptr(c));
  }
  cols.insert(cols.end(), added);
  return RowBatch(std::move(cols), kept.num_rows());
}

/// Input column `c` as an output column declared `type`: the input column
/// itself when its declared type is `type`, else a cell-by-cell copy.
ColumnVectorPtr PassThrough(const RowBatch& in, size_t c, DataType type) {
  const ColumnVectorPtr& col = in.column_ptr(c);
  if (col->declared_type() == type) return col;
  ColumnVectorPtr copy = NewColumn(type, in.num_rows());
  for (size_t i = 0; i < in.num_rows(); ++i) copy->Append(col->GetValue(i));
  return copy;
}

/// Non-null cell `i` as `Value::as_string` reads it (throws on another
/// type); `boxed` holds a variant-lane cell.
const std::string& StringAt(const ColumnVector& col, size_t i, Value* boxed) {
  if (col.is_native() && col.declared_type() == DataType::kString) {
    return col.string_at(i);
  }
  *boxed = col.GetValue(i);
  return boxed->as_string();
}

Schema TwoColSchema(const std::string& a, DataType ta, const std::string& b,
                    DataType tb) {
  return Schema({Column{a, ta}, Column{b, tb}});
}

/// The model filter `attr > <param_key>`, `default_literal` when unset.
UdfFilterSpec GtParamFilter(std::string attr, std::string param_key,
                            double default_literal) {
  UdfFilterSpec f;
  f.attr = std::move(attr);
  f.op = afk::CmpOp::kGt;
  f.param_key = std::move(param_key);
  f.default_literal = default_literal;
  return f;
}

// A per-user "score tweets then aggregate then threshold" UDF: the shape of
// the paper's UDF_FOODIES (Figure 3). `mean` switches sum vs. mean reduce.
UdfDefinition MakeUserScoreUdf(const std::string& udf_name,
                               const std::string& lexicon,
                               const std::string& out_attr,
                               const std::string& threshold_key,
                               double default_threshold, bool mean) {
  UdfDefinition udf;
  udf.name = udf_name;
  udf.model.consumed = {"user_id", "tweet_text"};
  udf.model.kept = {"user_id"};
  udf.model.outputs = {
      {out_attr, DataType::kDouble, {"user_id", "tweet_text"}, {}}};
  udf.model.filters = {
      GtParamFilter(out_attr, threshold_key, default_threshold)};
  udf.model.rekey = std::vector<std::string>{"user_id"};
  udf.model.rekey_groups = true;
  udf.model.expansion_hint = 0.05;

  LocalFunction lf1;
  lf1.name = udf_name + "-lf1-score";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    auto uid = in.IndexOf("user_id");
    auto txt = in.IndexOf("tweet_text");
    if (!uid || !txt) {
      return Status::InvalidArgument("scorer needs user_id, tweet_text");
    }
    return TwoColSchema("user_id", DataType::kInt64, "_score",
                        DataType::kDouble);
  };
  lf1.map_fn = [lex = &FindLexicon(lexicon)](const RowBatch& in,
                                             const LfContext& ctx) {
    const ColumnVector& text = in.column(ctx.In("tweet_text"));
    ColumnVectorPtr score = NewColumn(DataType::kDouble, in.num_rows());
    Value boxed;
    for (size_t i = 0; i < in.num_rows(); ++i) {
      score->Append(Value(
          text.IsNull(i) ? 0.0 : ScoreWords(StringAt(text, i, &boxed), *lex)));
    }
    return RowBatch(
        {PassThrough(in, ctx.In("user_id"), DataType::kInt64), score},
        in.num_rows());
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = udf_name + "-lf2-aggregate";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs | kOpFilter;
  lf2.group_keys = {"user_id"};
  lf2.out_schema = [out_attr](const Schema&, const Params&) -> Result<Schema> {
    return TwoColSchema("user_id", DataType::kInt64, out_attr,
                        DataType::kDouble);
  };
  lf2.reduce_fn = [threshold_key, default_threshold, mean](
                      const GroupView& group, const LfContext& ctx,
                      BatchBuilder* out) {
    const size_t score_c = ctx.In("_score");
    double sum = 0;
    for (size_t i = 0; i < group.size(); ++i) sum += group.Number(i, score_c);
    double score = mean ? sum / static_cast<double>(group.size()) : sum;
    double threshold =
        ParamDouble(*ctx.params, threshold_key, default_threshold);
    if (score > threshold) {
      out->AppendFrom(0, group.column(0, ctx.In("user_id")), group.row(0));
      out->Append(1, Value(score));
    }
  };
  udf.local_functions.push_back(std::move(lf2));
  return udf;
}

}  // namespace

UdfDefinition MakeClassifyWineScoreUdf() {
  return MakeUserScoreUdf("UDF_CLASSIFY_WINE_SCORE", "wine", "wine_score",
                          "threshold", 0.5, /*mean=*/false);
}

UdfDefinition MakeClassifyFoodScoreUdf() {
  return MakeUserScoreUdf("UDF_CLASSIFY_FOOD_SCORE", "food", "sent_sum",
                          "threshold", 0.5, /*mean=*/false);
}

UdfDefinition MakeClassifyAffluentUdf() {
  return MakeUserScoreUdf("UDAF_CLASSIFY_AFFLUENT", "luxury", "affluence",
                          "min_affluence", 0.05, /*mean=*/true);
}

UdfDefinition MakeFriendshipStrengthUdf() {
  UdfDefinition udf;
  udf.name = "UDF_FRIENDSHIP_STRENGTH";
  udf.model.consumed = {"user_id", "mention_user"};
  udf.model.kept = {};
  udf.model.outputs = {
      {"user_a", DataType::kInt64, {"user_id", "mention_user"}, {}},
      {"user_b", DataType::kInt64, {"user_id", "mention_user"}, {}},
      {"strength", DataType::kDouble, {"user_id", "mention_user"}, {}},
  };
  udf.model.filters = {GtParamFilter("strength", "min_strength", 1.0)};
  udf.model.rekey = std::vector<std::string>{"user_a", "user_b"};
  udf.model.expansion_hint = 0.02;

  LocalFunction lf1;
  lf1.name = "friendship-lf1-pairs";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs | kOpFilter;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("user_id") || !in.Has("mention_user")) {
      return Status::InvalidArgument(
          "friendship needs user_id and mention_user");
    }
    return Schema({Column{"user_a", DataType::kInt64},
                   Column{"user_b", DataType::kInt64}});
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const ColumnVector& u = in.column(ctx.In("user_id"));
    const ColumnVector& m = in.column(ctx.In("mention_user"));
    ColumnVectorPtr lo = NewColumn(DataType::kInt64, 0);
    ColumnVectorPtr hi = NewColumn(DataType::kInt64, 0);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      if (u.IsNull(i) || m.IsNull(i)) continue;
      const int64_t a = u.Int64At(i), b = m.Int64At(i);
      if (b < 0 || a == b) continue;  // no mention / self mention
      lo->Append(Value(std::min(a, b)));
      hi->Append(Value(std::max(a, b)));
    }
    const size_t n = lo->size();
    return RowBatch({std::move(lo), std::move(hi)}, n);
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = "friendship-lf2-strength";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs | kOpFilter;
  lf2.group_keys = {"user_a", "user_b"};
  lf2.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return Schema({Column{"user_a", DataType::kInt64},
                   Column{"user_b", DataType::kInt64},
                   Column{"strength", DataType::kDouble}});
  };
  lf2.reduce_fn = [](const GroupView& group, const LfContext& ctx,
                     BatchBuilder* out) {
    double strength = static_cast<double>(group.size());
    double min_strength = ParamDouble(*ctx.params, "min_strength", 1.0);
    if (strength > min_strength) {
      out->AppendFrom(0, group.column(0, ctx.In("user_a")), group.row(0));
      out->AppendFrom(1, group.column(0, ctx.In("user_b")), group.row(0));
      out->Append(2, Value(strength));
    }
  };
  udf.local_functions.push_back(std::move(lf2));
  return udf;
}

UdfDefinition MakeNetworkInfluenceUdf() {
  UdfDefinition udf;
  udf.name = "UDF_NETWORK_INFLUENCE";
  udf.model.consumed = {"user_a", "user_b", "strength"};
  udf.model.kept = {};
  udf.model.outputs = {
      {"inf_user", DataType::kInt64, {"user_a", "user_b"}, {}},
      {"influence", DataType::kDouble, {"user_a", "user_b", "strength"}, {}},
  };
  udf.model.filters = {GtParamFilter("influence", "min_influence", 0.0)};
  udf.model.rekey = std::vector<std::string>{"inf_user"};
  udf.model.expansion_hint = 0.8;

  LocalFunction lf1;
  lf1.name = "influence-lf1-emit";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("user_a") || !in.Has("user_b") || !in.Has("strength")) {
      return Status::InvalidArgument(
          "influence needs user_a, user_b, strength");
    }
    return TwoColSchema("inf_user", DataType::kInt64, "_s", DataType::kDouble);
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const ColumnVector& a = in.column(ctx.In("user_a"));
    const ColumnVector& b = in.column(ctx.In("user_b"));
    const ColumnVector& s = in.column(ctx.In("strength"));
    ColumnVectorPtr user = NewColumn(DataType::kInt64, 2 * in.num_rows());
    ColumnVectorPtr strength = NewColumn(DataType::kDouble, 2 * in.num_rows());
    for (size_t i = 0; i < in.num_rows(); ++i) {
      user->AppendFrom(a, i, nullptr);
      strength->AppendFrom(s, i, nullptr);
      user->AppendFrom(b, i, nullptr);
      strength->AppendFrom(s, i, nullptr);
    }
    return RowBatch({std::move(user), std::move(strength)},
                    2 * in.num_rows());
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = "influence-lf2-sum";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs | kOpFilter;
  lf2.group_keys = {"inf_user"};
  lf2.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return TwoColSchema("inf_user", DataType::kInt64, "influence",
                        DataType::kDouble);
  };
  lf2.reduce_fn = [](const GroupView& group, const LfContext& ctx,
                     BatchBuilder* out) {
    const size_t s_c = ctx.In("_s");
    double sum = 0;
    for (size_t i = 0; i < group.size(); ++i) sum += group.Number(i, s_c);
    if (sum > ParamDouble(*ctx.params, "min_influence", 0.0)) {
      out->AppendFrom(0, group.column(0, ctx.In("inf_user")), group.row(0));
      out->Append(1, Value(sum));
    }
  };
  udf.local_functions.push_back(std::move(lf2));
  return udf;
}

UdfDefinition MakeExtractLatLonUdf() {
  UdfDefinition udf;
  udf.name = "UDF_EXTRACT_LATLON";
  udf.model.consumed = {"geo"};
  udf.model.kept = {"*"};
  udf.model.outputs = {
      {"lat", DataType::kDouble, {"geo"}, {}},
      {"lon", DataType::kDouble, {"geo"}, {}},
  };
  UdfFilterSpec valid;
  valid.attr = "geo";
  valid.opaque = true;
  valid.opaque_fn = "valid_geo";
  udf.model.filters = {valid};
  udf.model.expansion_hint = 0.6;

  LocalFunction lf1;
  lf1.name = "latlon-lf1-parse";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs | kOpFilter;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("geo")) return Status::InvalidArgument("needs geo");
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"lat", DataType::kDouble}));
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"lon", DataType::kDouble}));
    return out;
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const ColumnVector& geo = in.column(ctx.In("geo"));
    std::vector<uint32_t> sel;
    ColumnVectorPtr lat = NewColumn(DataType::kDouble, in.num_rows());
    ColumnVectorPtr lon = NewColumn(DataType::kDouble, in.num_rows());
    Value boxed;
    for (size_t i = 0; i < in.num_rows(); ++i) {
      double la, lo;
      if (geo.IsNull(i) || !ParseLatLon(StringAt(geo, i, &boxed), &la, &lo)) {
        continue;
      }
      sel.push_back(static_cast<uint32_t>(i));
      lat->Append(Value(la));
      lon->Append(Value(lo));
    }
    return Extend(in.Gather(sel), {std::move(lat), std::move(lon)});
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeGeoTileUdf() {
  UdfDefinition udf;
  udf.name = "UDF_GEO_TILE";
  udf.model.consumed = {"lat", "lon"};
  udf.model.kept = {"*"};
  udf.model.outputs = {
      {"tile_id", DataType::kInt64, {"lat", "lon"}, {"tile_size"}}};
  udf.model.expansion_hint = 1.0;

  LocalFunction lf1;
  lf1.name = "geotile-lf1";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("lat") || !in.Has("lon")) {
      return Status::InvalidArgument("needs lat, lon");
    }
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"tile_id", DataType::kInt64}));
    return out;
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const double ts = ParamDouble(*ctx.params, "tile_size", 1.0);
    const ColumnVector& lat = in.column(ctx.In("lat"));
    const ColumnVector& lon = in.column(ctx.In("lon"));
    ColumnVectorPtr tile = NewColumn(DataType::kInt64, in.num_rows());
    for (size_t i = 0; i < in.num_rows(); ++i) {
      tile->Append(Value(GeoTileId(lat.NumberAt(i), lon.NumberAt(i), ts)));
    }
    return Extend(in, {std::move(tile)});
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeTokenizeUdf() {
  UdfDefinition udf;
  udf.name = "UDF_TOKENIZE";
  udf.model.consumed = {"user_id", "tweet_text"};
  udf.model.kept = {"user_id"};
  udf.model.outputs = {{"token", DataType::kString, {"tweet_text"}, {}}};
  // One-to-many explosion: the output rows are no longer keyed by the
  // input's key (each tweet yields many token rows), so the model must
  // clear K. Without this, COUNT-per-user over tokens would be
  // indistinguishable from COUNT-per-user over tweets.
  udf.model.rekey = std::vector<std::string>{};
  udf.model.rekey_groups = false;
  udf.model.expansion_hint = 8.0;

  LocalFunction lf1;
  lf1.name = "tokenize-lf1";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("user_id") || !in.Has("tweet_text")) {
      return Status::InvalidArgument("needs user_id, tweet_text");
    }
    return TwoColSchema("user_id", DataType::kInt64, "token",
                        DataType::kString);
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const ColumnVector& text = in.column(ctx.In("tweet_text"));
    const ColumnVector& uid = in.column(ctx.In("user_id"));
    ColumnVectorPtr user = NewColumn(DataType::kInt64, 0);
    ColumnVectorPtr token = NewColumn(DataType::kString, 0);
    Value boxed;
    for (size_t i = 0; i < in.num_rows(); ++i) {
      if (text.IsNull(i)) continue;
      ForEachWord(StringAt(text, i, &boxed), [&](std::string_view tok) {
        user->AppendFrom(uid, i, nullptr);
        token->Append(Value(std::string(tok)));
      });
    }
    const size_t n = user->size();
    return RowBatch({std::move(user), std::move(token)}, n);
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeWordCountUdf() {
  UdfDefinition udf;
  udf.name = "UDF_WORD_COUNT";
  udf.model.consumed = {"token"};
  udf.model.kept = {};
  udf.model.outputs = {
      {"word", DataType::kString, {"token"}, {}},
      {"wcount", DataType::kInt64, {"token"}, {}},
  };
  udf.model.filters = {GtParamFilter("wcount", "min_count", 0.0)};
  udf.model.rekey = std::vector<std::string>{"word"};
  udf.model.expansion_hint = 0.01;

  LocalFunction lf1;
  lf1.name = "wordcount-lf1-emit";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("token")) return Status::InvalidArgument("needs token");
    return TwoColSchema("word", DataType::kString, "_one", DataType::kInt64);
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    ColumnVectorPtr one = NewColumn(DataType::kInt64, in.num_rows());
    for (size_t i = 0; i < in.num_rows(); ++i) one->Append(Value(int64_t{1}));
    return RowBatch(
        {PassThrough(in, ctx.In("token"), DataType::kString), std::move(one)},
        in.num_rows());
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = "wordcount-lf2-count";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs | kOpFilter;
  lf2.group_keys = {"word"};
  lf2.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return TwoColSchema("word", DataType::kString, "wcount", DataType::kInt64);
  };
  lf2.reduce_fn = [](const GroupView& group, const LfContext& ctx,
                     BatchBuilder* out) {
    auto count = static_cast<int64_t>(group.size());
    if (static_cast<double>(count) >
        ParamDouble(*ctx.params, "min_count", 0.0)) {
      out->AppendFrom(0, group.column(0, ctx.In("word")), group.row(0));
      out->Append(1, Value(count));
    }
  };
  udf.local_functions.push_back(std::move(lf2));
  return udf;
}

UdfDefinition MakeMenuSimilarityUdf() {
  UdfDefinition udf;
  udf.name = "UDF_MENU_SIMILARITY";
  udf.model.consumed = {"menu_text"};
  udf.model.kept = {"*"};
  udf.model.outputs = {
      {"menu_sim", DataType::kDouble, {"menu_text"}, {"ref_menu"}}};
  udf.model.filters = {GtParamFilter("menu_sim", "min_sim", 0.1)};
  udf.model.expansion_hint = 0.3;

  LocalFunction lf1;
  lf1.name = "menusim-lf1";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs | kOpFilter;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("menu_text")) {
      return Status::InvalidArgument("needs menu_text");
    }
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"menu_sim", DataType::kDouble}));
    return out;
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const std::string ref = ParamString(*ctx.params, "ref_menu", "");
    const double min_sim = ParamDouble(*ctx.params, "min_sim", 0.1);
    const ColumnVector& menu = in.column(ctx.In("menu_text"));
    std::vector<uint32_t> sel;
    ColumnVectorPtr sim_col = NewColumn(DataType::kDouble, in.num_rows());
    Value boxed;
    for (size_t i = 0; i < in.num_rows(); ++i) {
      const double sim =
          menu.IsNull(i) ? 0.0
                         : JaccardSimilarity(StringAt(menu, i, &boxed), ref);
      if (sim > min_sim) {
        sel.push_back(static_cast<uint32_t>(i));
        sim_col->Append(Value(sim));
      }
    }
    return Extend(in.Gather(sel), {std::move(sim_col)});
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeParseLogUdf() {
  UdfDefinition udf;
  udf.name = "UDF_PARSE_LOG";
  udf.model.consumed = {"raw_meta"};
  udf.model.kept = {"*"};
  udf.model.outputs = {
      {"lang", DataType::kString, {"raw_meta"}, {}},
      {"device", DataType::kString, {"raw_meta"}, {}},
  };
  udf.model.expansion_hint = 1.0;

  LocalFunction lf1;
  lf1.name = "parselog-lf1";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("raw_meta")) return Status::InvalidArgument("needs raw_meta");
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"lang", DataType::kString}));
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"device", DataType::kString}));
    return out;
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const ColumnVector& meta = in.column(ctx.In("raw_meta"));
    ColumnVectorPtr lang_col = NewColumn(DataType::kString, in.num_rows());
    ColumnVectorPtr device_col = NewColumn(DataType::kString, in.num_rows());
    std::string lang, device;
    Value boxed;
    for (size_t i = 0; i < in.num_rows(); ++i) {
      ParseLogMeta(meta.IsNull(i) ? std::string_view()
                                  : std::string_view(StringAt(meta, i, &boxed)),
                   &lang, &device);
      lang_col->Append(Value(std::move(lang)));
      device_col->Append(Value(std::move(device)));
    }
    return Extend(in, {std::move(lang_col), std::move(device_col)});
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeHashtagTrendsUdf() {
  UdfDefinition udf;
  udf.name = "UDF_HASHTAG_TRENDS";
  udf.model.consumed = {"user_id", "tweet_text"};
  udf.model.kept = {};
  udf.model.outputs = {
      {"tag", DataType::kString, {"tweet_text"}, {}},
      {"tag_users", DataType::kInt64, {"user_id", "tweet_text"}, {}},
      {"trend_tier", DataType::kString, {"user_id", "tweet_text"},
       {"min_users"}},
  };
  udf.model.filters = {GtParamFilter("tag_users", "min_users", 2.0)};
  udf.model.rekey = std::vector<std::string>{"tag"};
  udf.model.expansion_hint = 0.01;

  LocalFunction lf1;
  lf1.name = "hashtags-lf1-extract";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs | kOpFilter;
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("user_id") || !in.Has("tweet_text")) {
      return Status::InvalidArgument("needs user_id, tweet_text");
    }
    return TwoColSchema("tag", DataType::kString, "_user", DataType::kInt64);
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const ColumnVector& text = in.column(ctx.In("tweet_text"));
    const ColumnVector& uid = in.column(ctx.In("user_id"));
    ColumnVectorPtr tag = NewColumn(DataType::kString, 0);
    ColumnVectorPtr user = NewColumn(DataType::kInt64, 0);
    Value boxed;
    for (size_t r = 0; r < in.num_rows(); ++r) {
      if (text.IsNull(r)) continue;
      const std::string& s = StringAt(text, r, &boxed);
      size_t i = 0;
      while ((i = s.find('#', i)) != std::string::npos) {
        size_t j = i + 1;
        while (j < s.size() && (std::isalnum(static_cast<unsigned char>(s[j])) ||
                                s[j] == '_')) {
          ++j;
        }
        if (j > i + 1) {
          tag->Append(
              Value(ToLowerAscii(std::string_view(s).substr(i + 1, j - i - 1))));
          user->AppendFrom(uid, r, nullptr);
        }
        i = j;
      }
    }
    const size_t n = tag->size();
    return RowBatch({std::move(tag), std::move(user)}, n);
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = "hashtags-lf2-distinct-users";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs;
  lf2.group_keys = {"tag"};
  lf2.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return TwoColSchema("tag", DataType::kString, "tag_users",
                        DataType::kInt64);
  };
  lf2.reduce_fn = [](const GroupView& group, const LfContext& ctx,
                     BatchBuilder* out) {
    const size_t user_c = ctx.In("_user");
    std::vector<int64_t> users(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      users[i] = group.Int64(i, user_c);
    }
    std::sort(users.begin(), users.end());
    const auto distinct = std::unique(users.begin(), users.end());
    out->AppendFrom(0, group.column(0, ctx.In("tag")), group.row(0));
    out->Append(1, Value(static_cast<int64_t>(distinct - users.begin())));
  };
  udf.local_functions.push_back(std::move(lf2));

  LocalFunction lf3;
  lf3.name = "hashtags-lf3-tier";
  lf3.kind = LfKind::kMap;
  lf3.op_types = kOpAttrs | kOpFilter;
  lf3.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"trend_tier", DataType::kString}));
    return out;
  };
  lf3.map_fn = [](const RowBatch& in, const LfContext& ctx) {
    const double min_users = ParamDouble(*ctx.params, "min_users", 2.0);
    const ColumnVector& users = in.column(ctx.In("tag_users"));
    std::vector<uint32_t> sel;
    ColumnVectorPtr tier = NewColumn(DataType::kString, 0);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      const double u = users.NumberAt(i);
      if (u <= min_users) continue;
      sel.push_back(static_cast<uint32_t>(i));
      tier->Append(Value(u > 4 * min_users ? "hot" : "rising"));
    }
    return Extend(in.Gather(sel), {std::move(tier)});
  };
  udf.local_functions.push_back(std::move(lf3));
  return udf;
}

Status RegisterBuiltinUdfs(UdfRegistry* registry) {
  OPD_RETURN_NOT_OK(registry->Register(MakeHashtagTrendsUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeClassifyWineScoreUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeClassifyFoodScoreUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeClassifyAffluentUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeFriendshipStrengthUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeNetworkInfluenceUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeExtractLatLonUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeGeoTileUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeTokenizeUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeWordCountUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeMenuSimilarityUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeParseLogUdf()));
  // Opaque predicate: non-empty, parsable geo string.
  OPD_RETURN_NOT_OK(registry->RegisterPredicate(
      "valid_geo",
      [](const std::vector<storage::Value>& args, const Params&) {
        if (args.empty() || args[0].is_null()) return false;
        double lat, lon;
        return ParseLatLon(args[0].as_string(), &lat, &lon);
      }));
  return Status::OK();
}

}  // namespace opd::udf
