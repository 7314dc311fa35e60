#include "workload/queries.h"

#include "storage/value.h"
#include "workload/datagen.h"

namespace opd::workload {

using afk::CmpOp;
using plan::AggFn;
using plan::AggSpec;
using plan::FilterCond;
using plan::OpNodePtr;
using storage::Value;

namespace {

// --- Shared extraction fragments (the first jobs most queries run over the
// raw logs; their materializations are the highest-value opportunistic
// views, since they save re-reading the wide logs) ------------------------

// Two overlapping extraction habits over the wide log. They are never
// syntactically identical (different column sets), but because projection
// preserves the (F, K) context, any computation over one can be replayed
// over the other when the needed columns are present — the "near-miss view"
// richness the paper's corpus had.
OpNodePtr TwtrExtract() {
  return plan::Project(
      plan::Scan("TWTR"),
      {"user_id", "tweet_text", "mention_user", "raw_meta"});
}

// The "core" extraction shared by the text- and metadata-oriented analysts
// (A2, A5, A8): keeps the tweet id as well.
OpNodePtr TwtrCoreExtract() {
  return plan::Project(
      plan::Scan("TWTR"),
      {"tweet_id", "user_id", "tweet_text", "raw_meta", "mention_user"});
}

OpNodePtr TwtrGeoExtract() {
  return plan::Project(plan::Scan("TWTR"), {"tweet_id", "user_id", "geo"});
}

OpNodePtr CheckinExtract() {
  return plan::Project(plan::Scan("FSQ"), {"user_id", "location_id"});
}

OpNodePtr LandCat() {
  return plan::Project(plan::Scan("LAND"), {"location_id", "category"});
}

// --- Shared analytic fragments ---------------------------------------------

OpNodePtr WineScore(double threshold) {
  return plan::Udf(TwtrExtract(), "UDF_CLASSIFY_WINE_SCORE",
                   {{"threshold", Value(threshold)}});
}

OpNodePtr FoodScore(double threshold) {
  return plan::Udf(TwtrCoreExtract(), "UDF_CLASSIFY_FOOD_SCORE",
                   {{"threshold", Value(threshold)}});
}

OpNodePtr Affluent(double min_affluence) {
  return plan::Udf(TwtrExtract(), "UDAF_CLASSIFY_AFFLUENT",
                   {{"min_affluence", Value(min_affluence)}});
}

OpNodePtr Friends(double min_strength) {
  return plan::Udf(TwtrExtract(), "UDF_FRIENDSHIP_STRENGTH",
                   {{"min_strength", Value(min_strength)}});
}

OpNodePtr ParsedLog() {
  return plan::Udf(TwtrCoreExtract(), "UDF_PARSE_LOG");
}

// Per-user check-in counts at locations of one category.
OpNodePtr CategoryCheckins(const std::string& category,
                           const std::string& count_name, double min_count) {
  OpNodePtr land = plan::Filter(
      LandCat(), FilterCond::Compare("category", CmpOp::kEq, Value(category)));
  OpNodePtr joined = plan::Join(CheckinExtract(), std::move(land),
                                {{"location_id", "location_id"}});
  OpNodePtr grouped =
      plan::GroupBy(std::move(joined), {"user_id"},
                    {AggSpec{AggFn::kCount, "", count_name}});
  return plan::Filter(std::move(grouped), FilterCond::Compare(
                                              count_name, CmpOp::kGt,
                                              Value(min_count)));
}

// Per-user tweet volume.
OpNodePtr TweetCount(double min_count) {
  OpNodePtr grouped =
      plan::GroupBy(TwtrCoreExtract(), {"user_id"},
                    {AggSpec{AggFn::kCount, "", "tweet_count"}});
  return plan::Filter(std::move(grouped),
                      FilterCond::Compare("tweet_count", CmpOp::kGt,
                                          Value(min_count)));
}

// Per-location check-in volume.
OpNodePtr LocationCheckins(double min_count) {
  OpNodePtr grouped =
      plan::GroupBy(CheckinExtract(), {"location_id"},
                    {AggSpec{AggFn::kCount, "", "loc_checkins"}});
  return plan::Filter(std::move(grouped),
                      FilterCond::Compare("loc_checkins", CmpOp::kGt,
                                          Value(min_count)));
}

// Restaurants whose menus resemble the reference menu.
OpNodePtr SimilarMenus(double min_sim) {
  OpNodePtr land = plan::Filter(
      plan::Project(plan::Scan("LAND"),
                    {"location_id", "category", "menu_text"}),
      FilterCond::Compare("category", CmpOp::kEq, Value("restaurant")));
  return plan::Udf(std::move(land), "UDF_MENU_SIMILARITY",
                   {{"ref_menu", Value(ReferenceMenu())},
                    {"min_sim", Value(min_sim)}});
}

// Tweets with parsed coordinates and a grid tile id.
OpNodePtr TweetTiles(double tile_size) {
  OpNodePtr geo = plan::Udf(TwtrGeoExtract(), "UDF_EXTRACT_LATLON");
  return plan::Udf(std::move(geo), "UDF_GEO_TILE",
                   {{"tile_size", Value(tile_size)}});
}

OpNodePtr LandmarkTiles(double tile_size) {
  OpNodePtr geo = plan::Udf(
      plan::Project(plan::Scan("LAND"), {"location_id", "category", "geo"}),
      "UDF_EXTRACT_LATLON");
  return plan::Udf(std::move(geo), "UDF_GEO_TILE",
                   {{"tile_size", Value(tile_size)}});
}

OpNodePtr TileDensity(OpNodePtr tiles, const std::string& count_name,
                      double min_count) {
  OpNodePtr grouped = plan::GroupBy(std::move(tiles), {"tile_id"},
                                    {AggSpec{AggFn::kCount, "", count_name}});
  return plan::Filter(std::move(grouped),
                      FilterCond::Compare(count_name, CmpOp::kGt,
                                          Value(min_count)));
}

// Check-in coordinates (via the landmark registry) tiled onto the grid.
OpNodePtr CheckinTileDensity(double tile_size, double min_count) {
  OpNodePtr chk_geo = plan::Udf(
      plan::Join(CheckinExtract(),
                 plan::Project(plan::Scan("LAND"), {"location_id", "geo"}),
                 {{"location_id", "location_id"}}),
      "UDF_EXTRACT_LATLON");
  OpNodePtr tiles = plan::Udf(std::move(chk_geo), "UDF_GEO_TILE",
                              {{"tile_size", Value(tile_size)}});
  return TileDensity(std::move(tiles), "checkin_density", min_count);
}

OpNodePtr Tokens() {
  return plan::Udf(plan::Project(plan::Scan("TWTR"),
                                 {"user_id", "tweet_text"}),
                   "UDF_TOKENIZE");
}

// --- Analyst 1: wine lovers (the paper's Example 1) ------------------------

OpNodePtr A1(int version) {
  // v1 thresholds; v2 *lowers* the wine threshold (no reuse of the wine
  // view, as in the paper's A1v2); v3/v4 raise it above every earlier
  // version (reusable with compensating filters, but never syntactically).
  double wine_thr = version == 1 ? 1.0 : (version == 2 ? 0.6 : 1.2);
  double checkin_min = version <= 2 ? 3 : 6;

  OpNodePtr core = plan::Join(WineScore(wine_thr), Affluent(0.04),
                              {{"user_id", "user_id"}});
  if (version == 1) {
    return plan::Join(std::move(core), Friends(2), {{"user_id", "user_a"}});
  }
  OpNodePtr winebar =
      CategoryCheckins("wine_bar", "winebar_checkins", checkin_min);
  if (version <= 3) {
    OpNodePtr with_friends =
        plan::Join(std::move(core), Friends(2), {{"user_id", "user_a"}});
    return plan::Join(std::move(with_friends), std::move(winebar),
                      {{"user_id", "user_id"}});
  }
  // v4: require that the user's *friends* also frequent wine bars.
  OpNodePtr friend_checkins = plan::Join(Friends(2), std::move(winebar),
                                         {{"user_b", "user_id"}});
  return plan::Join(std::move(core), std::move(friend_checkins),
                    {{"user_id", "user_a"}});
}

// --- Analyst 2: prolific foodies (the paper's Figure 4 query) --------------

OpNodePtr A2(int version) {
  double food_thr = version == 1 ? 0.5 : (version == 2 ? 0.8 : 1.0);
  OpNodePtr core = plan::Join(FoodScore(food_thr), TweetCount(40),
                              {{"user_id", "user_id"}});
  if (version == 1) return core;
  core = plan::Join(std::move(core),
                    CategoryCheckins("restaurant", "rest_checkins", 4),
                    {{"user_id", "user_id"}});
  if (version == 2) return core;
  // v3: check-ins at restaurants with menus similar to the reference menu.
  double sim_visits_min = version == 3 ? 1 : 2;
  OpNodePtr sim_visits = plan::Filter(
      plan::GroupBy(plan::Join(CheckinExtract(), SimilarMenus(0.15),
                               {{"location_id", "location_id"}}),
                    {"user_id"}, {AggSpec{AggFn::kCount, "", "sim_checkins"}}),
      FilterCond::Compare("sim_checkins", CmpOp::kGt, Value(sim_visits_min)));
  core = plan::Join(std::move(core), std::move(sim_visits),
                    {{"user_id", "user_id"}});
  if (version == 3) return core;
  return plan::Join(std::move(core), Affluent(0.04),
                    {{"user_id", "user_id"}});
}

// --- Analyst 3: geographic tweet density -----------------------------------

OpNodePtr A3(int version) {
  double tile = version == 1 ? 1.0 : 0.5;
  double density_min = version <= 2 ? 40 : 60;
  // A3 narrows the density threshold in two steps (>15, then the real one):
  // the intermediate view is compensable by anyone with a threshold above
  // 15 without ever being syntactically identical to their plans.
  OpNodePtr tweets = plan::Filter(
      plan::Filter(
          plan::GroupBy(TweetTiles(tile), {"tile_id"},
                        {AggSpec{AggFn::kCount, "", "tweet_density"}}),
          FilterCond::Compare("tweet_density", CmpOp::kGt, Value(15.0))),
      FilterCond::Compare("tweet_density", CmpOp::kGt, Value(density_min)));
  if (version == 1) return tweets;
  OpNodePtr land_tiles = LandmarkTiles(tile);
  if (version >= 3) {
    land_tiles = plan::Filter(
        std::move(land_tiles),
        FilterCond::Compare("category", CmpOp::kEq, Value("restaurant")));
  }
  OpNodePtr land = TileDensity(std::move(land_tiles), "landmark_density",
                               version <= 3 ? 1 : 2);
  OpNodePtr joined = plan::Join(std::move(tweets), std::move(land),
                                {{"tile_id", "tile_id"}});
  if (version <= 3) return joined;
  // v4: add check-in density per tile (the same lineage A7 explores).
  return plan::Join(std::move(joined), CheckinTileDensity(tile, 5),
                    {{"tile_id", "tile_id"}});
}

// --- Analyst 4: network influencers -----------------------------------------

OpNodePtr A4(int version) {
  // A4 studies weaker ties than A1 (min_strength 1.5 vs 2): its friendship
  // views are never identical to A1's, yet A1's stronger filter can be
  // compensated from them.
  double min_influence = version <= 3 ? 4 : 8;
  OpNodePtr inf = plan::Udf(Friends(1.5), "UDF_NETWORK_INFLUENCE",
                            {{"min_influence", Value(min_influence)}});
  if (version == 1) return inf;
  OpNodePtr core = plan::Join(std::move(inf), Affluent(0.04),
                              {{"inf_user", "user_id"}});
  if (version == 2) return core;
  core = plan::Join(std::move(core), TweetCount(30),
                    {{"inf_user", "user_id"}});
  if (version == 3) return core;
  return plan::Join(std::move(core), WineScore(1.0),
                    {{"inf_user", "user_id"}});
}

// --- Analyst 5: restaurant marketing (A5v3 uses all three logs) ------------

OpNodePtr A5(int version) {
  double min_sim = version <= 3 ? 0.15 : 0.25;
  double min_loc_checkins = version == 1 ? 8 : (version <= 3 ? 12 : 15);
  OpNodePtr core =
      plan::Join(SimilarMenus(min_sim), LocationCheckins(min_loc_checkins),
                 {{"location_id", "location_id"}});
  if (version <= 2) return core;
  // v3: how many food-positive users visit each similar-menu restaurant.
  double min_foodie_visits = version == 3 ? 1 : 2;
  OpNodePtr foodie_visits = plan::Filter(
      plan::GroupBy(
          plan::Join(plan::Join(CheckinExtract(), SimilarMenus(min_sim),
                                {{"location_id", "location_id"}}),
                     FoodScore(0.5), {{"user_id", "user_id"}}),
          {"location_id"}, {AggSpec{AggFn::kCount, "", "foodie_visits"}}),
      FilterCond::Compare("foodie_visits", CmpOp::kGt,
                          Value(min_foodie_visits)));
  return plan::Join(std::move(core), std::move(foodie_visits),
                    {{"location_id", "location_id"}});
}

// --- Analyst 6: word trends --------------------------------------------------

OpNodePtr A6(int version) {
  switch (version) {
    case 1:
      return plan::Udf(Tokens(), "UDF_WORD_COUNT",
                       {{"min_count", Value(10.0)}});
    case 2: {
      OpNodePtr utc =
          plan::GroupBy(Tokens(), {"user_id"},
                        {AggSpec{AggFn::kCount, "", "token_count"}});
      OpNodePtr chatty = plan::Filter(
          std::move(utc),
          FilterCond::Compare("token_count", CmpOp::kGt, Value(80.0)));
      return plan::Join(std::move(chatty), Affluent(0.04),
                        {{"user_id", "user_id"}});
    }
    case 3: {
      OpNodePtr utc =
          plan::GroupBy(Tokens(), {"user_id"},
                        {AggSpec{AggFn::kCount, "", "token_count"}});
      OpNodePtr chatty = plan::Filter(
          std::move(utc),
          FilterCond::Compare("token_count", CmpOp::kGt, Value(120.0)));
      return plan::Join(std::move(chatty), Friends(2),
                        {{"user_id", "user_a"}});
    }
    default: {
      OpNodePtr wc = plan::Udf(Tokens(), "UDF_WORD_COUNT",
                               {{"min_count", Value(10.0)}});
      return plan::Filter(
          std::move(wc),
          FilterCond::Compare("wcount", CmpOp::kGt, Value(60.0)));
    }
  }
}

// --- Analyst 7: check-in behaviour ------------------------------------------

OpNodePtr A7(int version) {
  // Where does crowd activity (tweets + check-ins) concentrate?
  // A7 tiles the same logs as A3 but with weaker density thresholds — its
  // v1 views are semantically reusable by A3 (and vice versa) without ever
  // being syntactically identical.
  if (version <= 2) {
    double tweet_min = version == 1 ? 20 : 35;
    double chk_min = version == 1 ? 8 : 12;
    return plan::Join(
        TileDensity(TweetTiles(1.0), "tweet_density", tweet_min),
        CheckinTileDensity(1.0, chk_min), {{"tile_id", "tile_id"}});
  }
  // v3/v4: zoom to finer tiles and swap the tweet side for landmarks.
  double chk_min = version == 3 ? 8 : 12;
  double land_min = version == 3 ? 1 : 2;
  return plan::Join(
      CheckinTileDensity(0.5, chk_min),
      TileDensity(LandmarkTiles(0.5), "landmark_density", land_min),
      {{"tile_id", "tile_id"}});
}

// --- Analyst 8: device / language analysis ----------------------------------

OpNodePtr A8(int version) {
  switch (version) {
    case 1: {
      OpNodePtr grouped =
          plan::GroupBy(ParsedLog(), {"lang", "device"},
                        {AggSpec{AggFn::kCount, "", "n_tweets"}});
      return plan::Filter(
          std::move(grouped),
          FilterCond::Compare("n_tweets", CmpOp::kGt, Value(150.0)));
    }
    case 2:
    case 4: {
      double min_tweets = version == 2 ? 20 : 35;
      OpNodePtr user_dev =
          plan::GroupBy(ParsedLog(), {"user_id", "device"},
                        {AggSpec{AggFn::kCount, "", "user_dev_tweets"}});
      OpNodePtr heavy = plan::Filter(
          std::move(user_dev),
          FilterCond::Compare("user_dev_tweets", CmpOp::kGt,
                              Value(min_tweets)));
      if (version == 2) {
        return plan::Join(std::move(heavy), Affluent(0.04),
                          {{"user_id", "user_id"}});
      }
      return plan::Join(std::move(heavy), Friends(2),
                        {{"user_id", "user_a"}});
    }
    default: {  // v3
      OpNodePtr en = plan::Filter(
          ParsedLog(),
          FilterCond::Compare("lang", CmpOp::kEq, Value("en")));
      OpNodePtr user_en =
          plan::GroupBy(std::move(en), {"user_id"},
                        {AggSpec{AggFn::kCount, "", "en_tweets"}});
      OpNodePtr heavy = plan::Filter(
          std::move(user_en),
          FilterCond::Compare("en_tweets", CmpOp::kGt, Value(15.0)));
      return plan::Join(std::move(heavy), WineScore(1.0),
                        {{"user_id", "user_id"}});
    }
  }
}

}  // namespace

const char* AnalystTopic(int analyst) {
  switch (analyst) {
    case 1:
      return "wine lovers for a regional wine coupon";
    case 2:
      return "prolific foodies";
    case 3:
      return "geographic tweet density";
    case 4:
      return "network influencers";
    case 5:
      return "restaurant marketing";
    case 6:
      return "word trends";
    case 7:
      return "check-in behaviour";
    case 8:
      return "device and language analysis";
    default:
      return "?";
  }
}

Result<plan::Plan> BuildQuery(int analyst, int version) {
  if (analyst < 1 || analyst > kNumAnalysts || version < 1 ||
      version > kNumVersions) {
    return Status::InvalidArgument("no such query: A" +
                                   std::to_string(analyst) + "v" +
                                   std::to_string(version));
  }
  OpNodePtr root;
  switch (analyst) {
    case 1:
      root = A1(version);
      break;
    case 2:
      root = A2(version);
      break;
    case 3:
      root = A3(version);
      break;
    case 4:
      root = A4(version);
      break;
    case 5:
      root = A5(version);
      break;
    case 6:
      root = A6(version);
      break;
    case 7:
      root = A7(version);
      break;
    default:
      root = A8(version);
      break;
  }
  std::string name = "A";
  name += std::to_string(analyst);
  name += 'v';
  name += std::to_string(version);
  return plan::Plan(std::move(root), std::move(name));
}

}  // namespace opd::workload
