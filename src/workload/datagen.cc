#include "workload/datagen.h"

#include <array>
#include <cmath>

#include "common/rng.h"

namespace opd::workload {

using storage::Column;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

namespace {

const std::array<const char*, 40> kNeutralWords = {
    "the",     "today",  "just",    "really",  "going",   "out",
    "with",    "friends","morning", "evening", "city",    "work",
    "meeting", "traffic","weather", "sunny",   "rain",    "monday",
    "weekend", "game",   "music",   "movie",   "news",    "photo",
    "walk",    "train",  "coffee",  "break",   "project", "deadline",
    "email",   "phone",  "update",  "release", "launch",  "travel",
    "airport", "hotel",  "beach",   "mountain"};

const std::array<const char*, 8> kWineWords = {
    "wine", "merlot", "cabernet", "pinot", "chardonnay", "vineyard",
    "sommelier", "riesling"};
const std::array<const char*, 8> kFoodWords = {
    "delicious", "tasty", "yummy", "brunch", "foodie", "pasta", "ramen",
    "dessert"};
const std::array<const char*, 7> kLuxuryWords = {
    "yacht", "penthouse", "champagne", "caviar", "designer", "chauffeur",
    "resort"};

const std::array<const char*, 6> kCategories = {
    "wine_bar", "restaurant", "cafe", "museum", "park", "hotel"};
// Category weights: restaurants dominate, wine bars are a niche.
const std::array<double, 6> kCategoryWeights = {0.10, 0.32, 0.22,
                                                0.14, 0.12, 0.10};

const std::array<const char*, 4> kLangs = {"en", "es", "ja", "fr"};
const std::array<const char*, 4> kDevices = {"ios", "android", "web",
                                             "blackberry"};

// Per-user topical affinity, derived deterministically from the user id.
struct Persona {
  double wine = 0, food = 0, luxury = 0;
};

Persona UserPersona(uint64_t seed, int64_t user_id) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(user_id) * 104729 + 17);
  Persona p;
  // ~15% of users are wine-leaning, ~25% food-leaning, ~10% luxury-leaning.
  if (rng.Bernoulli(0.15)) p.wine = 0.10 + 0.25 * rng.UniformDouble();
  if (rng.Bernoulli(0.25)) p.food = 0.10 + 0.25 * rng.UniformDouble();
  if (rng.Bernoulli(0.10)) p.luxury = 0.10 + 0.20 * rng.UniformDouble();
  return p;
}

template <size_t N>
void MaybeAppendTopic(Rng* rng, double affinity,
                      const std::array<const char*, N>& words,
                      std::string* text) {
  if (rng->Bernoulli(affinity)) {
    text->push_back(' ');
    text->append(words[rng->Uniform(words.size())]);
  }
}

std::string MakeTweetText(Rng* rng, const Persona& persona) {
  std::string text;
  size_t n_words = 4 + rng->Uniform(9);
  for (size_t w = 0; w < n_words; ++w) {
    if (w > 0) text.push_back(' ');
    text.append(kNeutralWords[rng->Uniform(kNeutralWords.size())]);
  }
  // Topical injections (possibly several per tweet).
  for (int rep = 0; rep < 2; ++rep) {
    MaybeAppendTopic(rng, persona.wine, kWineWords, &text);
    MaybeAppendTopic(rng, persona.food, kFoodWords, &text);
    MaybeAppendTopic(rng, persona.luxury, kLuxuryWords, &text);
  }
  return text;
}

std::string MakeGeo(Rng* rng, double present_prob) {
  if (!rng->Bernoulli(present_prob)) {
    // Missing or dirty coordinates, as in real logs.
    return rng->Bernoulli(0.5) ? "" : "n/a";
  }
  // Around the Bay Area.
  double lat = 37.2 + rng->UniformDouble() * 1.2;
  double lon = -122.6 + rng->UniformDouble() * 1.4;
  return std::to_string(lat) + "," + std::to_string(lon);
}

// A client version string "v1".."v5".
std::string MakeVersion(Rng* rng) {
  std::string version = "v";
  version += std::to_string(1 + rng->Uniform(5));
  return version;
}

}  // namespace

const char* ReferenceMenu() {
  return "pasta ramen dessert wine merlot brunch savory tasty cheese bread "
         "salad grill";
}

TablePtr GenerateTwitterLog(const DataGenConfig& config) {
  Schema schema({Column{"tweet_id", DataType::kInt64},
                 Column{"user_id", DataType::kInt64},
                 Column{"tweet_text", DataType::kString},
                 Column{"mention_user", DataType::kInt64},
                 Column{"geo", DataType::kString},
                 Column{"raw_meta", DataType::kString},
                 Column{"ts", DataType::kInt64},
                 Column{"retweets", DataType::kInt64},
                 Column{"favorites", DataType::kInt64},
                 Column{"client_ver", DataType::kString},
                 Column{"payload", DataType::kString}});
  auto table = std::make_shared<Table>("TWTR", schema);
  Rng rng(config.seed);
  const auto n_users = static_cast<int64_t>(config.n_users);
  for (size_t i = 0; i < config.n_tweets; ++i) {
    // Zipf-skewed tweet volume: a few users tweet a lot.
    int64_t user = static_cast<int64_t>(rng.Zipf(config.n_users, 0.6));
    Persona persona = UserPersona(config.seed, user);

    int64_t mention = -1;
    if (rng.Bernoulli(config.mention_prob)) {
      // Mention a "nearby" user id: repeated pairs carry friendship signal.
      int64_t delta = 1 + static_cast<int64_t>(rng.Zipf(12, 1.2));
      mention = (user + delta) % n_users;
    }
    std::string meta = std::string("lang=") +
                       kLangs[rng.Zipf(kLangs.size(), 1.0)] +
                       ";dev=" + kDevices[rng.Zipf(kDevices.size(), 0.8)];
    // Wide-log filler a typical query never touches.
    std::string payload(24 + rng.Uniform(40), 'x');
    Row row{Value(static_cast<int64_t>(i)),
            Value(user),
            Value(MakeTweetText(&rng, persona)),
            Value(mention),
            Value(MakeGeo(&rng, config.geo_prob)),
            Value(std::move(meta)),
            Value(static_cast<int64_t>(1400000000 + i * 37)),
            Value(static_cast<int64_t>(rng.Zipf(50, 1.3))),
            Value(static_cast<int64_t>(rng.Zipf(80, 1.2))),
            Value(MakeVersion(&rng)),
            Value(std::move(payload))};
    (void)table->AppendRow(std::move(row));
  }
  return table;
}

TablePtr GenerateFoursquareLog(const DataGenConfig& config) {
  Schema schema({Column{"checkin_id", DataType::kInt64},
                 Column{"user_id", DataType::kInt64},
                 Column{"location_id", DataType::kInt64},
                 Column{"ts", DataType::kInt64},
                 Column{"checkin_msg", DataType::kString},
                 Column{"rating", DataType::kDouble}});
  auto table = std::make_shared<Table>("FSQ", schema);
  Rng rng(config.seed + 1);
  for (size_t i = 0; i < config.n_checkins; ++i) {
    int64_t user = static_cast<int64_t>(rng.Zipf(config.n_users, 0.7));
    Persona persona = UserPersona(config.seed, user);
    // Wine-leaning users check in at low location ids more often; the
    // generator places wine bars there (see GenerateLandmarks), so that
    // check-in behaviour correlates with tweet sentiment.
    int64_t location;
    if (persona.wine > 0 && rng.Bernoulli(0.5)) {
      location = static_cast<int64_t>(rng.Zipf(config.n_locations / 6, 0.8));
    } else {
      location = static_cast<int64_t>(rng.Zipf(config.n_locations, 0.4));
    }
    std::string msg;
    size_t n_words = 2 + rng.Uniform(4);
    for (size_t w = 0; w < n_words; ++w) {
      if (w > 0) msg.push_back(' ');
      msg.append(kNeutralWords[rng.Uniform(kNeutralWords.size())]);
    }
    Row row{Value(static_cast<int64_t>(i)),
            Value(user),
            Value(location),
            Value(static_cast<int64_t>(1400000000 + i * 53)),
            Value(std::move(msg)),
            Value(1.0 + 4.0 * rng.UniformDouble())};
    (void)table->AppendRow(std::move(row));
  }
  return table;
}

TablePtr GenerateLandmarks(const DataGenConfig& config) {
  Schema schema({Column{"location_id", DataType::kInt64},
                 Column{"name", DataType::kString},
                 Column{"category", DataType::kString},
                 Column{"geo", DataType::kString},
                 Column{"menu_text", DataType::kString},
                 Column{"avg_rating", DataType::kDouble}});
  auto table = std::make_shared<Table>("LAND", schema);
  Rng rng(config.seed + 2);
  std::vector<double> weights(kCategoryWeights.begin(),
                              kCategoryWeights.end());
  for (size_t i = 0; i < config.n_locations; ++i) {
    // Low ids skew toward wine bars (matches the check-in generator).
    size_t cat_idx;
    if (i < config.n_locations / 6 && rng.Bernoulli(0.5)) {
      cat_idx = 0;  // wine_bar
    } else {
      cat_idx = rng.Weighted(weights);
    }
    const std::string category = kCategories[cat_idx];
    std::string menu;
    if (category == "restaurant" || category == "wine_bar" ||
        category == "cafe") {
      size_t n_items = 4 + rng.Uniform(8);
      for (size_t w = 0; w < n_items; ++w) {
        if (w > 0) menu.push_back(' ');
        if (category == "wine_bar" && rng.Bernoulli(0.45)) {
          menu.append(kWineWords[rng.Uniform(kWineWords.size())]);
        } else if (rng.Bernoulli(0.5)) {
          menu.append(kFoodWords[rng.Uniform(kFoodWords.size())]);
        } else {
          menu.append(kNeutralWords[rng.Uniform(kNeutralWords.size())]);
        }
      }
    }
    Row row{Value(static_cast<int64_t>(i)),
            Value("place_" + std::to_string(i)),
            Value(category),
            Value(MakeGeo(&rng, 0.92)),
            Value(std::move(menu)),
            Value(1.0 + 4.0 * rng.UniformDouble())};
    (void)table->AppendRow(std::move(row));
  }
  return table;
}

}  // namespace opd::workload
