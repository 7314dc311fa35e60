// Randomized plan generator shared by property_test and oracle_test: a
// 300-row tweet table, random plans over it in the shapes analysts write,
// and revision mutations.

#ifndef OPD_TESTS_RANDOM_PLANS_H_
#define OPD_TESTS_RANDOM_PLANS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "plan/plan.h"
#include "storage/table.h"

namespace opd::testing_plans {

/// The generator's base table "TWTR" (deterministic content).
inline storage::TablePtr MakeTweets() {
  using storage::Column;
  using storage::DataType;
  using storage::Value;
  storage::Schema schema({Column{"tweet_id", DataType::kInt64},
                          Column{"user_id", DataType::kInt64},
                          Column{"tweet_text", DataType::kString},
                          Column{"mention_user", DataType::kInt64},
                          Column{"retweets", DataType::kInt64}});
  auto t = std::make_shared<storage::Table>("TWTR", schema);
  Rng rng(99);
  const char* texts[] = {"wine merlot tonight", "pasta tasty dinner",
                         "plain words here",    "yacht champagne",
                         "bland stale",         "delicious wine brunch"};
  for (int i = 0; i < 300; ++i) {
    const auto user = static_cast<int64_t>(rng.Zipf(20, 0.7));
    const char* text = texts[rng.Uniform(6)];
    const int64_t mention =
        rng.Bernoulli(0.3) ? static_cast<int64_t>(rng.Uniform(20)) : -1;
    const auto retweets = static_cast<int64_t>(rng.Uniform(50));
    if (!t->AppendRow({Value(int64_t{i}), Value(user), Value(text),
                       Value(mention), Value(retweets)})
             .ok()) {
      return nullptr;
    }
  }
  return t;
}

/// Random plan: walks op choices keeping track of available columns.
/// Mirrors the shapes analysts write (extract -> classify/group -> filter),
/// parameterized by the RNG.
inline plan::Plan RandomPlan(Rng* rng) {
  plan::OpNodePtr node = plan::Scan("TWTR");
  std::vector<std::string> cols = {"tweet_id", "user_id", "tweet_text",
                                   "mention_user", "retweets"};
  std::string numeric_col = "retweets";
  bool aggregated = false;
  auto has = [&cols](const std::string& c) {
    return std::find(cols.begin(), cols.end(), c) != cols.end();
  };
  int ops = 2 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < ops; ++i) {
    switch (rng->Uniform(4)) {
      case 0: {  // project a subset, always keeping user_id + tweet_text
        if (aggregated) break;
        std::vector<std::string> keep = {"user_id", "tweet_text"};
        for (const char* extra : {"tweet_id", "mention_user", "retweets"}) {
          if (has(extra) && rng->Bernoulli(0.5)) keep.push_back(extra);
        }
        if (keep.size() == cols.size()) break;
        node = plan::Project(node, keep);
        cols = keep;
        break;
      }
      case 1: {  // numeric filter on whatever numeric column survives
        if (!has(numeric_col)) break;
        node = plan::Filter(
            node, plan::FilterCond::Compare(
                      numeric_col,
                      rng->Bernoulli(0.5) ? afk::CmpOp::kGt : afk::CmpOp::kLt,
                      storage::Value(static_cast<double>(rng->Uniform(40)))));
        break;
      }
      case 2: {  // classifier UDF
        if (aggregated || !has("tweet_text")) break;
        const char* udf = rng->Bernoulli(0.5) ? "UDF_CLASSIFY_WINE_SCORE"
                                              : "UDF_CLASSIFY_FOOD_SCORE";
        double thr = 0.1 + 0.2 * static_cast<double>(rng->Uniform(5));
        node = plan::Udf(node, udf, {{"threshold", storage::Value(thr)}});
        numeric_col = std::string(udf) == "UDF_CLASSIFY_WINE_SCORE"
                          ? "wine_score"
                          : "sent_sum";
        cols = {"user_id", numeric_col};
        aggregated = true;
        break;
      }
      case 3: {  // group by user
        if (aggregated) break;
        node = plan::GroupBy(node, {"user_id"},
                             {plan::AggSpec{plan::AggFn::kCount, "", "n"}});
        numeric_col = "n";
        cols = {"user_id", "n"};
        aggregated = true;
        break;
      }
    }
  }
  return plan::Plan(node, "random");
}

/// Mutates a plan the way a revision would: tightens one literal (a filter
/// bound or a UDF threshold).
inline plan::Plan Mutate(const plan::Plan& original, Rng* rng) {
  plan::OpNodePtr root = plan::CloneTree(original.root());
  std::vector<plan::OpNode*> spots;
  for (const auto& n : plan::Plan(root).TopoOrder()) {
    if (n->kind == plan::OpKind::kFilter &&
        n->filter.kind == plan::FilterCond::Kind::kCompare) {
      spots.push_back(n.get());
    }
    if (n->kind == plan::OpKind::kUdf && n->udf.params.count("threshold")) {
      spots.push_back(n.get());
    }
  }
  if (!spots.empty()) {
    plan::OpNode* spot = spots[rng->Uniform(spots.size())];
    if (spot->kind == plan::OpKind::kFilter) {
      // Tighten: for kGt raise, for kLt lower.
      double lit = spot->filter.literal.ToDouble();
      spot->filter.literal = storage::Value(
          spot->filter.op == afk::CmpOp::kGt ? lit + 3.0
                                             : std::max(lit - 3.0, 0.0));
    } else {
      double thr = spot->udf.params["threshold"].ToDouble();
      spot->udf.params["threshold"] = storage::Value(thr + 0.2);
    }
  }
  return plan::Plan(root, "mutated");
}

}  // namespace opd::testing_plans

#endif  // OPD_TESTS_RANDOM_PLANS_H_
