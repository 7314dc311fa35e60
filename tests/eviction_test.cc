// Tests for the view-retention policies (paper Section 10 extension).

#include <gtest/gtest.h>

#include "catalog/eviction.h"
#include "storage/dfs.h"

namespace opd::catalog {
namespace {

using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

class EvictionTest : public ::testing::Test {
 protected:
  // Adds a view of `rows` rows (8 bytes each) and returns its id.
  ViewId AddView(const std::string& tag, int rows) {
    auto table = std::make_shared<Table>(
        "v", Schema({Column{tag, DataType::kInt64}}));
    for (int i = 0; i < rows; ++i) {
      (void)const_cast<Table&>(*table).AppendRow({Value(int64_t{i})});
    }
    ViewDefinition def;
    def.dfs_path = "views/" + tag;
    afk::Attribute a = afk::Attribute::Base("V", tag, DataType::kInt64);
    def.afk = afk::Afk({a}, afk::FilterSet(), afk::KeySet({a}, 0));
    def.out_attrs = {a};
    def.schema = table->schema();
    def.bytes = table->ByteSize();
    (void)dfs_.Write(def.dfs_path, table);
    return store_.Publish(std::move(def)).id;
  }

  ViewStore store_;
  storage::Dfs dfs_;
};

TEST_F(EvictionTest, NoBudgetMeansNoEviction) {
  AddView("a", 100);
  ViewRetention retention(&store_, &dfs_, {0, EvictionPolicy::kLru});
  EXPECT_FALSE(retention.OverBudget());
  auto report = retention.Enforce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->views_evicted, 0u);
}

TEST_F(EvictionTest, EnforceMeetsBudget) {
  AddView("a", 100);
  AddView("b", 100);
  AddView("c", 100);
  ViewRetention retention(&store_, &dfs_,
                          {1700, EvictionPolicy::kFifo});  // fits 2 of 3
  EXPECT_TRUE(retention.OverBudget());
  auto report = retention.Enforce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->views_evicted, 1u);
  EXPECT_EQ(report->bytes_reclaimed, 800u);
  EXPECT_LE(store_.TotalBytes(), 1700u);
  EXPECT_FALSE(retention.OverBudget());
}

TEST_F(EvictionTest, FifoEvictsOldestFirst) {
  ViewId a = AddView("a", 10);
  ViewId b = AddView("b", 10);
  ViewRetention retention(&store_, &dfs_, {100, EvictionPolicy::kFifo});
  auto order = retention.EvictionOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], b);
}

TEST_F(EvictionTest, LruEvictsLeastRecentlyUsed) {
  ViewId a = AddView("a", 10);
  ViewId b = AddView("b", 10);
  ViewId c = AddView("c", 10);
  ASSERT_TRUE(store_.RecordAccess(a, 1.0).ok());
  ASSERT_TRUE(store_.RecordAccess(c, 1.0).ok());
  ASSERT_TRUE(store_.RecordAccess(a, 1.0).ok());
  ViewRetention retention(&store_, &dfs_, {1, EvictionPolicy::kLru});
  auto order = retention.EvictionOrder();
  // b never accessed -> first; then c; a most recent -> last.
  EXPECT_EQ(order[0], b);
  EXPECT_EQ(order[1], c);
  EXPECT_EQ(order[2], a);
}

TEST_F(EvictionTest, LfuEvictsLeastFrequent) {
  ViewId a = AddView("a", 10);
  ViewId b = AddView("b", 10);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store_.RecordAccess(b, 1.0).ok());
  ASSERT_TRUE(store_.RecordAccess(a, 1.0).ok());
  ViewRetention retention(&store_, &dfs_, {1, EvictionPolicy::kLfu});
  auto order = retention.EvictionOrder();
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], b);
}

TEST_F(EvictionTest, LargestFirstEvictsBiggest) {
  ViewId small = AddView("small", 5);
  ViewId big = AddView("big", 500);
  ViewRetention retention(&store_, &dfs_,
                          {1, EvictionPolicy::kLargestFirst});
  auto order = retention.EvictionOrder();
  EXPECT_EQ(order[0], big);
  EXPECT_EQ(order[1], small);
}

TEST_F(EvictionTest, CostBenefitKeepsHighValuePerByte) {
  ViewId cheap_useful = AddView("cheap", 5);     // small, big benefit
  ViewId big_useless = AddView("big", 500);      // large, no benefit
  ViewId big_useful = AddView("bigval", 500);    // large, some benefit
  ASSERT_TRUE(store_.RecordAccess(cheap_useful, 100.0).ok());
  ASSERT_TRUE(store_.RecordAccess(big_useful, 50.0).ok());
  ViewRetention retention(&store_, &dfs_,
                          {1, EvictionPolicy::kCostBenefit});
  auto order = retention.EvictionOrder();
  EXPECT_EQ(order[0], big_useless);
  EXPECT_EQ(order[1], big_useful);
  EXPECT_EQ(order[2], cheap_useful);
}

TEST_F(EvictionTest, EvictionDeletesDfsFile) {
  ViewId a = AddView("a", 100);
  ASSERT_TRUE(dfs_.Exists("views/a"));
  ViewRetention retention(&store_, &dfs_, {1, EvictionPolicy::kFifo});
  auto report = retention.Enforce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->views_evicted, 1u);
  EXPECT_FALSE(store_.Has(a));
  EXPECT_FALSE(dfs_.Exists("views/a"));
}

TEST_F(EvictionTest, RecordPlanAccessesCreditsScannedViews) {
  ViewId a = AddView("a", 10);
  ViewId b = AddView("b", 10);
  AddView("untouched", 10);
  plan::Plan plan(plan::Join(plan::ScanView(a), plan::ScanView(b),
                             {{"a", "b"}}));
  ASSERT_TRUE(RecordPlanAccesses(&store_, plan, 100.0).ok());
  EXPECT_EQ((*store_.Find(a))->access_count, 1u);
  EXPECT_DOUBLE_EQ((*store_.Find(a))->cumulative_benefit_s, 50.0);
  EXPECT_DOUBLE_EQ((*store_.Find(b))->cumulative_benefit_s, 50.0);
}

TEST_F(EvictionTest, PolicyNamesDistinct) {
  EXPECT_STRNE(EvictionPolicyName(EvictionPolicy::kLru),
               EvictionPolicyName(EvictionPolicy::kLfu));
  EXPECT_STRNE(EvictionPolicyName(EvictionPolicy::kCostBenefit),
               EvictionPolicyName(EvictionPolicy::kFifo));
}

}  // namespace
}  // namespace opd::catalog
