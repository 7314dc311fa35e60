// Tests for the catalog and the materialized-view metadata store.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "optimizer/optimizer.h"
#include "rewrite/bf_rewrite.h"
#include "storage/dfs.h"

namespace opd::catalog {
namespace {

using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

storage::TablePtr MakeTable(const std::string& name, int rows) {
  auto t = std::make_shared<Table>(
      name, Schema({Column{"id", DataType::kInt64},
                    Column{"grp", DataType::kInt64},
                    Column{"txt", DataType::kString}}));
  for (int i = 0; i < rows; ++i) {
    (void)const_cast<Table&>(*t).AppendRow(
        {Value(int64_t{i}), Value(int64_t{i % 4}), Value("abc")});
  }
  return t;
}

TEST(CatalogTest, RegisterAndFind) {
  storage::Dfs dfs;
  Catalog cat;
  ASSERT_TRUE(cat.RegisterBase(MakeTable("T", 100), {"id"}, &dfs).ok());
  auto entry = cat.Find("T");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->name, "T");
  EXPECT_EQ((*entry)->schema.num_columns(), 3u);
  EXPECT_EQ((*entry)->attrs.size(), 3u);
  EXPECT_EQ((*entry)->afk.keys().keys().size(), 1u);
  EXPECT_DOUBLE_EQ((*entry)->stats.rows, 100.0);
  EXPECT_DOUBLE_EQ((*entry)->stats.DistinctOr("grp", 0), 4.0);
  EXPECT_TRUE(dfs.Exists("base/T"));
}

TEST(CatalogTest, RejectsDuplicatesAndBadKeys) {
  storage::Dfs dfs;
  Catalog cat;
  ASSERT_TRUE(cat.RegisterBase(MakeTable("T", 10), {"id"}, &dfs).ok());
  EXPECT_EQ(cat.RegisterBase(MakeTable("T", 10), {"id"}, &dfs).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.RegisterBase(MakeTable("U", 10), {"nope"}, &dfs).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(cat.Find("missing").ok());
}

TEST(CatalogTest, ExactStatsWidths) {
  auto t = MakeTable("T", 50);
  TableStats stats = ComputeExactStats(*t);
  EXPECT_DOUBLE_EQ(stats.rows, 50.0);
  EXPECT_DOUBLE_EQ(stats.ColBytesOr("id", 0), 8.0);
  EXPECT_DOUBLE_EQ(stats.ColBytesOr("txt", 0), 7.0);  // 3 chars + 4 prefix
  EXPECT_DOUBLE_EQ(stats.DistinctOr("id", 0), 50.0);
}

// ComputeExactStats reads columns; its figures must equal the definition
// over rows (Value::Hash distincts, mean Value::ByteSize widths) for nulls,
// dictionary strings, and a column demoted to the variant lane by one
// mistyped cell, across several batches.
TEST(CatalogTest, ExactStatsMatchRowDefinition) {
  Table t("M", Schema({Column{"id", DataType::kInt64},
                       Column{"name", DataType::kString},
                       Column{"score", DataType::kDouble}}));
  const int n = 2500;
  for (int i = 0; i < n; ++i) {
    Value name = i % 7 == 0 ? Value::Null() : Value("n" + std::to_string(i % 40));
    Value score = i % 11 == 0 ? Value::Null() : Value(0.5 * (i % 90));
    if (i == 1500) score = Value("mistyped");  // demotes that batch's column
    ASSERT_TRUE(t.AppendRow({Value(int64_t{i % 600}), name, score}).ok());
  }
  bool demoted = false;
  for (const storage::RowBatch& b : *t.ToBatches()) {
    demoted = demoted || !b.column(2).is_native();
  }
  ASSERT_TRUE(demoted);

  const TableStats stats = ComputeExactStats(t);
  const std::vector<storage::Row> rows = t.ToRows();
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    const std::string& name = t.schema().column(c).name;
    SCOPED_TRACE(name);
    std::set<uint64_t> hashes;
    size_t width = 0;
    for (const storage::Row& row : rows) {
      hashes.insert(row[c].Hash());
      width += row[c].ByteSize();
    }
    EXPECT_EQ(stats.DistinctOr(name, -1), static_cast<double>(hashes.size()));
    EXPECT_EQ(stats.ColBytesOr(name, -1),
              static_cast<double>(width) / static_cast<double>(n));
  }
  EXPECT_EQ(stats.DistinctOr("id", -1), 600.0);
  EXPECT_EQ(stats.DistinctOr("name", -1), 41.0);  // 40 strings + null
}

ViewDefinition MakeView(const std::string& rel, const std::string& attr) {
  ViewDefinition def;
  def.dfs_path = "views/" + rel + "/" + attr;
  afk::Attribute a = afk::Attribute::Base(rel, attr, DataType::kInt64);
  def.afk = afk::Afk({a}, afk::FilterSet(), afk::KeySet({a}, 0));
  def.out_attrs = {a};
  def.schema = Schema({Column{attr, DataType::kInt64}});
  def.fingerprint = "fp:" + rel + "." + attr;
  def.bytes = 100;
  return def;
}

TEST(ViewStoreTest, AddFindDrop) {
  ViewStore store;
  ViewId id = store.Publish(MakeView("R", "a")).id;
  EXPECT_GE(id, 0);
  EXPECT_TRUE(store.Has(id));
  auto def = store.Find(id);
  ASSERT_TRUE(def.ok());
  EXPECT_EQ((*def)->id, id);
  EXPECT_TRUE(store.Drop(id).ok());
  EXPECT_FALSE(store.Has(id));
  EXPECT_FALSE(store.Drop(id).ok());
}

TEST(ViewStoreTest, DeduplicatesByAfk) {
  ViewStore store;
  ViewId a = store.Publish(MakeView("R", "a")).id;
  ViewId b = store.Publish(MakeView("R", "a")).id;  // identical AFK
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.size(), 1u);
  ViewId c = store.Publish(MakeView("R", "b")).id;
  EXPECT_NE(a, c);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ViewStoreTest, DropReenablesAdd) {
  ViewStore store;
  ViewId a = store.Publish(MakeView("R", "a")).id;
  ASSERT_TRUE(store.Drop(a).ok());
  ViewId b = store.Publish(MakeView("R", "a")).id;
  EXPECT_NE(a, b);  // new id
  EXPECT_EQ(store.size(), 1u);
}

TEST(ViewStoreTest, TotalBytesAndAll) {
  ViewStore store;
  store.Publish(MakeView("R", "a"));
  store.Publish(MakeView("R", "b"));
  EXPECT_EQ(store.TotalBytes(), 200u);
  EXPECT_EQ(store.All().size(), 2u);
  store.DropAll();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
}

std::vector<ViewId> Ids(const std::vector<const ViewDefinition*>& defs) {
  std::vector<ViewId> ids;
  for (const ViewDefinition* def : defs) ids.push_back(def->id);
  return ids;
}

// SnapshotAt(e) is the prefix of the current version published at epochs
// <= e: after interleaved publishes, dedups, empty batches and a drop it
// equals the brute-force filter of the live views, with a matching Find
// and signature index. An old snapshot survives DropAll.
TEST(ViewStoreTest, SnapshotAtIsEpochPrefix) {
  ViewStore store;
  store.Publish(MakeView("R", "a"));
  store.PublishBatch({});  // empty batch: epoch only
  store.PublishBatch({MakeView("R", "b"), MakeView("R", "c")});
  store.Publish(MakeView("R", "a"));  // dedup: epoch only
  const ViewId d = store.Publish(MakeView("R", "d")).id;
  store.PublishBatch({MakeView("R", "b"), MakeView("R", "e")});  // half dedup
  ASSERT_TRUE(store.Drop(d).ok());
  store.Publish(MakeView("R", "f"));
  store.PublishBatch({});

  const std::vector<const ViewDefinition*> live = store.All();
  for (Epoch e = 0; e <= store.epoch() + 1; ++e) {
    std::vector<ViewId> expected;
    for (const ViewDefinition* def : live) {
      if (def->publish_epoch <= e) expected.push_back(def->id);
    }
    const ViewSnapshot snap = store.SnapshotAt(e);
    EXPECT_EQ(snap.epoch(), e);
    ASSERT_EQ(Ids(snap.All()), expected) << "epoch " << e;
    for (ViewId id : expected) EXPECT_TRUE(snap.Find(id).ok());
    for (const ViewDefinition* def : live) {
      if (def->publish_epoch > e) {
        EXPECT_FALSE(snap.Find(def->id).ok());
      }
      // The index sees exactly this snapshot's views.
      const std::string& sig = def->afk.attrs()[0].signature();
      std::vector<ViewId> posted;
      for (uint32_t pos : snap.Postings(sig)) posted.push_back(snap.at(pos).id);
      const bool visible = def->publish_epoch <= e;
      EXPECT_EQ(posted, visible ? std::vector<ViewId>{def->id}
                                : std::vector<ViewId>{});
    }
  }
  EXPECT_FALSE(store.SnapshotAt(store.epoch()).Find(d).ok());

  const ViewSnapshot old = store.Snapshot();
  const std::vector<ViewId> old_ids = Ids(old.All());
  store.DropAll();
  EXPECT_EQ(store.Snapshot().size(), 0u);
  EXPECT_EQ(Ids(old.All()), old_ids);
  for (ViewId id : old_ids) {
    auto def = old.Find(id);
    ASSERT_TRUE(def.ok());
    EXPECT_EQ(old.Postings((*def)->afk.attrs()[0].signature()).size(), 1u);
  }
}

// Publishers, snapshotters that rewrite against their snapshot, access
// recording and drops, all at once (run under ThreadSanitizer by
// scripts/check.sh). Every snapshot stays internally consistent, and every
// rewrite succeeds and scans only views of its own snapshot.
TEST(ViewStoreStressTest, ConcurrentPublishSnapshotDrop) {
  storage::Dfs dfs;
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterBase(MakeTable("T", 64), {"id"}, &dfs).ok());
  ViewStore store;
  udf::UdfRegistry udfs;
  optimizer::Optimizer optimizer(plan::AnnotationContext{&catalog, &store, &udfs},
                                 optimizer::CostModel());
  rewrite::BfRewriter bfr(&optimizer, &store);
  // The view that answers the query below exactly, and the query.
  const afk::Attribute id = (*catalog.Find("T"))->attrs[0];
  ViewDefinition answer = MakeView("T", "id");
  answer.afk = afk::Afk({id}, afk::FilterSet(), afk::KeySet({id}, 0));
  answer.out_attrs = {id};
  auto query = [] {
    return plan::Plan(plan::Project(plan::Scan("T"), {"id"}), "q");
  };

  constexpr int kRounds = 1000;
  std::atomic<int> publishing{2};
  std::atomic<bool> stop{false};
  std::atomic<int> improved{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<ViewDefinition> batch;
        batch.push_back(MakeView("T" + std::to_string(p), "c" + std::to_string(i)));
        if (i % 3 == 0) batch.push_back(answer);
        if (i % 5 == 0) batch.clear();
        store.PublishBatch(std::move(batch));
      }
      publishing.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {  // drops and access recording
    for (int i = 0; !stop.load(); ++i) {
      const std::vector<const ViewDefinition*> live = store.All();
      if (live.empty()) continue;
      const ViewId victim = live[static_cast<size_t>(i) % live.size()]->id;
      (void)store.RecordAccess(victim, 1.0);
      if (i % 4 == 0) (void)store.Drop(victim);
      if (i % 97 == 0) store.DropAll();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kRounds || publishing.load() > 0; ++i) {
        const ViewSnapshot snap = store.SnapshotAt(store.epoch());
        const std::vector<const ViewDefinition*> all = snap.All();
        for (size_t k = 0; k < all.size(); ++k) {
          if (k > 0) {
            EXPECT_LT(all[k - 1]->id, all[k]->id);
          }
          EXPECT_LE(all[k]->publish_epoch, snap.epoch());
          EXPECT_EQ(&snap.at(k), all[k]);
          auto found = snap.Find(all[k]->id);
          EXPECT_TRUE(found.ok() && *found == all[k]);
        }
        for (uint32_t pos : snap.Postings(id.signature())) {
          EXPECT_LT(pos, snap.size());
          EXPECT_TRUE(snap.at(pos).afk.HasAttr(id));
        }
        plan::Plan q = query();
        auto outcome = bfr.Rewrite(&q, snap);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        if (outcome->improved) improved.fetch_add(1);
        for (const plan::OpNodePtr& node : outcome->plan.TopoOrder()) {
          if (node->kind == plan::OpKind::kScan && node->view_id >= 0) {
            EXPECT_TRUE(snap.Find(node->view_id).ok());
          }
        }
        (void)outcome->decisions.ToText();
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_GT(improved.load(), 0);
}

}  // namespace
}  // namespace opd::catalog
