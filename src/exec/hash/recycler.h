// Cross-query recycling of built hash tables (HashStash-style).
//
// The flat shuffle tables (flat_table.h) are the dominant cost of warm
// analytical queries: every join rebuilds its build side and every group-by
// re-discovers its groups, even when the input is an unchanged base table or
// a published view that every warm rewrite and every tenant probes again.
// "Revisiting Reuse in Main Memory Database Systems" (HashStash) showed the
// built hash table is the highest-leverage intermediate to cache; this
// module is that cache for our engine.
//
// A `HashRecycler` maps a `RecycleKey` — table identity (view id + publish
// epoch, or base-table name), key column set, key-codec modes, build kind,
// and shuffle fan-out — to a fully built, immutable `CachedBuild`. An
// engine with a recycler attached (`Engine::set_recycler`) consults it
// before building a join build side or group-by table whose input is a
// direct scan, and on a hit probes the cached structures through the
// stats-free `*Shared` accessors instead of rebuilding. Correctness rests
// on three invariants:
//
//  1. *Identity*: view identities embed the publish epoch, so a republished
//     view gets a new key and the stale entry is swept by
//     `InvalidateViews` after each `PublishBatch`. Base tables are frozen
//     (append streams are future work, ROADMAP item 2).
//  2. *Pinning*: a cached build stores {batch, row} refs into one concrete
//     input batch list. The `CachedBuild` retains a shared_ptr to that object
//     (so the pointer can never be recycled by the allocator) and `Lookup`
//     compares the caller's live input pointer against `pin`; any mismatch
//     — e.g. a DFS re-read producing a fresh Table — drops the entry.
//  3. *Determinism*: FlatMultiMap preserves insertion order and the cached
//     build/iteration order equals the global row order at every thread
//     count, so recycled probes emit matches byte-identically to a fresh
//     build (gated by the cold-vs-warm test in tests/recycler_test.cc).
//
// Retention reuses the view store's cost-benefit-per-byte heuristic
// (catalog::CostBenefitPerByte, ReStore's policy): each entry accrues
// benefit equal to the build time it saved per hit, and when the byte
// budget is exceeded the lowest benefit-per-byte entries go first.
//
// Thread safety: all public methods are safe for concurrent callers (one
// mutex; the serving layer shares a single recycler across tenants).
// Returned `CachedBuild`s are immutable and shared_ptr-retained, so an
// eviction never invalidates a build a running query already holds.

#ifndef OPD_EXEC_HASH_RECYCLER_H_
#define OPD_EXEC_HASH_RECYCLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "exec/hash/flat_table.h"
#include "storage/table.h"

namespace opd::exec::hash {

/// One input row: batch ordinal + row ordinal within the batch (the payload
/// of cached join builds and grouping routes).
using RowRef = storage::RowRef;

/// The grouping routes of one shuffle bucket: its rows in global row order,
/// the dense group id of each (ids in first-seen order), and each group's
/// key, named by its first row (the key cells are read there, in the input
/// batches). Every grouping shuffle builds them (exec::RunGroupingShuffle);
/// the recycler caches GROUP BY's, whose pinned batches keep the keys valid.
struct GroupRoutes {
  std::vector<RowRef> rows;
  std::vector<uint32_t> group_of;
  std::vector<RowRef> keys;
};

/// Which engine structure a cache entry holds.
enum class RecycleKind : uint8_t {
  kJoinBuild,
  kGroupBy,
};

/// Identity of a published view at a specific publish epoch. Republishing
/// bumps the epoch, so stale entries can never match.
inline std::string ViewIdentity(int64_t view_id, uint64_t publish_epoch) {
  return "view:" + std::to_string(view_id) + "@" +
         std::to_string(publish_epoch);
}

/// Identity of a (frozen) base table.
inline std::string BaseIdentity(const std::string& table) {
  return "base:" + table;
}

/// Cache key: what must match exactly for a built table to be reusable.
struct RecycleKey {
  RecycleKind kind = RecycleKind::kJoinBuild;
  /// ViewIdentity(...) or BaseIdentity(...).
  std::string identity;
  /// Key column positions in the input schema, in key order.
  std::vector<size_t> key_cols;
  /// Per-column KeyColMode of the planned codec. A codec mismatch — e.g.
  /// dict-code keys against one query's probe side but string keys against
  /// another's — must miss, because the stored key bytes would not compare
  /// equal.
  std::vector<uint8_t> codec_modes;
  /// Shuffle fan-out the build was partitioned for.
  uint32_t num_buckets = 1;

  bool operator==(const RecycleKey& o) const {
    return kind == o.kind && num_buckets == o.num_buckets &&
           identity == o.identity && key_cols == o.key_cols &&
           codec_modes == o.codec_modes;
  }
};

struct RecycleKeyHash {
  size_t operator()(const RecycleKey& k) const {
    uint64_t h = HashString(k.identity);
    HashCombine(&h, static_cast<uint64_t>(k.kind));
    HashCombine(&h, k.num_buckets);
    for (size_t c : k.key_cols) HashCombine(&h, c);
    for (uint8_t m : k.codec_modes) HashCombine(&h, m);
    return static_cast<size_t>(h);
  }
};

/// One fully built, immutable set of per-bucket structures. Exactly one
/// payload group is populated, per RecycleKey::kind.
struct CachedBuild {
  // kJoinBuild: the per-bucket build tables.
  std::vector<FlatMultiMap<RowRef>> join;

  // kGroupBy: the per-bucket grouping routes. Aggregates are NOT cached
  // (different queries aggregate differently over the same grouping); a hit
  // replays the routes instead, a hash-free linear pass, just as a miss
  // does once its shuffle has built them.
  std::vector<GroupRoutes> routes;

  // The pinned input: structures above index into exactly this object.
  // Retaining it here makes the `pin` comparison ABA-safe.
  std::shared_ptr<const std::vector<storage::RowBatch>> batches;
  const void* pin = nullptr;

  /// Source view id (-1 for base tables); InvalidateViews sweeps by it.
  int64_t view_id = -1;
  /// Approximate heap bytes (ApproxBytes() fills this at insert when 0).
  uint64_t bytes = 0;
  /// Wall time the original build spent constructing these structures —
  /// the benefit credited per hit.
  double build_cost_s = 0;
};

struct RecyclerStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t bytes = 0;
  size_t entries = 0;
};

/// \brief Thread-safe cross-query cache of built hash tables.
class HashRecycler {
 public:
  struct Config {
    /// Retained-bytes budget; 0 = unbounded.
    uint64_t budget_bytes = 64ull << 20;
  };

  struct InsertResult {
    bool inserted = false;
    size_t evicted = 0;
  };

  HashRecycler() = default;
  explicit HashRecycler(Config config) : config_(config) {}

  /// Returns the cached build for `key` iff its pinned input is `pin`;
  /// otherwise a miss. A pin mismatch (same identity, different live
  /// object) drops the stale entry. A hit bumps the entry's benefit by its
  /// build cost.
  std::shared_ptr<const CachedBuild> Lookup(const RecycleKey& key,
                                            const void* pin);

  /// Inserts `build` under `key`, then evicts lowest
  /// benefit-per-byte entries (insertion-order tie-break) until the budget
  /// holds. If `key` is already present the existing entry wins (two
  /// queries racing to build the same table both built correct structures;
  /// keeping the first is cheapest). A build larger than the whole budget
  /// is not inserted.
  InsertResult Insert(const RecycleKey& key,
                      std::shared_ptr<CachedBuild> build);

  /// Drops every view-sourced entry whose view id fails `alive` (e.g. the
  /// view was evicted by retention, or superseded at a newer epoch).
  /// Returns the number of entries dropped.
  size_t InvalidateViews(const std::function<bool(int64_t)>& alive);

  RecyclerStats stats() const;
  uint64_t bytes() const;
  void Clear();

  /// Heap footprint estimate of one cached build.
  static uint64_t ApproxBytes(const CachedBuild& build);

 private:
  struct Entry {
    std::shared_ptr<CachedBuild> build;
    /// Cumulative build seconds saved by hits on this entry.
    double benefit_s = 0;
    uint64_t hits = 0;
    /// Insertion sequence number (deterministic eviction tie-break).
    uint64_t seq = 0;
  };

  /// Evicts until the budget holds. Caller holds mu_.
  size_t EnforceBudgetLocked();

  mutable std::mutex mu_;
  Config config_;
  std::unordered_map<RecycleKey, Entry, RecycleKeyHash> entries_;
  uint64_t bytes_ = 0;
  uint64_t seq_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t inserts_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace opd::exec::hash

#endif  // OPD_EXEC_HASH_RECYCLER_H_
