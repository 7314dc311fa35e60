// Flat open-addressing hash tables for the shuffle reduce side.
//
// FlatKeyIndex is the core: a linear-probe, power-of-two slot array of
// {64-bit hash, 32-bit payload id} pairs. It stores no keys — callers keep
// key bytes (FlatGroupIndex / FlatMultiMap store canonical key encodings in
// a bump-allocated KeyArena) and verify candidates through an equality
// callback, so a probe touches one contiguous slot array and the actual key
// bytes only on a hash hit. Pre-sizing via Reserve (exact build-side counts
// for joins, cardinality estimates for group-bys) makes the insert loops
// allocation-free; growth beyond the reservation is counted in
// FlatStats::resizes and surfaces as the engine.shuffle.ht_resizes counter.
//
// These tables are per-reduce-task (one bucket each) and single-threaded
// while being built; nothing here is safe for concurrent mutation. A fully
// built table may be probed concurrently from many threads through the
// `FindShared` / `ForEachMatchShared` variants only — they skip the mutable
// FlatStats bookkeeping the regular probes update (this is what the
// cross-query recycler, recycler.h, relies on).

#ifndef OPD_EXEC_HASH_FLAT_TABLE_H_
#define OPD_EXEC_HASH_FLAT_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

// Probe-loop prefetch of the next linear-probe slot: hides the latency of
// the (random) slot-array cache line behind the key comparison of the
// current one. Toggleable per table (set_prefetch) so micro_hash can report
// before/after numbers.
#if defined(__GNUC__) || defined(__clang__)
#define OPD_FLAT_PREFETCH(addr) __builtin_prefetch((addr))
#else
#define OPD_FLAT_PREFETCH(addr) ((void)0)
#endif

namespace opd::exec::hash {

/// Probe/resize observability of one flat table (fed into the
/// engine.shuffle.* metrics).
struct FlatStats {
  uint64_t resizes = 0;      ///< growths beyond the initial reservation
  uint64_t probe_steps = 0;  ///< extra slots visited past the home slot
  uint64_t lookups = 0;      ///< InsertOrGet + Find calls
};

/// Bump allocator for key bytes: chunked, pointer-stable, freed wholesale
/// with the table. Reserve() pre-sizes the first chunk so bounded-width
/// keys (numeric / dict-code) never allocate inside the insert loop.
class KeyArena {
 public:
  void Reserve(size_t bytes);
  const char* Store(const char* data, uint32_t n);
  size_t total_bytes() const { return total_; }

 private:
  void NewChunk(size_t min_bytes);

  static constexpr size_t kMinChunk = 4096;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;
  size_t avail_ = 0;
  size_t last_chunk_ = 0;
  size_t total_ = 0;
};

/// The open-addressing {hash, id} index. Ids are caller-assigned dense
/// indices into caller-side payload arrays.
class FlatKeyIndex {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Pre-sizes for `keys` distinct keys (<= 7/8 load after all inserts).
  void Reserve(size_t keys) {
    const size_t want = NextPow2(keys + keys / 7 + 1);
    if (want > slots_.size()) Rehash(want);
  }

  /// Finds the id stored under a key equal to the probe key (`eq(id)` says
  /// whether stored id's key matches), inserting `next_id` if absent.
  /// Returns {id, inserted}.
  template <typename Eq>
  std::pair<uint32_t, bool> InsertOrGet(uint64_t h, uint32_t next_id,
                                        Eq&& eq) {
    if (size_ + 1 > max_fill_) {
      if (!slots_.empty()) ++stats_.resizes;
      Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    ++stats_.lookups;
    size_t i = static_cast<size_t>(h) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s.hash = h;
        s.id = next_id;
        ++size_;
        return {next_id, true};
      }
      if (s.hash == h && eq(s.id)) return {s.id, false};
      i = (i + 1) & mask_;
      // Collision chain: hide the next slot's cache line behind this
      // step's key comparison. Home-slot lookups (the common case at the
      // 7/8 load cap) never pay for a prefetch.
      if (prefetch_) OPD_FLAT_PREFETCH(&slots_[(i + 1) & mask_]);
      ++stats_.probe_steps;
    }
  }

  /// Lookup without insert; kNone when absent.
  template <typename Eq>
  uint32_t Find(uint64_t h, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    ++stats_.lookups;
    size_t i = static_cast<size_t>(h) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.hash == h && eq(s.id)) return s.id;
      i = (i + 1) & mask_;
      if (prefetch_) OPD_FLAT_PREFETCH(&slots_[(i + 1) & mask_]);
      ++stats_.probe_steps;
    }
  }

  /// Find without the FlatStats bookkeeping: safe to call concurrently from
  /// many threads on a fully built, no-longer-mutated index (the regular
  /// probes bump the mutable stats counters and therefore are not).
  template <typename Eq>
  uint32_t FindShared(uint64_t h, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    size_t i = static_cast<size_t>(h) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.hash == h && eq(s.id)) return s.id;
      i = (i + 1) & mask_;
      if (prefetch_) OPD_FLAT_PREFETCH(&slots_[(i + 1) & mask_]);
    }
  }

  /// Probe-slot prefetching on/off (default on; micro_hash ablation knob).
  void set_prefetch(bool on) { prefetch_ = on; }

  /// Approximate heap footprint of the slot array (recycler budgeting).
  size_t memory_bytes() const { return slots_.capacity() * sizeof(Slot); }

  size_t size() const { return size_; }
  double load_factor() const {
    return slots_.empty() ? 0.0
                          : static_cast<double>(size_) /
                                static_cast<double>(slots_.size());
  }
  const FlatStats& stats() const { return stats_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNone;
  };
  static constexpr size_t kMinSlots = 16;

  static size_t NextPow2(size_t n) {
    size_t p = kMinSlots;
    while (p < n) p <<= 1;
    return p;
  }

  void Rehash(size_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    mask_ = new_slots - 1;
    max_fill_ = new_slots - new_slots / 8;  // 7/8 max load
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      size_t i = static_cast<size_t>(s.hash) & mask_;
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t max_fill_ = 0;
  bool prefetch_ = true;
  mutable FlatStats stats_;
};

/// Group index for hash aggregation: canonical key bytes -> dense group id
/// (assigned in first-seen order, so ids index the caller's group array).
class FlatGroupIndex {
 public:
  /// `expected_keys` pre-sizes the index; `key_width_bound` (> 0 for
  /// bounded codecs) pre-sizes the arena so inserts never allocate.
  void Reserve(size_t expected_keys, size_t key_width_bound) {
    index_.Reserve(expected_keys);
    keys_.reserve(expected_keys);
    if (key_width_bound > 0) arena_.Reserve(expected_keys * key_width_bound);
  }

  std::pair<uint32_t, bool> InsertOrGet(uint64_t h, const char* key,
                                        uint32_t len) {
    auto r = index_.InsertOrGet(
        h, static_cast<uint32_t>(keys_.size()), [&](uint32_t id) {
          return keys_[id].len == len &&
                 std::memcmp(keys_[id].data, key, len) == 0;
        });
    if (r.second) keys_.push_back(KeyRef{arena_.Store(key, len), len});
    return r;
  }

  size_t size() const { return keys_.size(); }
  double load_factor() const { return index_.load_factor(); }
  const FlatStats& stats() const { return index_.stats(); }
  size_t arena_bytes() const { return arena_.total_bytes(); }
  void set_prefetch(bool on) { index_.set_prefetch(on); }
  size_t memory_bytes() const {
    return index_.memory_bytes() + arena_.total_bytes() +
           keys_.capacity() * sizeof(KeyRef);
  }

 private:
  struct KeyRef {
    const char* data;
    uint32_t len;
  };
  FlatKeyIndex index_;
  KeyArena arena_;
  std::vector<KeyRef> keys_;
};

/// Join build table: canonical key bytes -> the list of build-side payloads
/// inserted under that key, chained in insertion order (so probes emit
/// matches in build-row order).
template <typename Ref>
class FlatMultiMap {
 public:
  /// `build_rows` is the exact build-side row count of this bucket: the
  /// per-insert arrays (payloads, chain links) reserve it up front.
  /// `distinct_hint` > 0 sizes the per-key arrays (index slots, key refs,
  /// chain heads/tails, arena) for that many distinct keys — the optimizer's
  /// distinct estimate for the build keys; 0 keeps the worst case of
  /// all-distinct keys. Under-estimates only cost growth (counted in
  /// FlatStats::resizes), never correctness. `key_width_bound` > 0
  /// additionally pre-sizes the key arena (bounded codecs: numeric /
  /// dict-code keys).
  void Reserve(size_t build_rows, size_t key_width_bound,
               size_t distinct_hint = 0) {
    const size_t keys =
        distinct_hint > 0 ? std::min(distinct_hint, build_rows) : build_rows;
    index_.Reserve(keys);
    keys_.reserve(keys);
    head_.reserve(keys);
    tail_.reserve(keys);
    refs_.reserve(build_rows);
    next_.reserve(build_rows);
    if (key_width_bound > 0) arena_.Reserve(keys * key_width_bound);
  }

  void Insert(uint64_t h, const char* key, uint32_t len, Ref ref) {
    auto [id, inserted] = index_.InsertOrGet(
        h, static_cast<uint32_t>(keys_.size()), [&](uint32_t cand) {
          return keys_[cand].len == len &&
                 std::memcmp(keys_[cand].data, key, len) == 0;
        });
    const uint32_t e = static_cast<uint32_t>(refs_.size());
    refs_.push_back(ref);
    next_.push_back(FlatKeyIndex::kNone);
    if (inserted) {
      keys_.push_back(KeyRef{arena_.Store(key, len), len});
      head_.push_back(e);
      tail_.push_back(e);
    } else {
      next_[tail_[id]] = e;
      tail_[id] = e;
    }
  }

  /// Calls `fn(ref)` for every build payload stored under the probe key,
  /// in insertion order.
  template <typename Fn>
  void ForEachMatch(uint64_t h, const char* key, uint32_t len,
                    Fn&& fn) const {
    const uint32_t id = index_.Find(h, [&](uint32_t cand) {
      return keys_[cand].len == len &&
             std::memcmp(keys_[cand].data, key, len) == 0;
    });
    if (id == FlatKeyIndex::kNone) return;
    for (uint32_t e = head_[id]; e != FlatKeyIndex::kNone; e = next_[e]) {
      fn(refs_[e]);
    }
  }

  /// ForEachMatch without the FlatStats bookkeeping: safe to call
  /// concurrently from many threads on a fully built table (the recycler's
  /// shared-probe path).
  template <typename Fn>
  void ForEachMatchShared(uint64_t h, const char* key, uint32_t len,
                          Fn&& fn) const {
    const uint32_t id = index_.FindShared(h, [&](uint32_t cand) {
      return keys_[cand].len == len &&
             std::memcmp(keys_[cand].data, key, len) == 0;
    });
    if (id == FlatKeyIndex::kNone) return;
    for (uint32_t e = head_[id]; e != FlatKeyIndex::kNone; e = next_[e]) {
      fn(refs_[e]);
    }
  }

  size_t size() const { return keys_.size(); }
  double load_factor() const { return index_.load_factor(); }
  const FlatStats& stats() const { return index_.stats(); }
  size_t arena_bytes() const { return arena_.total_bytes(); }
  void set_prefetch(bool on) { index_.set_prefetch(on); }
  size_t memory_bytes() const {
    return index_.memory_bytes() + arena_.total_bytes() +
           keys_.capacity() * sizeof(KeyRef) +
           (head_.capacity() + tail_.capacity() + next_.capacity()) *
               sizeof(uint32_t) +
           refs_.capacity() * sizeof(Ref);
  }

 private:
  struct KeyRef {
    const char* data;
    uint32_t len;
  };
  FlatKeyIndex index_;
  KeyArena arena_;
  std::vector<KeyRef> keys_;
  std::vector<uint32_t> head_, tail_;  // per key id: chain ends
  std::vector<Ref> refs_;              // per insert: payload
  std::vector<uint32_t> next_;         // per insert: chain link
};

}  // namespace opd::exec::hash

#endif  // OPD_EXEC_HASH_FLAT_TABLE_H_
