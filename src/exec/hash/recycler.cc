#include "exec/hash/recycler.h"

#include <algorithm>
#include <utility>

#include "catalog/eviction.h"

namespace opd::exec::hash {

namespace {

template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}

}  // namespace

uint64_t HashRecycler::ApproxBytes(const CachedBuild& build) {
  uint64_t b = sizeof(CachedBuild);
  for (const auto& ht : build.join) b += ht.memory_bytes();
  for (const GroupRoutes& r : build.routes) {
    b += VectorBytes(r.rows) + VectorBytes(r.group_of) + VectorBytes(r.keys);
  }
  return b;
}

std::shared_ptr<const CachedBuild> HashRecycler::Lookup(const RecycleKey& key,
                                                        const void* pin) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  Entry& entry = it->second;
  if (entry.build->pin != pin) {
    // Same identity but a different live input object (e.g. the DFS
    // re-read the table into a fresh instance). The cached indices are
    // meaningless against the caller's input: drop the entry.
    bytes_ -= std::min(bytes_, entry.build->bytes);
    entries_.erase(it);
    ++misses_;
    return nullptr;
  }
  ++hits_;
  ++entry.hits;
  entry.benefit_s += entry.build->build_cost_s;
  return entry.build;
}

HashRecycler::InsertResult HashRecycler::Insert(
    const RecycleKey& key, std::shared_ptr<CachedBuild> build) {
  InsertResult result;
  if (build == nullptr) return result;
  if (build->bytes == 0) build->bytes = ApproxBytes(*build);
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.budget_bytes != 0 && build->bytes > config_.budget_bytes) {
    return result;  // could never fit, even alone
  }
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) return result;  // concurrent builder won the race
  it->second.build = std::move(build);
  it->second.seq = seq_++;
  bytes_ += it->second.build->bytes;
  ++inserts_;
  result.inserted = true;
  result.evicted = EnforceBudgetLocked();
  return result;
}

size_t HashRecycler::EnforceBudgetLocked() {
  if (config_.budget_bytes == 0 || bytes_ <= config_.budget_bytes) return 0;
  std::vector<const std::pair<const RecycleKey, Entry>*> order;
  order.reserve(entries_.size());
  for (const auto& kv : entries_) order.push_back(&kv);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    const double sa = catalog::CostBenefitPerByte(a->second.benefit_s,
                                                  a->second.build->bytes);
    const double sb = catalog::CostBenefitPerByte(b->second.benefit_s,
                                                  b->second.build->bytes);
    if (sa != sb) return sa < sb;
    return a->second.seq < b->second.seq;  // deterministic tie-break
  });
  size_t evicted = 0;
  for (const auto* kv : order) {
    if (bytes_ <= config_.budget_bytes) break;
    bytes_ -= std::min(bytes_, kv->second.build->bytes);
    const RecycleKey key = kv->first;  // copy: erase frees the node
    entries_.erase(key);
    ++evicted;
  }
  evictions_ += evicted;
  return evicted;
}

size_t HashRecycler::InvalidateViews(
    const std::function<bool(int64_t)>& alive) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const int64_t vid = it->second.build->view_id;
    if (vid >= 0 && !alive(vid)) {
      bytes_ -= std::min(bytes_, it->second.build->bytes);
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

RecyclerStats HashRecycler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RecyclerStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.inserts = inserts_;
  s.evictions = evictions_;
  s.bytes = bytes_;
  s.entries = entries_.size();
  return s;
}

uint64_t HashRecycler::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void HashRecycler::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  bytes_ = 0;
}

}  // namespace opd::exec::hash
