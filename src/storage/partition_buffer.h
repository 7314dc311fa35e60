// Append-only shuffle buffer for morsel-driven shuffles (DESIGN.md
// "Parallel execution model").
//
// The buffer is a `num_producers x num_buckets` grid of independent
// append-only arenas: fused map tasks partition rows as they produce them,
// each task writing only its own row of slots — no shared hash map, no
// lock, no full map-output table materialized between the map and reduce
// sides of a shuffle.
//
// Determinism: a bucket is consumed by iterating its slots in ascending
// producer order. Producers are assigned contiguous, ascending input splits
// (storage::SplitRowsByBlockSize / batch order), so the concatenation of a
// bucket's chunks reproduces the global input row order — the order a
// serial pass over the input sees — for any producer, bucket, or thread
// count.

#ifndef OPD_STORAGE_PARTITION_BUFFER_H_
#define OPD_STORAGE_PARTITION_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace opd::storage {

/// \brief Thread-local-per-producer partition buffer.
///
/// Concurrency contract: producer `p` may append to its own slots while
/// other producers append to theirs; a bucket may be read once every
/// producer has finished (the engine's reduce wave starts only after the
/// whole producer wave). Slots are padded to cache lines so two
/// producers never contend on adjacent slot headers.
template <typename T>
class PartitionBuffer {
 public:
  PartitionBuffer(size_t num_producers, size_t num_buckets)
      : num_producers_(num_producers),
        num_buckets_(std::max<size_t>(num_buckets, 1)),
        slots_(num_producers_ * num_buckets_) {}

  size_t num_producers() const { return num_producers_; }
  size_t num_buckets() const { return num_buckets_; }

  /// Pre-sizes producer `p`'s slots for roughly `rows` appends spread
  /// evenly over the buckets.
  void ReserveProducer(size_t p, size_t rows) {
    const size_t per_bucket = rows / num_buckets_ + 1;
    for (size_t b = 0; b < num_buckets_; ++b) {
      slot(p, b).reserve(per_bucket);
    }
  }

  /// Appends one element to producer `p`'s arena for bucket `b`.
  void Append(size_t p, size_t b, T value) {
    slot(p, b).push_back(std::move(value));
  }

  /// Total elements landed in bucket `b` across all producers.
  size_t BucketSize(size_t b) const {
    size_t total = 0;
    for (size_t p = 0; p < num_producers_; ++p) total += slot(p, b).size();
    return total;
  }

  /// Applies `fn` to every element of bucket `b`, producer chunks in
  /// ascending producer order (= global input row order, see file comment).
  template <typename Fn>
  void ForEachInBucket(size_t b, Fn&& fn) const {
    for (size_t p = 0; p < num_producers_; ++p) {
      for (const T& v : slot(p, b)) fn(v);
    }
  }

 private:
  // One arena per (producer, bucket); the alignment keeps concurrent
  // producers' vector headers (size/capacity updates on push_back) off each
  // other's cache lines.
  struct alignas(64) Slot {
    std::vector<T> items;
  };

  std::vector<T>& slot(size_t p, size_t b) {
    return slots_[p * num_buckets_ + b].items;
  }
  const std::vector<T>& slot(size_t p, size_t b) const {
    return slots_[p * num_buckets_ + b].items;
  }

  size_t num_producers_;
  size_t num_buckets_;
  std::vector<Slot> slots_;
};

}  // namespace opd::storage

#endif  // OPD_STORAGE_PARTITION_BUFFER_H_
