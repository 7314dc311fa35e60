// Vectorized shuffle hashing: batch-wide 64-bit key hashes computed
// column-at-a-time over typed lanes, plus the canonical key-byte encoding
// the flat hash tables (flat_table.h) verify against.
//
// The key hash (HashKeys over batches; tests/flat_hash_test.cc keeps its
// per-row definition as the reference) is a well-mixed 64-bit hash of
// the key cells under Value-equality semantics (numerics hash through their
// normalized double, so 1 == 1.0 == true hash-equal; -0.0 normalizes to
// 0.0). It differs from storage::RowHash. Dictionary-encoded string columns
// reuse the dictionary's precomputed per-entry hashes, so each distinct
// string is hashed once per table, not once per row. Bucket mapping uses the
// multiply-shift BucketOf below — no per-row integer division. Every shuffle
// consumer merges its buckets in a deterministic global order (probe-row
// order for joins, key-sorted for GROUP BY and UDF reduce stages), so the
// bucket mapping is unobservable in results.
//
// Key bytes: NormalizeKey appends a canonical encoding of the key cells into
// a reusable KeyScratch (the same test keeps its per-row definition).
// Equal encodings <=> equal keys (numerics through
// their normalized double; NaN compares by its bit pattern). A KeyCodec,
// planned once per shuffle input from the batches' lanes, picks the
// per-column fast path — including a dictionary-code encoding (tag + 32-bit
// code) when every batch on every side of the shuffle shares one dictionary
// object for that key column, which makes string-keyed group-bys
// fixed-width.

#ifndef OPD_EXEC_HASH_HASH_KERNELS_H_
#define OPD_EXEC_HASH_HASH_KERNELS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/hash.h"
#include "storage/row_batch.h"
#include "storage/value.h"

namespace opd::exec::hash {

/// Seed of the per-row key-hash fold.
inline constexpr uint64_t kKeySeed = 0xcbf29ce484222325ULL;

/// Flat hash of a null cell (any mixed constant works; fixed for life so
/// bucket layouts are stable across runs).
inline constexpr uint64_t kNullCellHash = 0x9ae16a3b2f90404fULL;

/// Finalizer of splitmix64: full-avalanche 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Flat hash of one numeric cell: mix of the normalized double bits
/// (-0.0 -> 0.0), so every numeric type hashes through its double value.
inline uint64_t HashNumericCell(double d) {
  if (d == 0.0) d = 0.0;  // normalize -0.0
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(d));
  return Mix64(bits);
}

/// Flat hash of one cell given its row Value. Lane-independent: a cell
/// hashes the same whether it sits in a native lane, a variant lane, or a
/// row — required because one table column may be native in one batch and
/// demoted in another.
inline uint64_t FlatCellHash(const storage::Value& v) {
  switch (v.type()) {
    case storage::DataType::kNull:
      return kNullCellHash;
    case storage::DataType::kString:
      return HashString(v.as_string());
    default:
      return HashNumericCell(v.ToDouble());
  }
}

/// Multiply-shift bucket mapping: maps a 64-bit hash to [0, num_buckets)
/// without a division. Uses the high hash bits, leaving the low bits for
/// the flat tables' slot index (h & mask) so bucket and slot stay
/// uncorrelated. Requires num_buckets < 2^32 (engine caps at 64).
inline uint32_t BucketOf(uint64_t h, size_t num_buckets) {
  return static_cast<uint32_t>(((h >> 32) * static_cast<uint64_t>(num_buckets)) >>
                               32);
}

/// Computes the flat key hash of rows [begin, end) of `batch` into `out`
/// (length end - begin), column-at-a-time over the typed lanes.
void HashKeys(const storage::RowBatch& batch, size_t begin, size_t end,
              const std::vector<size_t>& cols, uint64_t* out);

/// Reusable buffer the canonical key bytes are normalized into. Keys up to
/// kInline bytes (any numeric-only key of <= 5 columns) live in the inline
/// stack buffer; longer keys spill to a heap buffer that is retained across
/// Clear() calls, so steady-state normalization never allocates.
class KeyScratch {
 public:
  KeyScratch() = default;
  KeyScratch(const KeyScratch&) = delete;
  KeyScratch& operator=(const KeyScratch&) = delete;

  void Clear() { len_ = 0; }
  void PushByte(char c) {
    Ensure(1);
    buf_[len_++] = c;
  }
  void Append(const void* p, size_t n) {
    Ensure(n);
    std::memcpy(buf_ + len_, p, n);
    len_ += n;
  }
  const char* data() const { return buf_; }
  uint32_t size() const { return static_cast<uint32_t>(len_); }

 private:
  void Ensure(size_t n) {
    if (len_ + n > cap_) Grow(len_ + n);
  }
  void Grow(size_t need);

  static constexpr size_t kInline = 48;
  char inline_[kInline];
  std::vector<char> heap_;
  char* buf_ = inline_;
  size_t cap_ = kInline;
  size_t len_ = 0;
};

// Canonical cell encodings:
//   '\0'                      null
//   '\1' + 8B normalized double  numeric (bool/int64/double)
//   '\2' + u32 len + bytes       string
//   '\3' + u32 dictionary code   string via shared dictionary (KeyCodec only)
inline void EncodeNumericCell(double d, KeyScratch* out) {
  if (d == 0.0) d = 0.0;  // normalize -0.0
  out->PushByte('\1');
  out->Append(&d, sizeof(d));
}

inline void EncodeStringCell(const std::string& s, KeyScratch* out) {
  const uint32_t len = static_cast<uint32_t>(s.size());
  out->PushByte('\2');
  out->Append(&len, sizeof(len));
  out->Append(s.data(), s.size());
}

inline void EncodeCell(const storage::Value& v, KeyScratch* out) {
  switch (v.type()) {
    case storage::DataType::kNull:
      out->PushByte('\0');
      return;
    case storage::DataType::kString:
      EncodeStringCell(v.as_string(), out);
      return;
    default:
      EncodeNumericCell(v.ToDouble(), out);
      return;
  }
}

/// Per-column encoding mode of a KeyCodec (see PlanKeyCodecs).
enum class KeyColMode : uint8_t {
  kNumeric,   ///< native bool/int64/double lane: tag + normalized double
  kString,    ///< native string lane: tag + length + bytes
  kDictCode,  ///< native string lanes sharing ONE dictionary: tag + code
  kCell,      ///< variant/mixed lanes: per-cell canonical encoding
};

/// Per-shuffle-input normalization plan: which fast path encodes each key
/// column, plus whether the whole key has a fixed width bound (numeric /
/// dict-code columns only) — the flat tables use the bound to pre-size
/// their key arenas exactly.
struct KeyCodec {
  std::vector<size_t> cols;
  std::vector<KeyColMode> modes;
  bool bounded = false;
  size_t width_bound = 0;  ///< max encoded bytes per key when `bounded`
};

/// One input side of a shuffle (a join has two; group-by has one).
struct KeySide {
  const std::vector<storage::RowBatch>* batches;
  const std::vector<size_t>* cols;
};

/// Plans one KeyCodec per side. Key position k may use kDictCode only when
/// every batch of every side is a native string lane at that position and
/// all their (non-null) dictionaries are the same object — the encodings of
/// the remaining modes are mutually byte-compatible, so the other positions
/// are chosen per side independently.
std::vector<KeyCodec> PlanKeyCodecs(const std::vector<KeySide>& sides);

/// Normalizes the key cells of row `row` of `batch` into `out`, following
/// the codec's per-column modes. Equal outputs <=> equal keys, across every
/// side the codec was planned with.
void NormalizeKey(const storage::RowBatch& batch, size_t row,
                  const KeyCodec& codec, KeyScratch* out);

}  // namespace opd::exec::hash

#endif  // OPD_EXEC_HASH_HASH_KERNELS_H_
