// Columnar cell storage: one typed, contiguous vector per column with a
// validity bitmap and dictionary-encoded strings.
//
// A ColumnVector is the unit the vectorized engine kernels operate on. For
// the common case (every non-null cell matches the column's declared
// DataType) cells live in flat native arrays — int64/double values are
// stored directly, strings are interned into a per-column dictionary and
// represented by 32-bit codes. Cell hashes and byte sizes are defined to be
// *identical* to the row representation's `Value::Hash()` / `Value::
// ByteSize()`, so shuffle bucketing, metrics and stats computed from
// columns equal their definitions over rows.
//
// Dictionaries are shared, refcounted objects (`Dictionary`). All batches of
// one table column built by `Table::AppendRow()` share a single
// table-wide dictionary, and gathering a subset of a string
// column (filter selections, join output assembly) shares the source
// dictionary instead of re-interning the surviving strings — string data
// stays dictionary-encoded *across* operators; only the 32-bit codes move. A
// column that merely references a shared dictionary never mutates it:
// interning a string that is new to a shared, non-owned dictionary first
// clones it (copy-on-write), so sealed columns on other threads are never
// affected.
//
// Rows are dynamically typed, so a column may legally contain a cell whose
// type differs from the schema's declared type. Such a column transparently
// falls back to a boxed `std::vector<Value>` lane ("variant lane"); all
// accessors keep working, only the native fast paths switch off.

#ifndef OPD_STORAGE_COLUMN_VECTOR_H_
#define OPD_STORAGE_COLUMN_VECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/value.h"

namespace opd::storage {

class ColumnVector;

/// \brief An append-only string dictionary shared between columns.
///
/// Entry codes are stable once assigned. Hashes and byte lengths are
/// precomputed per entry so cell hashing and byte accounting never touch
/// the string bytes again. Lookups go through an open-addressing index over
/// the codes, keyed by those same hashes, so each string is hashed once.
struct Dictionary {
  std::vector<std::string> entries;
  std::vector<uint64_t> hashes;   // Value::Hash of each entry
  std::vector<size_t> lengths;    // byte length of each entry

  size_t size() const { return entries.size(); }

  /// Returns the code of `s`, appending a new entry if absent.
  uint32_t Intern(const std::string& s);
  /// Intern for a string whose hash `h` (`Value::Hash`) is known; moves `s`
  /// in when it is new.
  uint32_t Intern(std::string&& s, uint64_t h);
  /// The code of `s`, or -1 when absent; never mutates.
  int64_t Find(const std::string& s) const;

 private:
  /// Index of the slot holding `s`, or of the empty slot where it belongs.
  size_t Probe(const std::string& s, uint64_t h) const;
  /// Grows the index (load stays at most 1/2) and returns `s`'s slot.
  size_t SlotForInsert(const std::string& s, uint64_t h);

  std::vector<uint32_t> slots_;  // code + 1 per slot, 0 = empty
};

using DictionaryPtr = std::shared_ptr<Dictionary>;

/// Memoized code translation between two string dictionaries, used when
/// gathering cells from a source column into a destination column (filter
/// selection, join output assembly). Keyed by the source *dictionary* (not
/// the column), so the memo survives across the batches of one table, which
/// all share a dictionary. Each distinct source code is resolved against the
/// destination dictionary at most once.
struct DictRemap {
  const Dictionary* src = nullptr;
  std::vector<int32_t> codes;  // src code -> dst code, -1 = not yet mapped
};

/// \brief Typed contiguous storage for one column of a RowBatch.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType declared_type() const { return type_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }
  /// True while every non-null cell matches the declared type (native
  /// arrays in use); false once the column fell back to the variant lane.
  bool is_native() const { return native_; }

  void Reserve(size_t n);

  /// Appends a cell. Null values set the validity bit only; a non-null
  /// value whose type mismatches the declared type demotes the column to
  /// the variant lane (existing cells are re-boxed).
  void Append(const Value& v);
  void AppendNull();

  /// Re-encodes a native string column into `dict`: interns each entry of
  /// its own dictionary there (moving the strings when no other column
  /// holds that dictionary) and rewrites the codes of its non-null cells.
  /// The column then appends into `dict` in place, without copy-on-write.
  /// For serial builders that grow one table-wide dictionary across many
  /// columns (`Table::AppendRow`, and a map-final UDF merging the batches
  /// its tasks encoded); no other thread may read `dict` meanwhile.
  /// Other columns are unchanged.
  void MergeDictInto(const DictionaryPtr& dict);

  /// Appends cell `i` of `src`. When both columns are native strings a
  /// `remap` memoizes dictionary code translation across calls. A string
  /// column with no dictionary of its own adopts `src`'s shared dictionary
  /// (no interning); once adopted, cells from any column sharing that
  /// dictionary append as bare code copies.
  void AppendFrom(const ColumnVector& src, size_t i, DictRemap* remap);

  /// Gathers the cells at `sel[0..n)` (ascending row indices) into a new
  /// column. Typed lanes copy natively; string columns share this column's
  /// dictionary (codes are gathered, strings are not touched); variant
  /// columns fall back to boxed appends. Byte-identical to appending
  /// `GetValue(sel[k])` for each k.
  std::shared_ptr<ColumnVector> GatherTo(const uint32_t* sel, size_t n) const;

  bool IsNull(size_t i) const { return !ValidBit(i); }

  /// Reconstructs the cell as a row Value — exact round-trip of what was
  /// appended (bit-identical doubles, byte-identical strings).
  Value GetValue(size_t i) const;

  /// Type of cell `i` as `GetValue(i).type()` reads it: kNull for a null
  /// cell, else the declared type, or the boxed cell's in the variant lane.
  DataType CellType(size_t i) const {
    if (IsNull(i)) return DataType::kNull;
    return native_ ? type_ : variant_[i].type();
  }

  /// Cell `i` as `GetValue(i).ToDouble()` reads it: bool, int64 and double
  /// cells as numbers, null and string cells as 0.
  double NumberAt(size_t i) const;

  /// Cell `i` as `GetValue(i).as_int64()` reads it: the value of an int64
  /// cell; any other cell throws, as `as_int64` does.
  int64_t Int64At(size_t i) const {
    if (native_ && type_ == DataType::kInt64 && ValidBit(i)) return ints_[i];
    return GetValue(i).as_int64();
  }

  /// The string of cell `i`, which must be a string cell, without a copy.
  const std::string& StringRef(size_t i) const {
    return native_ ? dict_->entries[codes_[i]] : variant_[i].as_string();
  }

  /// Hash of cell `i`, equal to `GetValue(i).Hash()`. String hashes are
  /// computed once per distinct dictionary entry.
  uint64_t HashAt(size_t i) const;

  /// Serialized width of cell `i`, equal to `GetValue(i).ByteSize()`.
  size_t CellByteSize(size_t i) const;

  /// Sum of all cells' byte sizes (row-representation-identical).
  size_t ByteSize() const;

  // -- Native accessors (valid only when is_native() and the declared type
  //    matches; null cells hold zero placeholders in the arrays). --
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  uint32_t code_at(size_t i) const { return codes_[i]; }
  const uint32_t* codes() const { return codes_.data(); }
  const std::string& dict_entry(uint32_t code) const {
    return dict_->entries[code];
  }
  size_t dict_size() const { return dict_ == nullptr ? 0 : dict_->size(); }
  const std::string& string_at(size_t i) const {
    return dict_->entries[codes_[i]];
  }
  /// The shared dictionary (null until a string was appended). Columns
  /// sharing a dictionary compare equal codes as equal strings.
  const DictionaryPtr& dict() const { return dict_; }
  /// Validity bitmap words (bit i set = cell i non-null); may be read
  /// directly by kernels. Valid for the first `size()` bits.
  const uint64_t* valid_words() const { return valid_.data(); }

 private:
  bool ValidBit(size_t i) const {
    return (valid_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void PushValidBit(bool valid);
  uint32_t Intern(const std::string& s);
  /// Clones a shared, non-owned dictionary before first mutation.
  void EnsureOwnedDict();
  /// Re-boxes every cell into the variant lane and drops native arrays.
  void DemoteToVariant();

  DataType type_;
  bool native_ = true;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<uint64_t> valid_;  // bit i set = cell i non-null

  // Exactly one of these lanes is populated, per declared_type() (or the
  // variant lane after demotion).
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  // Shared string dictionary; owns_dict_ is true when this column may
  // append entries in place (it created the dictionary, or adopted it
  // through MergeDictInto). A non-owned dictionary is cloned before any
  // mutation (copy-on-write).
  DictionaryPtr dict_;
  bool owns_dict_ = false;
  std::vector<Value> variant_;
};

using ColumnVectorPtr = std::shared_ptr<ColumnVector>;

/// Three-way comparison of cell `i` of `a` with cell `j` of `b` under
/// Value's total order (negative when `a.GetValue(i) < b.GetValue(j)`,
/// positive when `b.GetValue(j) < a.GetValue(i)`, else 0), read from the
/// lanes without boxing: null < bool, int64 and double (compared as
/// doubles, so a NaN compares equal to everything numeric) < string.
int CompareCells(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j);

}  // namespace opd::storage

#endif  // OPD_STORAGE_COLUMN_VECTOR_H_
