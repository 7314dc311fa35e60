#include "storage/column_vector.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"

namespace opd::storage {

namespace {

// Hash of a numeric cell through its double value — the exact recipe of
// `Value::Hash()` for bool/int64/double so that row and batch hashes agree.
uint64_t NumericHash(double d) {
  if (d == 0.0) d = 0.0;  // normalize -0.0 to +0.0
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(d));
  uint64_t h = 0x123456789abcdefULL;
  HashCombine(&h, bits);
  return h;
}

constexpr uint64_t kNullHash = 0x6e756c6cULL;  // Value::Hash() of null

// First slot to probe for hash `h` in an index of `mask + 1` slots. The
// multiply mixes FNV's weak low bits before masking.
size_t SlotOf(uint64_t h, size_t mask) {
  return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
}

}  // namespace

size_t Dictionary::Probe(const std::string& s, uint64_t h) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = SlotOf(h, mask);; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0 || (hashes[slot - 1] == h && entries[slot - 1] == s)) {
      return i;
    }
  }
}

size_t Dictionary::SlotForInsert(const std::string& s, uint64_t h) {
  if (2 * (entries.size() + 1) > slots_.size()) {
    std::vector<uint32_t> slots(std::max<size_t>(16, 2 * slots_.size()));
    const size_t mask = slots.size() - 1;
    for (uint32_t code = 0; code < entries.size(); ++code) {
      size_t i = SlotOf(hashes[code], mask);
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = code + 1;
    }
    slots_ = std::move(slots);
  }
  return Probe(s, h);
}

uint32_t Dictionary::Intern(const std::string& s) {
  const uint64_t h = HashString(s);
  const size_t i = SlotForInsert(s, h);
  if (slots_[i] == 0) return Intern(std::string(s), h);
  return slots_[i] - 1;
}

uint32_t Dictionary::Intern(std::string&& s, uint64_t h) {
  const size_t i = SlotForInsert(s, h);
  if (slots_[i] == 0) {
    slots_[i] = static_cast<uint32_t>(entries.size()) + 1;
    hashes.push_back(h);
    lengths.push_back(s.size());
    entries.push_back(std::move(s));
  }
  return slots_[i] - 1;
}

int64_t Dictionary::Find(const std::string& s) const {
  if (slots_.empty()) return -1;
  return static_cast<int64_t>(slots_[Probe(s, HashString(s))]) - 1;
}

void ColumnVector::Reserve(size_t n) {
  valid_.reserve((n >> 6) + 1);
  if (!native_) {
    variant_.reserve(n);
    return;
  }
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      bools_.reserve(n);
      break;
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
  }
}

void ColumnVector::PushValidBit(bool valid) {
  const size_t word = size_ >> 6;
  if (word >= valid_.size()) valid_.push_back(0);
  if (valid) valid_[word] |= 1ULL << (size_ & 63);
  ++size_;
  if (!valid) ++null_count_;
}

void ColumnVector::EnsureOwnedDict() {
  if (dict_ == nullptr) {
    dict_ = std::make_shared<Dictionary>();
    owns_dict_ = true;
    return;
  }
  if (!owns_dict_) {
    // Copy-on-write: this column only referenced a dictionary built (and
    // possibly still shared) by other columns; never mutate it in place.
    dict_ = std::make_shared<Dictionary>(*dict_);
    owns_dict_ = true;
  }
}

uint32_t ColumnVector::Intern(const std::string& s) {
  // Interning a string that is already present never mutates, so a shared
  // dictionary can answer it directly without triggering copy-on-write.
  if (dict_ != nullptr && !owns_dict_) {
    const int64_t code = dict_->Find(s);
    if (code >= 0) return static_cast<uint32_t>(code);
  }
  EnsureOwnedDict();
  return dict_->Intern(s);
}

void ColumnVector::MergeDictInto(const DictionaryPtr& dict) {
  if (!native_ || type_ != DataType::kString) return;
  if (dict_ != nullptr) {
    const bool sole = dict_.use_count() == 1;
    std::vector<uint32_t> remap(dict_->size());
    for (size_t e = 0; e < remap.size(); ++e) {
      std::string& entry = dict_->entries[e];
      remap[e] = dict->Intern(sole ? std::move(entry) : std::string(entry),
                              dict_->hashes[e]);
    }
    // Null cells keep their placeholder code 0.
    for (size_t i = 0; i < size_; ++i) {
      if (ValidBit(i)) codes_[i] = remap[codes_[i]];
    }
  }
  dict_ = dict;
  owns_dict_ = true;
}

void ColumnVector::DemoteToVariant() {
  std::vector<Value> boxed;
  boxed.reserve(size_);
  for (size_t i = 0; i < size_; ++i) boxed.push_back(GetValue(i));
  variant_ = std::move(boxed);
  native_ = false;
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  codes_.clear();
  dict_.reset();
  owns_dict_ = false;
}

void ColumnVector::AppendNull() {
  if (!native_) {
    variant_.emplace_back();
  } else {
    switch (type_) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        bools_.push_back(0);
        break;
      case DataType::kInt64:
        ints_.push_back(0);
        break;
      case DataType::kDouble:
        doubles_.push_back(0.0);
        break;
      case DataType::kString:
        codes_.push_back(0);
        break;
    }
  }
  PushValidBit(false);
}

void ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (native_ && v.type() != type_) DemoteToVariant();
  if (!native_) {
    variant_.push_back(v);
    PushValidBit(true);
    return;
  }
  switch (type_) {
    case DataType::kNull:
      break;  // unreachable: non-null of type kNull demoted above
    case DataType::kBool:
      bools_.push_back(v.as_bool() ? 1 : 0);
      break;
    case DataType::kInt64:
      ints_.push_back(v.as_int64());
      break;
    case DataType::kDouble:
      doubles_.push_back(v.as_double());
      break;
    case DataType::kString:
      codes_.push_back(Intern(v.as_string()));
      break;
  }
  PushValidBit(true);
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i,
                              DictRemap* remap) {
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  if (!native_ || !src.native_ || src.type_ != type_) {
    Append(src.GetValue(i));
    return;
  }
  switch (type_) {
    case DataType::kNull:
      AppendNull();
      return;
    case DataType::kBool:
      bools_.push_back(src.bools_[i]);
      break;
    case DataType::kInt64:
      ints_.push_back(src.ints_[i]);
      break;
    case DataType::kDouble:
      doubles_.push_back(src.doubles_[i]);
      break;
    case DataType::kString: {
      const uint32_t src_code = src.codes_[i];
      // Dictionary passthrough: an empty string column adopts the source's
      // shared dictionary; afterwards, cells from any column sharing that
      // dictionary append as bare code copies (no hashing, no remap).
      if (dict_ == nullptr && codes_.empty()) {
        dict_ = src.dict_;
        owns_dict_ = false;
      }
      if (dict_ == src.dict_) {
        codes_.push_back(src_code);
        break;
      }
      if (remap != nullptr) {
        if (remap->src != src.dict_.get()) {
          remap->src = src.dict_.get();
          remap->codes.assign(src.dict_->size(), -1);
        }
        int32_t& mapped = remap->codes[src_code];
        if (mapped < 0) {
          mapped = static_cast<int32_t>(Intern(src.dict_->entries[src_code]));
        }
        codes_.push_back(static_cast<uint32_t>(mapped));
      } else {
        codes_.push_back(Intern(src.dict_->entries[src_code]));
      }
      break;
    }
  }
  PushValidBit(true);
}

ColumnVectorPtr ColumnVector::GatherTo(const uint32_t* sel, size_t n) const {
  auto dst = std::make_shared<ColumnVector>(type_);
  if (!native_) {
    // Variant lane: boxed appends reproduce cells exactly.
    dst->Reserve(n);
    for (size_t k = 0; k < n; ++k) dst->AppendFrom(*this, sel[k], nullptr);
    return dst;
  }
  // Native lanes: bulk-copy the selected cells, then rebuild the validity
  // bitmap (null cells keep their zero placeholders by construction).
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool: {
      dst->bools_.resize(n);
      const uint8_t* v = bools_.data();
      uint8_t* out = dst->bools_.data();
      for (size_t k = 0; k < n; ++k) out[k] = v[sel[k]];
      break;
    }
    case DataType::kInt64: {
      dst->ints_.resize(n);
      const int64_t* v = ints_.data();
      int64_t* out = dst->ints_.data();
      for (size_t k = 0; k < n; ++k) out[k] = v[sel[k]];
      break;
    }
    case DataType::kDouble: {
      dst->doubles_.resize(n);
      const double* v = doubles_.data();
      double* out = dst->doubles_.data();
      for (size_t k = 0; k < n; ++k) out[k] = v[sel[k]];
      break;
    }
    case DataType::kString: {
      // Dictionary passthrough: share the dictionary, gather only codes.
      dst->dict_ = dict_;
      dst->owns_dict_ = false;
      dst->codes_.resize(n);
      const uint32_t* v = codes_.data();
      uint32_t* out = dst->codes_.data();
      for (size_t k = 0; k < n; ++k) out[k] = v[sel[k]];
      break;
    }
  }
  dst->valid_.assign((n >> 6) + 1, 0);
  if (null_count_ == 0) {
    // No-nulls fast path: set all n bits without per-cell probing.
    const size_t full_words = n >> 6;
    for (size_t w = 0; w < full_words; ++w) dst->valid_[w] = ~0ULL;
    if (n & 63) dst->valid_[full_words] = (1ULL << (n & 63)) - 1;
  } else {
    size_t nulls = 0;
    for (size_t k = 0; k < n; ++k) {
      const bool valid = ValidBit(sel[k]);
      dst->valid_[k >> 6] |= static_cast<uint64_t>(valid) << (k & 63);
      nulls += valid ? 0 : 1;
    }
    dst->null_count_ = nulls;
  }
  dst->size_ = n;
  return dst;
}

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  if (!native_) return variant_[i];
  switch (type_) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value(bools_[i] != 0);
    case DataType::kInt64:
      return Value(ints_[i]);
    case DataType::kDouble:
      return Value(doubles_[i]);
    case DataType::kString:
      return Value(dict_->entries[codes_[i]]);
  }
  return Value::Null();
}

double ColumnVector::NumberAt(size_t i) const {
  if (IsNull(i)) return 0.0;
  if (!native_) return variant_[i].ToDouble();
  switch (type_) {
    case DataType::kBool:
      return bools_[i] != 0 ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(ints_[i]);
    case DataType::kDouble:
      return doubles_[i];
    default:
      return 0.0;
  }
}

int CompareCells(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j) {
  const DataType ta = a.CellType(i), tb = b.CellType(j);
  auto numeric = [](DataType t) {
    return t == DataType::kBool || t == DataType::kInt64 ||
           t == DataType::kDouble;
  };
  if (numeric(ta) && numeric(tb)) {
    const double x = a.NumberAt(i), y = b.NumberAt(j);
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  if (ta != tb) return static_cast<int>(ta) < static_cast<int>(tb) ? -1 : 1;
  if (ta != DataType::kString) return 0;  // null == null
  if (a.is_native() && b.is_native() && a.dict() == b.dict() &&
      a.code_at(i) == b.code_at(j)) {
    return 0;
  }
  const std::string& x = a.StringRef(i);
  const std::string& y = b.StringRef(j);
  return x < y ? -1 : (y < x ? 1 : 0);
}

uint64_t ColumnVector::HashAt(size_t i) const {
  if (IsNull(i)) return kNullHash;
  if (!native_) return variant_[i].Hash();
  switch (type_) {
    case DataType::kNull:
      return kNullHash;
    case DataType::kBool:
      return NumericHash(bools_[i] != 0 ? 1.0 : 0.0);
    case DataType::kInt64:
      return NumericHash(static_cast<double>(ints_[i]));
    case DataType::kDouble:
      return NumericHash(doubles_[i]);
    case DataType::kString:
      return dict_->hashes[codes_[i]];
  }
  return kNullHash;
}

size_t ColumnVector::CellByteSize(size_t i) const {
  if (IsNull(i)) return 1;
  if (!native_) return variant_[i].ByteSize();
  switch (type_) {
    case DataType::kNull:
      return 1;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 8;
    case DataType::kString:
      return dict_->lengths[codes_[i]] + 4;  // length prefix
  }
  return 1;
}

size_t ColumnVector::ByteSize() const {
  if (!native_) {
    size_t total = 0;
    for (size_t i = 0; i < size_; ++i) total += CellByteSize(i);
    return total;
  }
  switch (type_) {
    case DataType::kNull:
      return size_;
    case DataType::kBool:
      return size_;
    case DataType::kInt64:
    case DataType::kDouble:
      return (size_ - null_count_) * 8 + null_count_;
    case DataType::kString: {
      size_t total = 0;
      const size_t* lengths = dict_ == nullptr ? nullptr : dict_->lengths.data();
      for (size_t i = 0; i < size_; ++i) {
        total += IsNull(i) ? 1 : lengths[codes_[i]] + 4;
      }
      return total;
    }
  }
  return 0;
}

}  // namespace opd::storage
