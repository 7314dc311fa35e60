#include "exec/hash/hash_kernels.h"

#include <algorithm>

#include "storage/column_vector.h"

namespace opd::exec::hash {

using storage::ColumnVector;
using storage::DataType;
using storage::Dictionary;
using storage::RowBatch;
using storage::Value;

void KeyScratch::Grow(size_t need) {
  std::vector<char> bigger(std::max(cap_ * 2, need));
  std::memcpy(bigger.data(), buf_, len_);
  heap_ = std::move(bigger);
  buf_ = heap_.data();
  cap_ = heap_.size();
}

namespace {

// Folds the flat hash of cells [begin, begin + n) of `col` into out[0..n):
// one typed loop per lane kind, with a branch-free body on the no-null fast
// paths.
void HashColumnInto(const ColumnVector& col, size_t begin, size_t n,
                    uint64_t* out) {
  const bool no_nulls = col.null_count() == 0;
  if (col.is_native()) {
    switch (col.declared_type()) {
      case DataType::kBool: {
        const uint8_t* v = col.bools() + begin;
        for (size_t i = 0; i < n; ++i) {
          const uint64_t h = (!no_nulls && col.IsNull(begin + i))
                                 ? kNullCellHash
                                 : HashNumericCell(v[i] != 0 ? 1.0 : 0.0);
          HashCombine(&out[i], h);
        }
        return;
      }
      case DataType::kInt64: {
        const int64_t* v = col.ints() + begin;
        if (no_nulls) {
          for (size_t i = 0; i < n; ++i) {
            HashCombine(&out[i], HashNumericCell(static_cast<double>(v[i])));
          }
          return;
        }
        for (size_t i = 0; i < n; ++i) {
          const uint64_t h =
              col.IsNull(begin + i) ? kNullCellHash
                            : HashNumericCell(static_cast<double>(v[i]));
          HashCombine(&out[i], h);
        }
        return;
      }
      case DataType::kDouble: {
        const double* v = col.doubles() + begin;
        if (no_nulls) {
          for (size_t i = 0; i < n; ++i) {
            HashCombine(&out[i], HashNumericCell(v[i]));
          }
          return;
        }
        for (size_t i = 0; i < n; ++i) {
          const uint64_t h =
              col.IsNull(begin + i) ? kNullCellHash : HashNumericCell(v[i]);
          HashCombine(&out[i], h);
        }
        return;
      }
      case DataType::kString: {
        // Dictionary pre-pass already happened at intern time: the shared
        // Dictionary carries Value::Hash (== HashString) per entry, so each
        // cell is a code lookup, never a byte scan.
        const Dictionary* dict = col.dict().get();
        if (dict == nullptr) {
          // No dictionary => no string was ever appended: all cells null.
          for (size_t i = 0; i < n; ++i) HashCombine(&out[i], kNullCellHash);
          return;
        }
        const uint32_t* codes = col.codes() + begin;
        const uint64_t* entry_hash = dict->hashes.data();
        if (no_nulls) {
          for (size_t i = 0; i < n; ++i) {
            HashCombine(&out[i], entry_hash[codes[i]]);
          }
          return;
        }
        for (size_t i = 0; i < n; ++i) {
          const uint64_t h =
              col.IsNull(begin + i) ? kNullCellHash : entry_hash[codes[i]];
          HashCombine(&out[i], h);
        }
        return;
      }
      default:
        break;  // kNull-declared column: only null cells, handled below
    }
  }
  // Variant lane (or null-typed column): per-cell reconstruction.
  for (size_t i = 0; i < n; ++i) {
    HashCombine(&out[i], FlatCellHash(col.GetValue(begin + i)));
  }
}

}  // namespace

void HashKeys(const RowBatch& batch, size_t begin, size_t end,
              const std::vector<size_t>& cols, uint64_t* out) {
  const size_t n = end - begin;
  for (size_t i = 0; i < n; ++i) out[i] = kKeySeed;
  for (size_t c : cols) HashColumnInto(batch.column(c), begin, n, out);
}

std::vector<KeyCodec> PlanKeyCodecs(const std::vector<KeySide>& sides) {
  std::vector<KeyCodec> codecs(sides.size());
  const size_t nkeys = sides.empty() ? 0 : sides[0].cols->size();

  // Per-side, per-position lane class observed across that side's batches.
  enum class Lane : uint8_t { kUnseen, kNumeric, kString, kCell };
  std::vector<std::vector<Lane>> lanes(sides.size(),
                                       std::vector<Lane>(nkeys, Lane::kUnseen));
  // Shared-dictionary tracking across ALL sides per position: the dict-code
  // encoding compares raw codes, so every batch that can produce a non-null
  // string cell must agree on one dictionary object.
  std::vector<const Dictionary*> shared_dict(nkeys, nullptr);
  std::vector<bool> dict_ok(nkeys, true);

  for (size_t s = 0; s < sides.size(); ++s) {
    for (size_t k = 0; k < nkeys; ++k) {
      const size_t col_idx = (*sides[s].cols)[k];
      Lane& lane = lanes[s][k];
      for (const RowBatch& b : *sides[s].batches) {
        if (b.num_rows() == 0) continue;
        const ColumnVector& col = b.column(col_idx);
        Lane this_lane;
        if (!col.is_native()) {
          this_lane = Lane::kCell;
        } else {
          switch (col.declared_type()) {
            case DataType::kBool:
            case DataType::kInt64:
            case DataType::kDouble:
              this_lane = Lane::kNumeric;
              break;
            case DataType::kString:
              this_lane = Lane::kString;
              break;
            default:
              this_lane = Lane::kCell;  // kNull-declared: all cells null
              break;
          }
        }
        if (lane == Lane::kUnseen) {
          lane = this_lane;
        } else if (lane != this_lane) {
          lane = Lane::kCell;  // mixed lanes across batches: generic path
        }
        if (this_lane == Lane::kString) {
          const Dictionary* d = col.dict().get();
          if (d != nullptr) {  // null dict = all-null column, compatible
            if (shared_dict[k] == nullptr) {
              shared_dict[k] = d;
            } else if (shared_dict[k] != d) {
              dict_ok[k] = false;
            }
          }
        } else {
          dict_ok[k] = false;
        }
      }
      if (lane == Lane::kUnseen) lane = Lane::kCell;  // empty input side
    }
  }

  for (size_t s = 0; s < sides.size(); ++s) {
    KeyCodec& codec = codecs[s];
    codec.cols = *sides[s].cols;
    codec.modes.resize(nkeys);
    codec.bounded = true;
    codec.width_bound = 0;
    for (size_t k = 0; k < nkeys; ++k) {
      KeyColMode mode;
      if (dict_ok[k] && shared_dict[k] != nullptr) {
        mode = KeyColMode::kDictCode;
        codec.width_bound += 1 + sizeof(uint32_t);
      } else {
        switch (lanes[s][k]) {
          case Lane::kNumeric:
            mode = KeyColMode::kNumeric;
            codec.width_bound += 1 + sizeof(double);
            break;
          case Lane::kString:
            mode = KeyColMode::kString;
            codec.bounded = false;
            break;
          default:
            mode = KeyColMode::kCell;
            codec.bounded = false;
            break;
        }
      }
      codec.modes[k] = mode;
    }
    if (!codec.bounded) codec.width_bound = 0;
  }
  return codecs;
}

void NormalizeKey(const RowBatch& batch, size_t row, const KeyCodec& codec,
                  KeyScratch* out) {
  out->Clear();
  for (size_t k = 0; k < codec.cols.size(); ++k) {
    const ColumnVector& col = batch.column(codec.cols[k]);
    if (col.IsNull(row)) {
      out->PushByte('\0');
      continue;
    }
    switch (codec.modes[k]) {
      case KeyColMode::kNumeric: {
        double d = 0;
        switch (col.declared_type()) {
          case DataType::kBool:
            d = col.bools()[row] != 0 ? 1.0 : 0.0;
            break;
          case DataType::kInt64:
            d = static_cast<double>(col.ints()[row]);
            break;
          case DataType::kDouble:
            d = col.doubles()[row];
            break;
          default:
            break;  // unreachable: codec planned kNumeric off these lanes
        }
        EncodeNumericCell(d, out);
        break;
      }
      case KeyColMode::kDictCode: {
        const uint32_t code = col.code_at(row);
        out->PushByte('\3');
        out->Append(&code, sizeof(code));
        break;
      }
      case KeyColMode::kString:
        EncodeStringCell(col.string_at(row), out);
        break;
      case KeyColMode::kCell:
        EncodeCell(col.GetValue(row), out);
        break;
    }
  }
}

}  // namespace opd::exec::hash
