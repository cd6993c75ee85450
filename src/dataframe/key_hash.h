#ifndef XORBITS_DATAFRAME_KEY_HASH_H_
#define XORBITS_DATAFRAME_KEY_HASH_H_

#include <cstdint>
#include <vector>

#include "dataframe/column.h"

namespace xorbits::dataframe {

/// Typed multi-column row hasher/comparator: the key equality of every
/// hashing kernel. The key index below (groupby, drop_duplicates, unique,
/// value_counts, nunique, pivot spread), the join's partitioned hash table
/// and shuffle-partition routing all hash and compare through it. Hash and
/// equality are *value*-based with the semantics of Column's reference key
/// bytes encoding (dtype tag participates; floats compare by bit
/// pattern; nulls hash alike and compare equal), so:
///   - a dictionary column hashes identically to its decoded plain form
///     (dictionary codes are resolved through per-dictionary value hashes
///     precomputed once, one array load per row), and
///   - partition routing `Hash(row) % P` is stable across encodings and
///     thread counts.
class RowHasher {
 public:
  explicit RowHasher(std::vector<const Column*> cols);

  int64_t num_rows() const { return num_rows_; }

  /// Combined value hash of the key tuple at `row` (avalanched).
  uint64_t Hash(int64_t row) const {
    uint64_t h = 0xa0761d6478bd642fULL;
    for (const ColAccess& c : cols_) h = CombineCol(c, row, h);
    return MixHash(h);
  }

  /// Hashes rows [lo, hi) into `out[lo..hi)`. Bit-identical to calling
  /// Hash(row) per row — it is the same fold, evaluated column-major so the
  /// common never-null single-kind columns run as branch-light tight loops
  /// instead of a per-row walk over the column descriptor vector.
  void HashRange(int64_t lo, int64_t hi, uint64_t* out) const;

  /// False when no key column carries a validity bitmap — AnyNull is then
  /// constant false and callers can skip per-row null tracking entirely.
  bool MayHaveNulls() const {
    for (const ColAccess& c : cols_) {
      if (c.validity != nullptr) return true;
    }
    return false;
  }

  /// True when every key column is null at `row` — the rows a join build /
  /// probe must treat as unmatchable. (Key-bytes semantics: any null
  /// participates as its own '\0' tag, so partial nulls still form keys.)
  bool AnyNull(int64_t row) const {
    for (const ColAccess& c : cols_) {
      if (c.validity != nullptr && c.validity[row] == 0) return true;
    }
    return false;
  }

  /// Value equality of this hasher's row `a` against `other`'s row `b`.
  /// Null == null (groupby groups nulls together); callers that must not
  /// match nulls (join) filter with AnyNull first.
  bool Equal(int64_t a, const RowHasher& other, int64_t b) const;

  bool RowsEqual(int64_t a, int64_t b) const { return Equal(a, *this, b); }

  /// Raw key array when the tuple is a single never-null int64 column,
  /// else nullptr. Hash-table hot loops (groupby build, join probe) use it
  /// to inline equality as one array compare instead of a call into the
  /// generic Equal; the result is identical by construction (Equal on this
  /// shape reduces to exactly `i64[a] == i64[b]`).
  const int64_t* SoleInt64() const {
    return cols_.size() == 1 && cols_[0].kind == Kind::kInt64 &&
                   cols_[0].validity == nullptr
               ? cols_[0].i64
               : nullptr;
  }

  /// Dictionary code array when the tuple is a single never-null
  /// dictionary column, else nullptr. Within one hasher — or across two
  /// hashers whose dictionaries are the same (SoleDict pointer-equal or
  /// SameAs) — equal codes are exactly equal values, so code compare is a
  /// valid inlined equality.
  const int32_t* SoleDictCodes() const {
    return cols_.size() == 1 && cols_[0].kind == Kind::kDict &&
                   cols_[0].validity == nullptr
               ? cols_[0].codes
               : nullptr;
  }

  const StringDict* SoleDict() const {
    return cols_.size() == 1 && cols_[0].kind == Kind::kDict ? cols_[0].dict
                                                             : nullptr;
  }

 private:
  enum class Kind : uint8_t { kInt64, kFloat64, kBool, kString, kDict };

  struct ColAccess {
    Kind kind;
    const Column* col;
    const uint8_t* validity;  // nullptr => all valid
    const int64_t* i64 = nullptr;
    const double* f64 = nullptr;
    const uint8_t* b8 = nullptr;
    const std::string* str = nullptr;
    const int32_t* codes = nullptr;
    const StringDict* dict = nullptr;
  };

  static uint64_t CombineCol(const ColAccess& c, int64_t row, uint64_t h);

  std::vector<ColAccess> cols_;
  int64_t num_rows_ = 0;
};

/// The engine's key -> dense id index. Assigns each row of `key_cols` (all
/// of one length) the id of its key tuple in `gids`, and fills `first_row`
/// with the first row of every id; returns the id count. Ids are dense and
/// numbered in first-seen row order. Key equality is RowHasher's: the dtype
/// takes part, floats compare by raw bits (+0.0 and -0.0 differ, and so do
/// NaN payloads), null equals null, and dictionary and plain strings
/// compare by value. Built morsel-parallel; the ids are the same at every
/// thread count.
int64_t BuildGroups(const std::vector<const Column*>& key_cols,
                    std::vector<int64_t>* gids,
                    std::vector<int64_t>* first_row);

}  // namespace xorbits::dataframe

#endif  // XORBITS_DATAFRAME_KEY_HASH_H_
