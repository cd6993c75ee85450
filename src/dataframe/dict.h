#ifndef XORBITS_DATAFRAME_DICT_H_
#define XORBITS_DATAFRAME_DICT_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"

namespace xorbits::dataframe {

/// Seeded 64-bit byte hash (FNV-1a). This — not std::hash — is the hash
/// every keyed kernel (groupby, join, shuffle partitioning) uses for
/// string values, so a dictionary code and a plain string of the same
/// value always land in the same bucket/partition regardless of encoding.
inline uint64_t HashBytes(const void* data, size_t n,
                          uint64_t seed = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Final avalanche for integer keys (splitmix64 finisher); spreads the low
/// bits so both `% partitions` and power-of-two masking stay balanced.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// True when every non-null code indexes into a dictionary of `dict_size`
/// values. Null rows carry placeholder codes that are never looked up, so
/// they are exempt; `validity` is null (all valid) or one byte per code.
/// Readers of untrusted bytes call this before building a Column.
inline bool DictCodesInRange(const int32_t* codes, int64_t n,
                             const uint8_t* validity, int64_t dict_size) {
  for (int64_t i = 0; i < n; ++i) {
    if ((codes[i] < 0 || codes[i] >= dict_size) &&
        (validity == nullptr || validity[i] != 0)) {
      return false;
    }
  }
  return true;
}

/// An immutable, deduplicated string dictionary: the value side of a
/// dictionary-encoded Column (int32 codes index into it). The values ride
/// a copy-on-write BufferView so columns sharing one dictionary share one
/// underlying buffer — storage accounting then charges the dictionary once
/// per band exactly like any other shared payload. Per-value hashes are
/// computed once here, so keyed kernels hash a code with one array load.
class StringDict {
 public:
  explicit StringDict(common::BufferView<std::string> values)
      : values_(std::move(values)) {
    hashes_.resize(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) {
      hashes_[i] = HashBytes(values_[i].data(), values_[i].size());
    }
  }

  static std::shared_ptr<const StringDict> Make(
      std::vector<std::string> values) {
    return std::make_shared<const StringDict>(
        common::BufferView<std::string>(std::move(values)));
  }

  int64_t size() const { return values_.ssize(); }
  const std::string& value(int32_t code) const { return values_[code]; }
  const common::BufferView<std::string>& values() const { return values_; }
  uint64_t hash(int32_t code) const { return hashes_[code]; }

  /// Two dictionaries are interchangeable when they expose the same window
  /// of the same underlying buffer (covers both shared_ptr sharing and a
  /// dictionary rebuilt around a deserialized back-ref).
  bool SameAs(const StringDict& other) const {
    return this == &other || values_.IdenticalTo(other.values_);
  }

  /// Rank of each code's value in byte-wise string order (equal values
  /// share a rank), so sorting codes by rank sorts their strings without
  /// touching them. Computed on first use and kept: the values never change.
  const std::vector<uint32_t>& SortRanks() const {
    std::call_once(ranks_once_, [this] {
      std::vector<int32_t> order(values_.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [this](int32_t a, int32_t b) {
        return values_[a] < values_[b];
      });
      ranks_.resize(order.size());
      uint32_t rank = 0;
      for (size_t r = 0; r < order.size(); ++r) {
        if (r > 0 && values_[order[r - 1]] != values_[order[r]]) ++rank;
        ranks_[order[r]] = rank;
      }
    });
    return ranks_;
  }

 private:
  common::BufferView<std::string> values_;
  std::vector<uint64_t> hashes_;  // HashBytes of each value
  mutable std::once_flag ranks_once_;
  mutable std::vector<uint32_t> ranks_;  // SortRanks(), once computed
};

using StringDictPtr = std::shared_ptr<const StringDict>;

/// Builds a deduplicated dictionary in first-seen order. Used by the
/// xparquet reader (unifying the row groups' dictionary pages), Concat
/// across different dictionaries (unify + remap), and the string kernels
/// that map distinct values (the mapped values may collide, so they
/// re-dedup here).
class DictBuilder {
 public:
  /// Returns the code for `s`, inserting it on first sight.
  int32_t GetOrAdd(std::string_view s) {
    auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const int32_t code = static_cast<int32_t>(values_.size());
    values_.emplace_back(s);
    // values_ may reallocate (and SSO strings move wholesale), so the map
    // keys view copies parked in a deque, whose settled elements never move.
    keys_.push_back(values_.back());
    index_.emplace(keys_.back(), code);
    return code;
  }

  int64_t size() const { return static_cast<int64_t>(values_.size()); }

  StringDictPtr Finish() {
    index_.clear();
    keys_.clear();
    return StringDict::Make(std::move(values_));
  }

 private:
  std::vector<std::string> values_;
  /// Stable copies backing the string_view keys of index_ (values_ may
  /// reallocate; a std::deque never moves settled elements).
  std::deque<std::string> keys_;
  std::unordered_map<std::string_view, int32_t> index_;
};

}  // namespace xorbits::dataframe

#endif  // XORBITS_DATAFRAME_DICT_H_
