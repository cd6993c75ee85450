#include "dataframe/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"
#include "dataframe/key_hash.h"

namespace xorbits::dataframe {

namespace {

/// Null mask entries drop the row (pandas boolean indexing).
Result<std::vector<uint8_t>> EffectiveMask(const DataFrame& df,
                                           const Column& mask) {
  if (mask.dtype() != DType::kBool) {
    return Status::TypeError("Filter mask must be bool");
  }
  if (mask.length() != df.num_rows()) {
    return Status::Invalid("Filter mask length mismatch");
  }
  const auto& data = mask.bool_data();
  std::vector<uint8_t> effective(data.begin(), data.end());
  if (mask.has_validity()) {
    ParallelFor(0, mask.length(), 16384, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (!mask.IsValid(i)) effective[i] = 0;
      }
    });
  }
  return effective;
}

// --- normalized-key sort ---------------------------------------------------

/// Rows that hold no plain value sort after every value, whatever the
/// direction: NaN first, then nulls.
constexpr uint8_t kTierValue = 0;
constexpr uint8_t kTierNaN = 1;
constexpr uint8_t kTierNull = 2;

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// Order-preserving unsigned image of a non-NaN double; -0.0 maps to the
/// image of 0.0 because the two compare equal.
uint64_t NormalizeDouble(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// One sort key lowered for comparison. Fixed-width values (int64, float64,
/// bool, dictionary ranks) become order-preserving unsigned `words`, all
/// bits flipped for a descending key, so a smaller word always sorts first.
/// Plain strings stay in the column (`strings`) and compare in place.
/// `tier` is empty when every row holds a plain value; rows of a higher
/// tier carry the first value row's word, so they tie with each other on
/// this key and add no bits that differ between rows.
struct SortKey {
  std::vector<uint64_t> words;
  std::vector<uint8_t> tier;
  const std::string* strings = nullptr;
  bool ascending = true;
};

SortKey LowerSortKey(const Column& c, bool ascending) {
  SortKey key;
  key.ascending = ascending;
  const int64_t n = c.length();
  const bool plain_strings = c.dtype() == DType::kString && !c.is_dict();
  if (plain_strings) {
    key.strings = c.string_data().data();
  } else {
    key.words.resize(n);
  }
  if (c.has_validity() || c.dtype() == DType::kFloat64) {
    key.tier.assign(n, kTierValue);
  }
  const uint64_t flip = ascending ? 0 : ~uint64_t{0};
  // Fills every row: the flipped `word(i)` for values, the null tier for
  // nulls.
  const auto fill = [&](const auto& word) {
    ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (c.IsNull(i)) {
          key.tier[i] = kTierNull;
        } else {
          key.words[i] = word(i) ^ flip;
        }
      }
    });
  };
  switch (c.dtype()) {
    case DType::kInt64: {
      const int64_t* v = c.int64_data().data();
      fill([v](int64_t i) { return static_cast<uint64_t>(v[i]) ^ kSignBit; });
      break;
    }
    case DType::kFloat64: {
      const double* v = c.float64_data().data();
      ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (c.IsNull(i) || std::isnan(v[i])) {
            key.tier[i] = c.IsNull(i) ? kTierNull : kTierNaN;
          } else {
            key.words[i] = NormalizeDouble(v[i]) ^ flip;
          }
        }
      });
      break;
    }
    case DType::kBool: {
      const uint8_t* v = c.bool_data().data();
      fill([v](int64_t i) { return uint64_t{v[i] != 0}; });
      break;
    }
    case DType::kString:
      if (!plain_strings) {
        const uint32_t* rank = c.dict()->SortRanks().data();
        const int32_t* codes = c.dict_codes().data();
        fill([rank, codes](int64_t i) { return uint64_t{rank[codes[i]]}; });
      } else if (c.has_validity()) {
        for (int64_t i = 0; i < n; ++i) {
          if (c.IsNull(i)) key.tier[i] = kTierNull;
        }
      }
      break;
  }
  if (std::all_of(key.tier.begin(), key.tier.end(),
                  [](uint8_t t) { return t == kTierValue; })) {
    key.tier.clear();
    return key;
  }
  const auto first_value =
      std::find(key.tier.begin(), key.tier.end(), kTierValue);
  if (!key.words.empty() && first_value != key.tier.end()) {
    const uint64_t w = key.words[first_value - key.tier.begin()];
    ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (key.tier[i] != kTierValue) key.words[i] = w;
      }
    });
  }
  return key;
}

/// Strict weak order over row positions: key by key, tier first, then word
/// or in-place string order.
struct RowLess {
  const std::vector<SortKey>* keys;
  bool operator()(int64_t a, int64_t b) const {
    for (const SortKey& k : *keys) {
      if (!k.tier.empty()) {
        if (k.tier[a] != k.tier[b]) return k.tier[a] < k.tier[b];
        if (k.tier[a] != kTierValue) continue;
      }
      if (k.strings != nullptr) {
        const int cmp = k.strings[a].compare(k.strings[b]);
        if (cmp != 0) return k.ascending ? cmp < 0 : cmp > 0;
      } else if (k.words[a] != k.words[b]) {
        return k.words[a] < k.words[b];
      }
    }
    return false;
  }
};

/// Parallel stable merge sort: stable_sort each morsel, then merge adjacent
/// runs pairwise. A stable merge of stable-sorted runs taken in index order
/// is the unique stable-sort permutation, so the result is byte-identical
/// to a serial stable_sort at any thread count.
void MergeSortRows(std::vector<int64_t>* rows, const RowLess& less) {
  std::vector<int64_t>& order = *rows;
  const int64_t n = static_cast<int64_t>(order.size());
  const int64_t grain = GrainForMorsels(n, 4096, 16);
  if (NumMorsels(0, n, grain) < 2) {
    std::stable_sort(order.begin(), order.end(), less);
    return;
  }
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    std::stable_sort(order.begin() + lo, order.begin() + hi, less);
  });
  for (int64_t width = grain; width < n; width *= 2) {
    const int64_t pairs = (n + 2 * width - 1) / (2 * width);
    ParallelFor(0, pairs, 1, [&](int64_t mlo, int64_t mhi) {
      for (int64_t m = mlo; m < mhi; ++m) {
        const int64_t lo = m * 2 * width;
        const int64_t mid = std::min(lo + width, n);
        const int64_t hi = std::min(lo + 2 * width, n);
        if (mid < hi) {
          std::inplace_merge(order.begin() + lo, order.begin() + mid,
                             order.begin() + hi, less);
        }
      }
    });
  }
}

/// Measured crossover on two int64/float64 keys: at 512 rows the merge sort
/// takes 0.5–0.8× the radix sort's time, at 1024 rows 1.0–1.3×, and from
/// 2048 rows on 1.6–4×. Both give the same permutation.
constexpr int64_t kRadixMinRows = 1024;

/// Stable LSD radix sort of row positions over fixed-width keys: last key
/// first, each key's word byte by byte from the low end, then its tier.
/// Bytes equal in every row are skipped. A pass is a stable counting sort
/// whose per-morsel histograms are prefix-summed in (digit, morsel) order,
/// so the permutation is the same at any thread count.
std::vector<int64_t> RadixSortRows(const std::vector<SortKey>& keys,
                                   int64_t n) {
  const int64_t grain = GrainForMorsels(n, 16384, 64);
  const int64_t morsels = NumMorsels(0, n, grain);
  std::vector<int64_t> order(n), next_order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint64_t> digits(n), next_digits(n);
  std::vector<std::array<int64_t, 256>> hist(morsels);
  // One stable pass of (digits, order) by the byte at `shift`.
  const auto pass = [&](int shift) {
    ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
      std::array<int64_t, 256>& h = hist[lo / grain];
      h.fill(0);
      for (int64_t i = lo; i < hi; ++i) ++h[(digits[i] >> shift) & 0xff];
    });
    int64_t start = 0;
    for (int d = 0; d < 256; ++d) {
      for (int64_t m = 0; m < morsels; ++m) {
        const int64_t count = hist[m][d];
        hist[m][d] = start;
        start += count;
      }
    }
    ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
      std::array<int64_t, 256>& h = hist[lo / grain];
      for (int64_t i = lo; i < hi; ++i) {
        const int64_t pos = h[(digits[i] >> shift) & 0xff]++;
        next_digits[pos] = digits[i];
        next_order[pos] = order[i];
      }
    });
    digits.swap(next_digits);
    order.swap(next_order);
  };
  // Gathers `src` into `digits` in the current order; returns the bits that
  // differ between rows (a byte with none set needs no pass).
  const auto load = [&](const auto& src) {
    using Bits = std::pair<uint64_t, uint64_t>;  // (or, and) of all words
    const Bits bits = ParallelReduce(
        0, n, grain, Bits{0, ~uint64_t{0}},
        [&](int64_t lo, int64_t hi) {
          Bits b{0, ~uint64_t{0}};
          for (int64_t i = lo; i < hi; ++i) {
            const uint64_t w = src[order[i]];
            digits[i] = w;
            b.first |= w;
            b.second &= w;
          }
          return b;
        },
        [](Bits a, Bits b) {
          return Bits{a.first | b.first, a.second & b.second};
        });
    return bits.first ^ bits.second;
  };
  for (size_t k = keys.size(); k-- > 0;) {
    const uint64_t varying = load(keys[k].words);
    for (int shift = 0; shift < 64; shift += 8) {
      if (((varying >> shift) & 0xff) != 0) pass(shift);
    }
    if (!keys[k].tier.empty() && load(keys[k].tier) != 0) pass(0);
  }
  return order;
}

}  // namespace

Result<DataFrame> Filter(const DataFrame& df, const Column& mask) {
  XORBITS_ASSIGN_OR_RETURN(std::vector<uint8_t> effective,
                           EffectiveMask(df, mask));
  return df.FilterRows(effective);
}

Result<DataFrame> FilterLate(const DataFrame& df, const Column& mask) {
  XORBITS_ASSIGN_OR_RETURN(std::vector<uint8_t> effective,
                           EffectiveMask(df, mask));
  return df.FilterRowsLate(effective);
}

Result<std::vector<int64_t>> SortIndices(const DataFrame& df,
                                         const std::vector<std::string>& by,
                                         const std::vector<bool>& ascending) {
  if (by.empty()) return Status::Invalid("SortValues: empty key list");
  std::vector<bool> asc = ascending;
  if (asc.empty()) asc.assign(by.size(), true);
  if (asc.size() != by.size()) {
    return Status::Invalid("SortValues: ascending length mismatch");
  }
  std::vector<SortKey> keys;
  keys.reserve(by.size());
  bool fixed_width = true;
  for (size_t k = 0; k < by.size(); ++k) {
    XORBITS_ASSIGN_OR_RETURN(const Column* c, df.GetColumn(by[k]));
    keys.push_back(LowerSortKey(*c, asc[k]));
    fixed_width = fixed_width && keys.back().strings == nullptr;
  }
  const int64_t n = df.num_rows();
  if (fixed_width && n >= kRadixMinRows) return RadixSortRows(keys, n);
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  MergeSortRows(&order, RowLess{&keys});
  return order;
}

Result<DataFrame> SortValues(const DataFrame& df,
                             const std::vector<std::string>& by,
                             const std::vector<bool>& ascending) {
  XORBITS_ASSIGN_OR_RETURN(std::vector<int64_t> order,
                           SortIndices(df, by, ascending));
  return df.TakeRows(order);
}

Result<std::vector<int32_t>> RangePartitionIds(const Column& key,
                                               const Column& bounds,
                                               bool ascending) {
  const int64_t n = key.length();
  const int64_t nb = bounds.length();
  std::vector<int32_t> ids(n, 0);
  if (nb == 0) return ids;
  const bool strings = key.dtype() == DType::kString;
  if (strings != (bounds.dtype() == DType::kString) ||
      (key.dtype() == DType::kBool) != (bounds.dtype() == DType::kBool)) {
    return Status::TypeError(std::string("range partition: key dtype ") +
                             DTypeName(key.dtype()) + " vs boundary dtype " +
                             DTypeName(bounds.dtype()));
  }
  // A row's partition is the first boundary that does not sort strictly
  // before it (tiers first, then value order); the boundaries sorting
  // before a row form a prefix, so a binary search finds it.
  const auto first_not_before = [nb](const auto& before) {
    int64_t lo = 0, hi = nb;
    while (lo < hi) {
      const int64_t mid = (lo + hi) / 2;
      if (before(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<int32_t>(lo);
  };
  if (strings) {
    const auto route = [&](uint8_t tier, const std::string* s) {
      return first_not_before([&](int64_t j) {
        const uint8_t bt = bounds.IsNull(j) ? kTierNull : kTierValue;
        if (bt != tier || tier != kTierValue) return bt < tier;
        const int cmp = bounds.string_at(j).compare(*s);
        return ascending ? cmp < 0 : cmp > 0;
      });
    };
    const int32_t null_id = route(kTierNull, nullptr);
    ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        ids[i] = key.IsNull(i) ? null_id
                               : route(kTierValue, &key.string_at(i));
      }
    });
    return ids;
  }
  // Fixed width: lower both sides to words of one type (int64 against
  // float64 compares as float64).
  Column key_cast, bounds_cast;
  const Column* kc = &key;
  const Column* bc = &bounds;
  if (key.dtype() != bounds.dtype()) {
    XORBITS_ASSIGN_OR_RETURN(key_cast, key.CastTo(DType::kFloat64));
    XORBITS_ASSIGN_OR_RETURN(bounds_cast, bounds.CastTo(DType::kFloat64));
    kc = &key_cast;
    bc = &bounds_cast;
  }
  const SortKey rk = LowerSortKey(*kc, ascending);
  const SortKey bk = LowerSortKey(*bc, ascending);
  const auto tier = [](const SortKey& k, int64_t i) {
    return k.tier.empty() ? kTierValue : k.tier[i];
  };
  ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const uint8_t t = tier(rk, i);
      ids[i] = first_not_before([&](int64_t j) {
        const uint8_t bt = tier(bk, j);
        if (bt != t) return bt < t;
        return t == kTierValue && bk.words[j] < rk.words[i];
      });
    }
  });
  return ids;
}

Result<DataFrame> Concat(const std::vector<const DataFrame*>& frames) {
  if (frames.empty()) return Status::Invalid("Concat of zero frames");
  const DataFrame& first = *frames[0];
  DataFrame out;
  for (int ci = 0; ci < first.num_columns(); ++ci) {
    const std::string& name = first.column_name(ci);
    std::vector<const Column*> pieces;
    for (const DataFrame* f : frames) {
      XORBITS_ASSIGN_OR_RETURN(const Column* c, f->GetColumn(name));
      pieces.push_back(c);
    }
    XORBITS_ASSIGN_OR_RETURN(Column col, Column::Concat(pieces));
    XORBITS_RETURN_NOT_OK(out.SetColumn(name, std::move(col)));
  }
  std::vector<const Index*> indexes;
  for (const DataFrame* f : frames) indexes.push_back(&f->index());
  out.set_index(Index::Concat(indexes));
  return out;
}

Result<DataFrame> Concat(const std::vector<DataFrame>& frames) {
  std::vector<const DataFrame*> ptrs;
  ptrs.reserve(frames.size());
  for (const auto& f : frames) ptrs.push_back(&f);
  return Concat(ptrs);
}

Result<DataFrame> DropDuplicates(const DataFrame& df,
                                 const std::vector<std::string>& subset) {
  std::vector<const Column*> cols;
  if (subset.empty()) {
    for (int i = 0; i < df.num_columns(); ++i) cols.push_back(&df.column(i));
  } else {
    for (const auto& k : subset) {
      XORBITS_ASSIGN_OR_RETURN(const Column* c, df.GetColumn(k));
      cols.push_back(c);
    }
  }
  // With no key columns every row has the one empty key.
  if (cols.empty()) return Head(df, 1);
  std::vector<int64_t> gids, first_row;
  BuildGroups(cols, &gids, &first_row);
  std::vector<uint8_t> keep(df.num_rows(), 0);
  for (const int64_t row : first_row) keep[row] = 1;
  return df.FilterRows(keep);
}

DataFrame Head(const DataFrame& df, int64_t n) {
  return df.SliceRows(0, std::min<int64_t>(n, df.num_rows()));
}

Result<DataFrame> DropNa(const DataFrame& df,
                         const std::vector<std::string>& subset) {
  std::vector<const Column*> cols;
  if (subset.empty()) {
    for (int i = 0; i < df.num_columns(); ++i) cols.push_back(&df.column(i));
  } else {
    for (const auto& k : subset) {
      XORBITS_ASSIGN_OR_RETURN(const Column* c, df.GetColumn(k));
      cols.push_back(c);
    }
  }
  const int64_t n = df.num_rows();
  std::vector<uint8_t> keep(n, 1);
  for (const Column* c : cols) {
    if (!c->has_validity()) continue;
    ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (c->IsNull(i)) keep[i] = 0;
      }
    });
  }
  return df.FilterRows(keep);
}

Result<DataFrame> FillNa(const DataFrame& df, const std::string& column,
                         const Scalar& value) {
  XORBITS_ASSIGN_OR_RETURN(const Column* c, df.GetColumn(column));
  if (!c->has_validity()) return df;
  Column filled = *c;
  const int64_t n = filled.length();
  if (filled.dtype() == DType::kString && filled.is_dict()) {
    // Stay dictionary-encoded: resolve (or append) the fill value's code
    // and patch codes — no string materialization.
    const std::string fill = value.AsString();
    const StringDict& d = *filled.dict();
    int32_t fill_code = -1;
    for (int64_t k = 0; k < d.size(); ++k) {
      if (d.value(static_cast<int32_t>(k)) == fill) {
        fill_code = static_cast<int32_t>(k);
        break;
      }
    }
    StringDictPtr dict = filled.dict();
    if (fill_code < 0) {
      std::vector<std::string> vals(d.values().begin(), d.values().end());
      fill_code = static_cast<int32_t>(vals.size());
      vals.push_back(fill);
      dict = StringDict::Make(std::move(vals));
    }
    std::vector<int32_t> codes(filled.dict_codes().begin(),
                               filled.dict_codes().end());
    std::vector<uint8_t> valid(filled.validity().begin(),
                               filled.validity().end());
    for (int64_t i = 0; i < n; ++i) {
      if (!valid[i]) {
        codes[i] = fill_code;
        valid[i] = 1;
      }
    }
    Column patched = Column::Dictionary(
        common::BufferView<int32_t>(std::move(codes)), std::move(dict),
        common::BufferView<uint8_t>(std::move(valid)));
    DataFrame out = df;
    XORBITS_RETURN_NOT_OK(out.SetColumn(column, std::move(patched)));
    return out;
  }
  for (int64_t i = 0; i < n; ++i) {
    if (filled.IsValid(i)) continue;
    switch (filled.dtype()) {
      case DType::kInt64:
        filled.mutable_int64_data()[i] = value.AsInt();
        break;
      case DType::kFloat64:
        filled.mutable_float64_data()[i] = value.AsDouble();
        break;
      case DType::kString:
        filled.mutable_string_data()[i] = value.AsString();
        break;
      case DType::kBool:
        filled.mutable_bool_data()[i] = value.AsBool() ? 1 : 0;
        break;
    }
    filled.mutable_validity()[i] = 1;
  }
  DataFrame out = df;
  XORBITS_RETURN_NOT_OK(out.SetColumn(column, std::move(filled)));
  return out;
}

Result<Column> Unique(const Column& col) {
  std::vector<int64_t> gids, first_row;
  BuildGroups({&col}, &gids, &first_row);
  return col.Take(first_row);
}

Result<DataFrame> ValueCounts(const Column& col, const std::string& name) {
  std::vector<int64_t> gids, first_row;
  const int64_t G = BuildGroups({&col}, &gids, &first_row);
  std::vector<int64_t> counts(G, 0);
  for (int64_t i = 0; i < col.length(); ++i) {
    if (col.IsValid(i)) counts[gids[i]]++;
  }
  // Ids run in first-seen order, so the stable sort breaks count ties by
  // first row. The null key's id has no count and drops out.
  std::vector<int64_t> ids;
  for (int64_t g = 0; g < G; ++g) {
    if (counts[g] > 0) ids.push_back(g);
  }
  std::stable_sort(ids.begin(), ids.end(), [&](int64_t a, int64_t b) {
    return counts[a] > counts[b];
  });
  std::vector<int64_t> take, cnts;
  for (const int64_t g : ids) {
    take.push_back(first_row[g]);
    cnts.push_back(counts[g]);
  }
  DataFrame out;
  XORBITS_RETURN_NOT_OK(out.SetColumn(name, col.Take(take)));
  XORBITS_RETURN_NOT_OK(out.SetColumn("count", Column::Int64(std::move(cnts))));
  return out;
}

Result<DataFrame> IlocRow(const DataFrame& df, int64_t pos) {
  if (pos < 0) pos += df.num_rows();
  if (pos < 0 || pos >= df.num_rows()) {
    return Status::IndexError("iloc position " + std::to_string(pos) +
                              " out of bounds for " +
                              std::to_string(df.num_rows()) + " rows");
  }
  return df.SliceRows(pos, 1);
}

}  // namespace xorbits::dataframe
