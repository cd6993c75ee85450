#include "dataframe/key_hash.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"

namespace xorbits::dataframe {

namespace {

// Per-dtype tag mixed into every column hash so `1` (int64) and `1.0`
// (float64) never collide as keys — the same role the '\1'..'\4' tag bytes
// play in the reference key bytes (column.h). Dictionary columns use the
// *string* tag: the encoding must be invisible to hashing.
inline uint64_t TagFor(DType t) {
  switch (t) {
    case DType::kInt64: return 0x9e3779b97f4a7c15ULL;
    case DType::kFloat64: return 0xc2b2ae3d27d4eb4fULL;
    case DType::kString: return 0x165667b19e3779f9ULL;
    case DType::kBool: return 0x27d4eb2f165667c5ULL;
  }
  return 0;
}

inline constexpr uint64_t kNullHash = 0x8ebc6af09c88c6e3ULL;

inline uint64_t HashF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixHash(bits ^ TagFor(DType::kFloat64));
}

// boost::hash_combine-style fold; keeps column order significant. Shared by
// the per-row and bulk hash paths so they stay bit-identical.
inline uint64_t FoldHash(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace

RowHasher::RowHasher(std::vector<const Column*> cols) {
  cols_.reserve(cols.size());
  for (const Column* col : cols) {
    ColAccess a;
    a.col = col;
    a.validity = col->has_validity() ? col->validity().data() : nullptr;
    num_rows_ = col->length();
    if (col->is_dict()) {
      a.kind = Kind::kDict;
      a.codes = col->dict_codes().data();
      a.dict = col->dict().get();
    } else {
      switch (col->dtype()) {
        case DType::kInt64:
          a.kind = Kind::kInt64;
          a.i64 = col->int64_data().data();
          break;
        case DType::kFloat64:
          a.kind = Kind::kFloat64;
          a.f64 = col->float64_data().data();
          break;
        case DType::kString:
          a.kind = Kind::kString;
          a.str = col->string_data().data();
          break;
        case DType::kBool:
          a.kind = Kind::kBool;
          a.b8 = col->bool_data().data();
          break;
      }
    }
    cols_.push_back(a);
  }
}

uint64_t RowHasher::CombineCol(const ColAccess& c, int64_t row, uint64_t h) {
  uint64_t v;
  if (c.validity != nullptr && c.validity[row] == 0) {
    v = kNullHash;
  } else {
    switch (c.kind) {
      case Kind::kInt64:
        v = MixHash(static_cast<uint64_t>(c.i64[row]) ^
                    TagFor(DType::kInt64));
        break;
      case Kind::kFloat64:
        v = HashF64(c.f64[row]);
        break;
      case Kind::kBool:
        v = MixHash(static_cast<uint64_t>(c.b8[row] != 0) ^
                    TagFor(DType::kBool));
        break;
      case Kind::kString: {
        const std::string& s = c.str[row];
        v = MixHash(HashBytes(s.data(), s.size()) ^
                    TagFor(DType::kString));
        break;
      }
      case Kind::kDict:
        // Same bytes-hash as kString, precomputed once per distinct value.
        v = MixHash(c.dict->hash(c.codes[row]) ^ TagFor(DType::kString));
        break;
      default:
        v = 0;
    }
  }
  return FoldHash(h, v);
}

void RowHasher::HashRange(int64_t lo, int64_t hi, uint64_t* out) const {
  const int64_t n = hi - lo;
  for (int64_t j = 0; j < n; ++j) out[j] = 0xa0761d6478bd642fULL;
  for (const ColAccess& c : cols_) {
    if (c.validity == nullptr && c.kind == Kind::kInt64) {
      const uint64_t tag = TagFor(DType::kInt64);
      const int64_t* v = c.i64 + lo;
      for (int64_t j = 0; j < n; ++j) {
        out[j] = FoldHash(out[j], MixHash(static_cast<uint64_t>(v[j]) ^ tag));
      }
    } else if (c.validity == nullptr && c.kind == Kind::kFloat64) {
      const double* v = c.f64 + lo;
      for (int64_t j = 0; j < n; ++j) {
        out[j] = FoldHash(out[j], HashF64(v[j]));
      }
    } else if (c.validity == nullptr && c.kind == Kind::kDict) {
      const uint64_t tag = TagFor(DType::kString);
      const int32_t* codes = c.codes + lo;
      for (int64_t j = 0; j < n; ++j) {
        out[j] = FoldHash(out[j], MixHash(c.dict->hash(codes[j]) ^ tag));
      }
    } else {
      for (int64_t j = 0; j < n; ++j) out[j] = CombineCol(c, lo + j, out[j]);
    }
  }
  for (int64_t j = 0; j < n; ++j) out[j] = MixHash(out[j]);
}

bool RowHasher::Equal(int64_t a, const RowHasher& other, int64_t b) const {
  const size_t n = cols_.size();
  for (size_t k = 0; k < n; ++k) {
    const ColAccess& ca = cols_[k];
    const ColAccess& cb = other.cols_[k];
    const bool na = ca.validity != nullptr && ca.validity[a] == 0;
    const bool nb = cb.validity != nullptr && cb.validity[b] == 0;
    if (na || nb) {
      if (na != nb) return false;
      continue;  // null == null
    }
    // Cross-encoding string compares are by value; everything else requires
    // the same physical kind on both sides (dtype mismatch => not equal,
    // matching the tag byte of the reference key bytes).
    const bool sa = ca.kind == Kind::kString || ca.kind == Kind::kDict;
    const bool sb = cb.kind == Kind::kString || cb.kind == Kind::kDict;
    if (sa && sb) {
      if (ca.kind == Kind::kDict && cb.kind == Kind::kDict &&
          (ca.dict == cb.dict || ca.dict->SameAs(*cb.dict))) {
        if (ca.codes[a] != cb.codes[b]) return false;
        continue;
      }
      const std::string& va =
          ca.kind == Kind::kDict ? ca.dict->value(ca.codes[a]) : ca.str[a];
      const std::string& vb =
          cb.kind == Kind::kDict ? cb.dict->value(cb.codes[b]) : cb.str[b];
      if (va != vb) return false;
      continue;
    }
    if (ca.kind != cb.kind) return false;
    switch (ca.kind) {
      case Kind::kInt64:
        if (ca.i64[a] != cb.i64[b]) return false;
        break;
      case Kind::kFloat64: {
        // Bit-pattern equality, matching the raw-bytes key encoding.
        uint64_t xa, xb;
        std::memcpy(&xa, &ca.f64[a], sizeof(xa));
        std::memcpy(&xb, &cb.f64[b], sizeof(xb));
        if (xa != xb) return false;
        break;
      }
      case Kind::kBool:
        if ((ca.b8[a] != 0) != (cb.b8[b] != 0)) return false;
        break;
      default:
        return false;
    }
  }
  return true;
}

namespace {

/// Open-addressing (linear probe, power-of-two) map from key-tuple rows to
/// dense ids. A slot keeps the hash beside the id, so a probe reads one
/// cache line; keys stay in the source columns and each id remembers its
/// first row and hash. The table starts at 64 slots and doubles as it
/// fills, so it costs O(ids) whatever the row count.
class GroupIndex {
 public:
  GroupIndex() { Rehash(64); }

  /// Id of `row` (hash `h`), added as the next id on first sight. `eq(a,
  /// b)` decides row equality: callers pass an inlined typed comparator for
  /// single-column keys and the generic RowHasher equality otherwise.
  template <typename Eq>
  int64_t GetOrAdd(uint64_t h, int64_t row, const Eq& eq) {
    if (size() * MaxLoadInverse() >= static_cast<int64_t>(slots_.size())) {
      Rehash(slots_.size() * 2);
    }
    uint64_t idx = h & mask_;
    for (;;) {
      Slot& s = slots_[idx];
      if (s.id < 0) {
        s = Slot{h, size()};
        reps_.push_back(row);
        hashes_.push_back(h);
        return s.id;
      }
      if (s.hash == h && eq(reps_[s.id], row)) return s.id;
      idx = (idx + 1) & mask_;
    }
  }

  std::vector<int64_t>& reps() { return reps_; }
  std::vector<uint64_t>& hashes() { return hashes_; }
  int64_t size() const { return static_cast<int64_t>(reps_.size()); }

 private:
  struct Slot {
    uint64_t hash;
    int64_t id;  // -1 = empty
  };

  /// A table of up to 64 KiB stays at most a quarter full, so probes
  /// rarely run past their first slot; a larger one grows at half load to
  /// halve its footprint, which matters more once probes miss cache.
  int64_t MaxLoadInverse() const {
    return slots_.size() < (size_t{1} << 12) ? 4 : 2;
  }

  void Rehash(size_t cap) {
    slots_.assign(cap, Slot{0, -1});
    mask_ = cap - 1;
    for (int64_t id = 0; id < size(); ++id) {
      uint64_t idx = hashes_[id] & mask_;
      while (slots_[idx].id >= 0) idx = (idx + 1) & mask_;
      slots_[idx] = Slot{hashes_[id], id};
    }
  }

  std::vector<Slot> slots_;
  std::vector<int64_t> reps_;     // id -> first row
  std::vector<uint64_t> hashes_;  // id -> hash
  uint64_t mask_ = 0;
};

/// Rows hashed per step: the block's hashes stay in L1.
constexpr int64_t kHashBlock = 1024;

/// Adds rows [lo, hi) to `table` in row order and writes each row's id to
/// `ids[row]`.
template <typename Eq>
void IndexRows(const RowHasher& hasher, int64_t lo, int64_t hi, const Eq& eq,
               GroupIndex* table, int64_t* ids) {
  uint64_t h[kHashBlock];
  for (int64_t b = lo; b < hi; b += kHashBlock) {
    const int64_t e = std::min(hi, b + kHashBlock);
    hasher.HashRange(b, e, h);
    for (int64_t i = b; i < e; ++i) ids[i] = table->GetOrAdd(h[i - b], i, eq);
  }
}

/// Rows per span below which a second span does not pay for its passes.
constexpr int64_t kMinSpanRows = 32768;

/// Hash partition of `h` among `k`: its high bits, so a partition's table
/// still spreads over its low (slot) bits.
inline int64_t PartitionOf(uint64_t h, int64_t k) {
  return static_cast<int64_t>(((h >> 32) * static_cast<uint64_t>(k)) >> 32);
}

/// The k-span build, with no serial phase:
///   1. each span of rows builds its own table (local ids in `gids`) and
///      buckets its keys, in local-id order, by hash partition;
///   2. worker p owns partition p: it adds the span-local keys of its
///      buckets, span by span, to one table. Its ids are first-seen across
///      spans, and the keys that open one form a run of each bucket;
///   3. each span numbers the keys it opened in row order, from the count
///      of keys the spans before it opened. A key's id is thus the rank of
///      its first row, which is first-seen order whatever k is;
///   4. each span maps its rows' local ids to those ids.
/// A worker writes only its own span's or partition's entries.
template <typename Eq>
int64_t BuildPartitioned(int64_t k, const RowHasher& hasher, const Eq& eq,
                         std::vector<int64_t>* gids,
                         std::vector<int64_t>* first_row) {
  const int64_t n = hasher.num_rows();
  const int64_t span = (n + k - 1) / k;
  struct Span {
    std::vector<int64_t> reps;     // local id -> first row
    std::vector<uint64_t> hashes;  // local id -> hash
    // Per partition: the local ids whose key falls in it (ascending), and
    // each one's id in the partition's table.
    std::vector<std::vector<int64_t>> bucket;
    std::vector<std::vector<int64_t>> part_id;
  };
  std::vector<Span> spans(k);
  ParallelFor(0, n, span, [&](int64_t lo, int64_t hi) {
    // Built on the worker's stack: neighbouring headers share cache lines.
    GroupIndex table;
    IndexRows(hasher, lo, hi, eq, &table, gids->data());
    Span s;
    s.reps = std::move(table.reps());
    s.hashes = std::move(table.hashes());
    s.bucket.resize(k);
    s.part_id.resize(k);
    for (int64_t id = 0; id < static_cast<int64_t>(s.reps.size()); ++id) {
      s.bucket[PartitionOf(s.hashes[id], k)].push_back(id);
    }
    for (int64_t p = 0; p < k; ++p) s.part_id[p].resize(s.bucket[p].size());
    spans[lo / span] = std::move(s);
  });

  // first[s * k + p]: partition p's first id opened by span s; the last row
  // holds each partition's size.
  std::vector<int64_t> first((k + 1) * k);
  std::vector<std::vector<int64_t>> global(k);
  ParallelFor(0, k, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p) {
      GroupIndex table;
      for (int64_t s = 0; s < k; ++s) {
        first[s * k + p] = table.size();
        const Span& sp = spans[s];
        const std::vector<int64_t>& bucket = sp.bucket[p];
        int64_t* ids = spans[s].part_id[p].data();
        for (size_t j = 0; j < bucket.size(); ++j) {
          ids[j] = table.GetOrAdd(sp.hashes[bucket[j]], sp.reps[bucket[j]], eq);
        }
      }
      first[k * k + p] = table.size();
      global[p].resize(table.size());
    }
  });

  // opened[s]: keys opened by the spans before s.
  std::vector<int64_t> opened(k + 1, 0);
  for (int64_t s = 0; s < k; ++s) {
    opened[s + 1] = opened[s];
    for (int64_t p = 0; p < k; ++p) {
      opened[s + 1] += first[(s + 1) * k + p] - first[s * k + p];
    }
  }
  first_row->resize(opened[k]);
  // Visits span s's local ids in order with the partition id of each.
  const auto for_each_local = [&](int64_t s, const auto& f) {
    const Span& sp = spans[s];
    std::vector<int64_t> at(k, 0);
    for (int64_t id = 0; id < static_cast<int64_t>(sp.reps.size()); ++id) {
      const int64_t p = PartitionOf(sp.hashes[id], k);
      f(id, p, sp.part_id[p][at[p]++]);
    }
  };
  ParallelFor(0, k, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      int64_t g = opened[s];
      for_each_local(s, [&](int64_t id, int64_t p, int64_t q) {
        if (q < first[s * k + p]) return;  // opened by an earlier span
        global[p][q] = g;
        (*first_row)[g++] = spans[s].reps[id];
      });
    }
  });
  ParallelFor(0, n, span, [&](int64_t lo, int64_t hi) {
    const int64_t s = lo / span;
    std::vector<int64_t> to_global(spans[s].reps.size());
    for_each_local(s, [&](int64_t id, int64_t p, int64_t q) {
      to_global[id] = global[p][q];
    });
    for (int64_t i = lo; i < hi; ++i) (*gids)[i] = to_global[(*gids)[i]];
  });
  return opened[k];
}

}  // namespace

/// Rows are cut into as many spans as the call gets cores (1 when no core
/// is idle). One span is one table whose ids are already first-seen; k
/// spans are merged per hash partition (BuildPartitioned). Rows are hashed
/// a block at a time as they are indexed. Hashing and comparison are typed
/// and value-based (RowHasher), so the result is identical whether string
/// keys are plain or dict-encoded.
int64_t BuildGroups(const std::vector<const Column*>& key_cols,
                    std::vector<int64_t>* gids,
                    std::vector<int64_t>* first_row) {
  const RowHasher hasher(key_cols);
  const int64_t n = hasher.num_rows();
  gids->resize(n);
  const int64_t spans = ParallelWidth(n / kMinSpanRows);

  auto run = [&](const auto& eq) -> int64_t {
    if (spans > 1) return BuildPartitioned(spans, hasher, eq, gids, first_row);
    GroupIndex table;
    IndexRows(hasher, 0, n, eq, &table, gids->data());
    *first_row = std::move(table.reps());
    return static_cast<int64_t>(first_row->size());
  };

  // A sole never-null int64 key hashes through a bijection (MixHash is
  // invertible, and so is folding a value into the constant seed), so
  // equal hashes are equal keys and the table never reads the column. A
  // sole dictionary key compares codes (see RowHasher::SoleDictCodes).
  // The grouping is the generic equality's either way.
  if (hasher.SoleInt64() != nullptr) {
    return run([](int64_t, int64_t) { return true; });
  }
  if (const int32_t* codes = hasher.SoleDictCodes()) {
    return run([codes](int64_t a, int64_t b) { return codes[a] == codes[b]; });
  }
  return run([&hasher](int64_t a, int64_t b) { return hasher.RowsEqual(a, b); });
}

}  // namespace xorbits::dataframe
