#include "dataframe/key_hash.h"

#include <algorithm>
#include <cstring>
#include <memory>

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
  for (int64_t i = lo; i < hi; ++i) out[i] = 0xa0761d6478bd642fULL;
  for (const ColAccess& c : cols_) {
    if (c.validity == nullptr && c.kind == Kind::kInt64) {
      const uint64_t tag = TagFor(DType::kInt64);
      for (int64_t i = lo; i < hi; ++i) {
        out[i] =
            FoldHash(out[i], MixHash(static_cast<uint64_t>(c.i64[i]) ^ tag));
      }
    } else if (c.validity == nullptr && c.kind == Kind::kFloat64) {
      for (int64_t i = lo; i < hi; ++i) {
        out[i] = FoldHash(out[i], HashF64(c.f64[i]));
      }
    } else if (c.validity == nullptr && c.kind == Kind::kDict) {
      const uint64_t tag = TagFor(DType::kString);
      for (int64_t i = lo; i < hi; ++i) {
        out[i] =
            FoldHash(out[i], MixHash(c.dict->hash(c.codes[i]) ^ tag));
      }
    } else {
      for (int64_t i = lo; i < hi; ++i) out[i] = CombineCol(c, i, out[i]);
    }
  }
  for (int64_t i = lo; i < hi; ++i) out[i] = MixHash(out[i]);
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
/// dense group ids. Keys live in the source columns — a slot stores only
/// (hash, gid) and each gid remembers one representative row — so no key
/// bytes are ever materialized.
class GroupIndex {
 public:
  explicit GroupIndex(int64_t expected) {
    // Start small regardless of `expected` (which is an upper bound — the
    // morsel row count, usually vastly more than the group count) and let
    // Grow() double on demand: growth rebuilds cost O(groups), not O(rows),
    // while pre-sizing to `expected` zeroes megabytes per morsel and
    // evicts the actual working set from cache.
    int64_t cap = 64;
    const int64_t want = std::min<int64_t>(expected * 2, 8192);
    while (cap < want) cap <<= 1;
    slot_gid_.assign(cap, -1);
    slot_hash_.assign(cap, 0);
    mask_ = cap - 1;
  }

  /// Group id of `row` (hash `h`), inserting a new group on first sight.
  /// `eq(a, b)` decides row equality — callers pass an inlined typed
  /// comparator for single-column keys and the generic RowHasher equality
  /// otherwise.
  template <typename Eq>
  int64_t GetOrAdd(uint64_t h, int64_t row, const Eq& eq) {
    if (static_cast<int64_t>(reps_.size()) * 2 >=
        static_cast<int64_t>(slot_gid_.size())) {
      Grow();
    }
    int64_t idx = static_cast<int64_t>(h) & mask_;
    for (;;) {
      const int64_t g = slot_gid_[idx];
      if (g < 0) {
        const int64_t gid = static_cast<int64_t>(reps_.size());
        slot_gid_[idx] = gid;
        slot_hash_[idx] = h;
        reps_.push_back(row);
        rep_hash_.push_back(h);
        return gid;
      }
      if (slot_hash_[idx] == h && eq(reps_[g], row)) return g;
      idx = (idx + 1) & mask_;
    }
  }

  const std::vector<int64_t>& reps() const { return reps_; }
  int64_t size() const { return static_cast<int64_t>(reps_.size()); }

 private:
  void Grow() {
    const int64_t cap = static_cast<int64_t>(slot_gid_.size()) * 2;
    slot_gid_.assign(cap, -1);
    slot_hash_.assign(cap, 0);
    mask_ = cap - 1;
    for (size_t g = 0; g < reps_.size(); ++g) {
      int64_t idx = static_cast<int64_t>(rep_hash_[g]) & mask_;
      while (slot_gid_[idx] >= 0) idx = (idx + 1) & mask_;
      slot_gid_[idx] = static_cast<int64_t>(g);
      slot_hash_[idx] = rep_hash_[g];
    }
  }

  std::vector<int64_t> slot_gid_;    // -1 = empty
  std::vector<uint64_t> slot_hash_;
  std::vector<int64_t> reps_;        // gid -> representative row
  std::vector<uint64_t> rep_hash_;   // gid -> hash (for Grow)
  int64_t mask_ = 0;
};

/// Morsel grain of the index build. It depends on n alone, so the morsel
/// split, and with it the ids, never depend on the thread count.
inline int64_t IndexGrain(int64_t n) { return GrainForMorsels(n, 4096, 16); }

}  // namespace

/// Three deterministic steps:
///   1. each morsel builds a local group index (parallel);
///   2. local indexes merge into the global one in morsel order, which
///      reproduces the serial first-seen group order exactly (serial);
///   3. rows rewrite their local ids to global ids (parallel).
/// Hashing and comparison are typed and value-based (RowHasher), so the
/// result is identical whether string keys are plain or dict-encoded.
int64_t BuildGroups(const std::vector<const Column*>& key_cols,
                    std::vector<int64_t>* gids,
                    std::vector<int64_t>* first_row) {
  const RowHasher hasher(key_cols);
  const int64_t n = hasher.num_rows();
  gids->resize(n);
  std::vector<uint64_t> hashes(n);
  ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
    hasher.HashRange(lo, hi, hashes.data());
  });

  auto run = [&](const auto& eq) -> int64_t {
    const int64_t grain = IndexGrain(n);
    const int64_t morsels = NumMorsels(0, n, grain);
    if (morsels < 2) {
      GroupIndex table(n);
      for (int64_t i = 0; i < n; ++i) {
        (*gids)[i] = table.GetOrAdd(hashes[i], i, eq);
      }
      *first_row = table.reps();
      return table.size();
    }

    std::vector<std::unique_ptr<GroupIndex>> locals(morsels);
    ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
      auto local = std::make_unique<GroupIndex>(hi - lo);
      for (int64_t i = lo; i < hi; ++i) {
        (*gids)[i] = local->GetOrAdd(hashes[i], i, eq);
      }
      locals[lo / grain] = std::move(local);
    });

    GroupIndex table(n);
    std::vector<std::vector<int64_t>> remap(morsels);
    for (int64_t m = 0; m < morsels; ++m) {
      const std::vector<int64_t>& local_reps = locals[m]->reps();
      remap[m].resize(local_reps.size());
      for (size_t k = 0; k < local_reps.size(); ++k) {
        const int64_t row = local_reps[k];
        remap[m][k] = table.GetOrAdd(hashes[row], row, eq);
      }
    }
    *first_row = table.reps();

    ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
      const std::vector<int64_t>& r = remap[lo / grain];
      for (int64_t i = lo; i < hi; ++i) (*gids)[i] = r[(*gids)[i]];
    });
    return table.size();
  };

  // Single-column keys get an inlined typed comparator (see
  // RowHasher::SoleInt64 for why these are exactly equivalent to the
  // generic equality). The grouping itself is identical either way — only
  // the per-probe call overhead differs.
  if (const int64_t* k64 = hasher.SoleInt64()) {
    return run([k64](int64_t a, int64_t b) { return k64[a] == k64[b]; });
  }
  if (const int32_t* codes = hasher.SoleDictCodes()) {
    return run([codes](int64_t a, int64_t b) { return codes[a] == codes[b]; });
  }
  return run([&hasher](int64_t a, int64_t b) { return hasher.RowsEqual(a, b); });
}

}  // namespace xorbits::dataframe
