#include "dataframe/join.h"

#include <algorithm>
#include <memory>

#include "common/thread_pool.h"
#include "dataframe/kernels.h"
#include "dataframe/key_hash.h"

namespace xorbits::dataframe {

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner: return "inner";
    case JoinType::kLeft: return "left";
    case JoinType::kRight: return "right";
    case JoinType::kOuter: return "outer";
  }
  return "?";
}

Result<JoinType> JoinTypeFromName(const std::string& name) {
  if (name == "inner") return JoinType::kInner;
  if (name == "left") return JoinType::kLeft;
  if (name == "right") return JoinType::kRight;
  if (name == "outer") return JoinType::kOuter;
  return Status::Invalid("unknown join type: " + name);
}

namespace {

/// Gathers rows by index where -1 produces a null row. `any_null` is the
/// caller-precomputed "indices contain -1" flag — hoisted so the scan runs
/// once per index vector, not once per output column.
Column TakeOrNull(const Column& col, const int64_t* indices, int64_t n,
                  bool any_null) {
  if (!any_null) return col.Take(indices, n);
  std::vector<int64_t> safe(indices, indices + n);
  std::vector<uint8_t> validity(n, 1);
  ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (safe[i] < 0) {
        safe[i] = 0;
        validity[i] = 0;
      }
    }
  });
  Column out = col.length() == 0 ? Column::Nulls(col.dtype(), n)
                                 : col.Take(safe);
  std::vector<uint8_t> merged(n, 1);
  ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      merged[i] = (validity[i] && out.IsValid(i)) ? 1 : 0;
    }
  });
  out.mutable_validity() = std::move(merged);
  return out;
}

/// Radix bits for a build side of `n` rows: 0 (a single table) while the
/// table fits comfortably in cache, then enough partitions to bring each
/// one back under ~16k keys, capped at 64 partitions. A pure function of n,
/// so the partitioning never depends on thread count.
int RadixBits(int64_t n) {
  int bits = 0;
  while (bits < 6 && (n >> bits) > 16384) ++bits;
  return bits;
}

/// Rows grouped by hash-radix partition: `rows[begin[p]..begin[p+1])` are
/// the row ids of partition p, ascending. Built with a deterministic
/// counting sort (per-morsel histograms, serial prefix in (partition,
/// morsel) order, parallel scatter), so the layout is identical at any
/// thread count.
struct Partitioned {
  std::vector<int64_t> rows;
  std::vector<int64_t> begin;  // size P+1
  std::vector<int32_t> pid;    // row -> partition
};

Partitioned PartitionRows(const std::vector<uint64_t>& hashes, int bits) {
  const int64_t n = static_cast<int64_t>(hashes.size());
  const int64_t P = int64_t{1} << bits;
  Partitioned out;
  if (bits == 0) {
    out.rows.resize(n);
    for (int64_t i = 0; i < n; ++i) out.rows[i] = i;
    out.begin = {0, n};
    return out;
  }
  out.pid.resize(n);
  const int64_t grain = 16384;
  const int64_t morsels = NumMorsels(0, n, grain);
  std::vector<std::vector<int64_t>> counts(
      morsels, std::vector<int64_t>(P, 0));
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    std::vector<int64_t>& c = counts[lo / grain];
    for (int64_t i = lo; i < hi; ++i) {
      // High bits pick the partition; the in-table probe masks low bits,
      // so the two never correlate.
      const int32_t p = static_cast<int32_t>(hashes[i] >> (64 - bits));
      out.pid[i] = p;
      c[p]++;
    }
  });
  out.begin.assign(P + 1, 0);
  std::vector<std::vector<int64_t>> offs(morsels,
                                         std::vector<int64_t>(P, 0));
  int64_t pos = 0;
  for (int64_t p = 0; p < P; ++p) {
    out.begin[p] = pos;
    for (int64_t m = 0; m < morsels; ++m) {
      offs[m][p] = pos;
      pos += counts[m][p];
    }
  }
  out.begin[P] = pos;
  out.rows.resize(n);
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    std::vector<int64_t>& off = offs[lo / grain];
    for (int64_t i = lo; i < hi; ++i) out.rows[off[out.pid[i]]++] = i;
  });
  return out;
}

/// Compact per-partition build table: open addressing from key hash to an
/// entry whose right rows chain in ascending order (insertion order is
/// ascending, so probes emit matches exactly like the old serial build).
///
/// Each slot packs (tag, entry) into one 16-byte struct so a probe touches
/// a single cache line. The tag is the 64-bit key hash in the generic
/// mode; for single-column never-null int64 / shared-dictionary keys the
/// caller stores the key value (or dictionary code) itself, making tag
/// equality exactly key equality — `eq` then degenerates to a constant
/// `true` and the probe loop never touches the key columns at all. Entry
/// ids are assigned in ascending first-seen order in every mode, so
/// chains, match order and output bytes are identical across modes.
struct PartTable {
  struct Slot {
    uint64_t tag;
    int64_t entry;  // -1 = empty
  };
  std::vector<Slot> slots;
  std::vector<int64_t> entry_head;   // entry -> first right row
  std::vector<int64_t> entry_tail;   // entry -> last right row (append point)
  std::vector<int64_t> entry_count;  // entry -> chain length
  /// Global chain links (right row -> next right row, -1 ends), shared by
  /// all partitions: each right row lives in exactly one partition, so
  /// parallel builders write disjoint elements.
  int64_t* next = nullptr;
  int64_t mask = 0;

  PartTable(int64_t expected, int64_t* next_links) : next(next_links) {
    int64_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots.assign(cap, Slot{0, -1});
    mask = cap - 1;
  }

  /// `h` picks the slot; `tag` decides slot identity; `eq(a, b)` compares
  /// two build-side rows (constant-true in exact-tag modes).
  template <typename Eq>
  void Insert(uint64_t h, uint64_t tag, int64_t row, const Eq& eq) {
    int64_t idx = static_cast<int64_t>(h) & mask;
    for (;;) {
      Slot& s = slots[idx];
      if (s.entry < 0) {
        s.entry = static_cast<int64_t>(entry_head.size());
        s.tag = tag;
        entry_head.push_back(row);
        entry_tail.push_back(row);
        entry_count.push_back(1);
        return;
      }
      if (s.tag == tag && eq(entry_head[s.entry], row)) {
        next[entry_tail[s.entry]] = row;
        entry_tail[s.entry] = row;
        entry_count[s.entry]++;
        return;
      }
      idx = (idx + 1) & mask;
    }
  }

  /// Entry id for a probe-side row, -1 when absent. `eq(probe_row,
  /// build_row)` is the cross-side key equality (constant-true in
  /// exact-tag modes).
  template <typename Eq>
  int64_t Find(uint64_t h, uint64_t tag, int64_t row, const Eq& eq) const {
    int64_t idx = static_cast<int64_t>(h) & mask;
    for (;;) {
      const Slot& s = slots[idx];
      if (s.entry < 0) return -1;
      if (s.tag == tag && eq(row, entry_head[s.entry])) {
        return s.entry;
      }
      idx = (idx + 1) & mask;
    }
  }
};

/// Output (left, right) row index pairs. Raw storage instead of
/// std::vector: every element is written exactly once by a parallel
/// scatter, so vector's serial zero-fill would only add a wasted memory
/// pass over megabytes.
struct IndexPairs {
  std::unique_ptr<int64_t[]> lidx, ridx;
  int64_t n = 0;
};

Result<std::vector<const Column*>> KeyColumns(
    const DataFrame& df, const std::vector<std::string>& keys) {
  std::vector<const Column*> cols;
  for (const auto& k : keys) {
    XORBITS_ASSIGN_OR_RETURN(const Column* c, df.GetColumn(k));
    cols.push_back(c);
  }
  return cols;
}

/// Both tuples are codes over one dictionary (pointer-equal or SameAs), so
/// equal codes are exactly equal values.
bool SharesDict(const RowHasher& a, const RowHasher& b) {
  return a.SoleDictCodes() != nullptr && b.SoleDictCodes() != nullptr &&
         (a.SoleDict() == b.SoleDict() || a.SoleDict()->SameAs(*b.SoleDict()));
}

}  // namespace

struct JoinTable {
  JoinTable(const DataFrame& build_side, std::vector<std::string> key_names,
            std::vector<const Column*> key_cols, JoinKeyMode key_mode)
      : build(&build_side),
        keys(std::move(key_names)),
        cols(key_cols),
        mode(key_mode),
        hasher(std::move(key_cols)) {}

  const DataFrame* build;
  std::vector<std::string> keys;
  std::vector<const Column*> cols;
  JoinKeyMode mode;
  RowHasher hasher;
  int bits = 0;  // RadixBits(build rows)
  /// Chain links shared by all partitions (right row -> next right row of
  /// the same key, -1 ends).
  std::vector<int64_t> chain_next;
  /// One table per radix partition; empty when `direct`.
  std::vector<std::unique_ptr<PartTable>> parts;
  /// Direct-address map for exact keys with a compact value range (single
  /// partition only): `dmap[tag - tag_min]` is the entry id, `dhead[entry]`
  /// its first right row.
  bool direct = false;
  uint64_t tag_min = 0;
  uint64_t tag_range = 0;
  std::vector<int64_t> dmap, dhead;
};

namespace {

// The table is laid out and probed under one (tag, eq) scheme per key mode
// — see PartTable for why the exact modes emit the same bytes as the hash
// mode. Slot and partition hashes are the value hashes `rh`/`lh` in the
// hash mode; the exact modes mix the tag inline and fill the arrays only
// where the radix partitioner needs them by row id.

/// Lays out `t` over its `rn` build rows. `rtag(r)` is row r's slot tag,
/// `beq(a, b)` build-side key equality, `rnull` flags unmatchable rows
/// (empty when no key can be null).
template <typename Tag, typename Eq>
void BuildLayout(JoinTable& t, int64_t rn, const Tag& rtag, const Eq& beq,
                 std::vector<uint64_t>& rh,
                 const std::vector<uint8_t>& rnull) {
  const bool exact = t.mode != JoinKeyMode::kHash;
  const auto skip = [&](int64_t r) { return !rnull.empty() && rnull[r]; };
  t.chain_next.assign(rn, -1);
  if (t.bits == 0) {
    if (exact && rn > 0) {
      uint64_t lo = rtag(0), hi = rtag(0);
      for (int64_t r = 1; r < rn; ++r) {
        const uint64_t tag = rtag(r);
        lo = std::min(lo, tag);
        hi = std::max(hi, tag);
      }
      // Mixed-sign int64 keys produce a huge unsigned span and fall back
      // to the hash table. The span is compared before adding one: keys 0
      // and -1 span all 2^64 tags, and `+ 1` would wrap that to 0.
      if (hi - lo < 65536) {
        t.direct = true;
        t.tag_min = lo;
        t.tag_range = hi - lo + 1;
        t.dmap.assign(t.tag_range, -1);
        std::vector<int64_t> dtail;
        for (int64_t r = 0; r < rn; ++r) {
          const uint64_t k = rtag(r) - lo;
          const int64_t e = t.dmap[k];
          if (e < 0) {
            t.dmap[k] = static_cast<int64_t>(t.dhead.size());
            t.dhead.push_back(r);
            dtail.push_back(r);
          } else {
            t.chain_next[dtail[e]] = r;
            dtail[e] = r;
          }
        }
        return;
      }
    }
    auto table = std::make_unique<PartTable>(rn, t.chain_next.data());
    for (int64_t r = 0; r < rn; ++r) {
      if (!skip(r)) table->Insert(exact ? MixHash(rtag(r)) : rh[r], rtag(r),
                                  r, beq);
    }
    t.parts.push_back(std::move(table));
    return;
  }
  if (exact) {
    rh.resize(rn);
    ParallelFor(0, rn, 16384, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) rh[i] = MixHash(rtag(i));
    });
  }
  const Partitioned rpart = PartitionRows(rh, t.bits);
  // One table per partition; right rows insert in ascending order within
  // their partition, reproducing the serial chain order.
  t.parts.resize(rpart.begin.size() - 1);
  ParallelFor(0, static_cast<int64_t>(t.parts.size()), 1,
              [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p) {
      const int64_t pb = rpart.begin[p], pe = rpart.begin[p + 1];
      auto table = std::make_unique<PartTable>(pe - pb, t.chain_next.data());
      for (int64_t k = pb; k < pe; ++k) {
        const int64_t r = rpart.rows[k];
        if (!skip(r)) table->Insert(rh[r], rtag(r), r, beq);
      }
      t.parts[p] = std::move(table);
    }
  });
}

/// Probes `t` with `ln` left rows. `ltag(i)` is row i's tag, `peq(probe,
/// build)` the cross-side key equality, `lnull` flags unmatchable rows.
/// Pairs come out in the exact order a serial ascending probe emits them,
/// at any thread and partition count.
template <typename Tag, typename Eq>
IndexPairs ProbeLayout(const JoinTable& t, int64_t ln, const Tag& ltag,
                       const Eq& peq, std::vector<uint64_t>& lh,
                       const std::vector<uint8_t>& lnull, bool keep_left) {
  const bool exact = t.mode != JoinKeyMode::kHash;
  const auto skip = [&](int64_t i) { return !lnull.empty() && lnull[i]; };
  const int64_t* chain_next = t.chain_next.data();
  IndexPairs out;
  if (t.bits == 0) {
    // Single table: probe morsels emit (left, right) pairs into
    // morsel-local buffers, concatenated in morsel order — rows ascend
    // within a morsel and morsels ascend by row range.
    const PartTable* tp = t.direct ? nullptr : t.parts[0].get();
    const int64_t* entry_head =
        t.direct ? t.dhead.data() : tp->entry_head.data();
    const int64_t grain = 16384;
    const int64_t morsels = NumMorsels(0, ln, grain);
    std::vector<std::vector<int64_t>> lloc(morsels), rloc(morsels);
    ParallelFor(0, ln, grain, [&](int64_t lo, int64_t hi) {
      std::vector<int64_t>& lv = lloc[lo / grain];
      std::vector<int64_t>& rv = rloc[lo / grain];
      // Slack over the 1:1 estimate: a fan-out barely above 1 would
      // otherwise force every morsel through a capacity-doubling copy.
      lv.reserve(hi - lo + (hi - lo) / 8 + 8);
      rv.reserve(hi - lo + (hi - lo) / 8 + 8);
      for (int64_t i = lo; i < hi; ++i) {
        int64_t e = -1;
        if (t.direct) {
          const uint64_t k = ltag(i) - t.tag_min;
          if (k < t.tag_range) e = t.dmap[k];
        } else if (!skip(i)) {
          e = tp->Find(exact ? MixHash(ltag(i)) : lh[i], ltag(i), i, peq);
        }
        if (e < 0) {
          if (keep_left) {
            lv.push_back(i);
            rv.push_back(-1);
          }
          continue;
        }
        for (int64_t r = entry_head[e]; r >= 0; r = chain_next[r]) {
          lv.push_back(i);
          rv.push_back(r);
        }
      }
    });
    std::vector<int64_t> off(morsels + 1, 0);
    for (int64_t m = 0; m < morsels; ++m) {
      off[m + 1] = off[m] + static_cast<int64_t>(lloc[m].size());
    }
    out.n = off[morsels];
    out.lidx.reset(new int64_t[out.n]);
    out.ridx.reset(new int64_t[out.n]);
    ParallelFor(0, morsels, 1, [&](int64_t mlo, int64_t mhi) {
      for (int64_t m = mlo; m < mhi; ++m) {
        std::copy(lloc[m].begin(), lloc[m].end(), out.lidx.get() + off[m]);
        std::copy(rloc[m].begin(), rloc[m].end(), out.ridx.get() + off[m]);
      }
    });
    return out;
  }

  if (exact) {
    lh.resize(ln);
    ParallelFor(0, ln, 16384, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) lh[i] = MixHash(ltag(i));
    });
  }
  const Partitioned lpart = PartitionRows(lh, t.bits);
  const int64_t P = static_cast<int64_t>(t.parts.size());
  auto probe_partition_rows = [&](int64_t p, auto&& fn) {
    const int64_t pb = lpart.begin[p], pe = lpart.begin[p + 1];
    for (int64_t k = pb; k < pe; ++k) fn(lpart.rows[k]);
  };
  // Pass 1: each left row resolves its table entry and match count (rows
  // of one partition are probed by one morsel, so the writes into the
  // per-row arrays are disjoint).
  std::vector<int64_t> ent(ln, -1);
  std::vector<int64_t> cnt(ln + 1, 0);
  ParallelFor(0, P, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p) {
      const PartTable& table = *t.parts[p];
      probe_partition_rows(p, [&](int64_t i) {
        const int64_t e =
            skip(i) ? -1 : table.Find(lh[i], ltag(i), i, peq);
        ent[i] = e;
        cnt[i + 1] = e >= 0 ? table.entry_count[e] : (keep_left ? 1 : 0);
      });
    }
  });
  for (int64_t i = 0; i < ln; ++i) cnt[i + 1] += cnt[i];

  // Pass 2: scatter (left, right) pairs to their final offsets.
  out.n = cnt[ln];
  out.lidx.reset(new int64_t[out.n]);
  out.ridx.reset(new int64_t[out.n]);
  ParallelFor(0, P, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p) {
      const PartTable& table = *t.parts[p];
      probe_partition_rows(p, [&](int64_t i) {
        int64_t o = cnt[i];
        const int64_t e = ent[i];
        if (e < 0) {
          if (keep_left) {
            out.lidx[o] = i;
            out.ridx[o] = -1;
          }
          return;
        }
        for (int64_t r = table.entry_head[e]; r >= 0; r = chain_next[r]) {
          out.lidx[o] = i;
          out.ridx[o] = r;
          ++o;
        }
      });
    }
  });
  return out;
}

/// Appends one (-1, r) pair per right row no pair matched, ascending.
void AppendUnmatchedRight(int64_t rn, IndexPairs* pairs) {
  std::vector<uint8_t> matched(rn, 0);
  for (int64_t o = 0; o < pairs->n; ++o) {
    if (pairs->ridx[o] >= 0) matched[pairs->ridx[o]] = 1;
  }
  int64_t extra = 0;
  for (int64_t r = 0; r < rn; ++r) extra += matched[r] ? 0 : 1;
  if (extra == 0) return;
  std::unique_ptr<int64_t[]> nl(new int64_t[pairs->n + extra]);
  std::unique_ptr<int64_t[]> nr(new int64_t[pairs->n + extra]);
  std::copy(pairs->lidx.get(), pairs->lidx.get() + pairs->n, nl.get());
  std::copy(pairs->ridx.get(), pairs->ridx.get() + pairs->n, nr.get());
  int64_t o = pairs->n;
  for (int64_t r = 0; r < rn; ++r) {
    if (!matched[r]) {
      nl[o] = -1;
      nr[o] = r;
      ++o;
    }
  }
  pairs->lidx = std::move(nl);
  pairs->ridx = std::move(nr);
  pairs->n += extra;
}

}  // namespace

Result<JoinKeys> ResolveJoinKeys(const MergeOptions& options) {
  JoinKeys keys{options.left_on, options.right_on};
  if (keys.left.empty() && keys.right.empty()) {
    keys.left = options.on;
    keys.right = options.on;
  }
  if (keys.left.empty() || keys.left.size() != keys.right.size()) {
    return Status::Invalid("Merge: bad key specification");
  }
  return keys;
}

Result<JoinKeyMode> ChooseJoinKeyMode(const DataFrame& left,
                                      const std::vector<std::string>& lkeys,
                                      const DataFrame& right,
                                      const std::vector<std::string>& rkeys) {
  XORBITS_ASSIGN_OR_RETURN(auto lcols, KeyColumns(left, lkeys));
  XORBITS_ASSIGN_OR_RETURN(auto rcols, KeyColumns(right, rkeys));
  const RowHasher lhash(std::move(lcols));
  const RowHasher rhash(std::move(rcols));
  if (lhash.SoleInt64() != nullptr && rhash.SoleInt64() != nullptr) {
    return JoinKeyMode::kExactInt64;
  }
  if (SharesDict(lhash, rhash)) return JoinKeyMode::kDictCodes;
  return JoinKeyMode::kHash;
}

Result<std::shared_ptr<const JoinTable>> BuildJoinTable(
    const DataFrame& right, const std::vector<std::string>& rkeys,
    JoinKeyMode mode) {
  if (rkeys.empty()) return Status::Invalid("BuildJoinTable: no key columns");
  XORBITS_ASSIGN_OR_RETURN(auto rcols, KeyColumns(right, rkeys));
  auto t = std::make_shared<JoinTable>(right, rkeys, std::move(rcols), mode);
  const RowHasher& rhash = t->hasher;
  const int64_t rn = right.num_rows();
  const int64_t* rk64 = rhash.SoleInt64();
  const int32_t* rc = rhash.SoleDictCodes();
  if ((mode == JoinKeyMode::kExactInt64 && rk64 == nullptr) ||
      (mode == JoinKeyMode::kDictCodes && rc == nullptr)) {
    return Status::Invalid("BuildJoinTable: build keys do not fit the mode");
  }
  t->bits = RadixBits(rn);
  ChargeScoped(CounterId::kJoinTablesBuilt);
  ChargeScoped(CounterId::kJoinRadixPartitions, int64_t{1} << t->bits);

  const auto true_eq = [](int64_t, int64_t) { return true; };
  std::vector<uint64_t> rh;
  std::vector<uint8_t> rnull;
  switch (mode) {
    case JoinKeyMode::kExactInt64:
      BuildLayout(*t, rn,
                  [rk64](int64_t r) { return static_cast<uint64_t>(rk64[r]); },
                  true_eq, rh, rnull);
      break;
    case JoinKeyMode::kDictCodes:
      BuildLayout(*t, rn,
                  [rc](int64_t r) { return static_cast<uint64_t>(rc[r]); },
                  true_eq, rh, rnull);
      break;
    case JoinKeyMode::kHash:
      // Null keys never match (pandas semantics): keep them out of the
      // table. With no nullable key column the flag array stays empty and
      // the hot loops skip the check.
      rh.resize(rn);
      if (rhash.MayHaveNulls()) rnull.assign(rn, 0);
      ParallelFor(0, rn, 16384, [&](int64_t lo, int64_t hi) {
        rhash.HashRange(lo, hi, rh.data());
        if (!rnull.empty()) {
          for (int64_t i = lo; i < hi; ++i) rnull[i] = rhash.AnyNull(i);
        }
      });
      BuildLayout(*t, rn, [&rh](int64_t r) { return rh[r]; },
                  [&rhash](int64_t a, int64_t b) {
                    return rhash.RowsEqual(a, b);
                  },
                  rh, rnull);
      break;
  }
  return std::shared_ptr<const JoinTable>(std::move(t));
}

Result<DataFrame> ProbeJoin(const DataFrame& left,
                            const std::vector<std::string>& lkeys,
                            const JoinTable& table,
                            const MergeOptions& options) {
  if (lkeys.size() != table.keys.size()) {
    return Status::Invalid("ProbeJoin: key count differs from the table's");
  }
  XORBITS_ASSIGN_OR_RETURN(auto lcols, KeyColumns(left, lkeys));
  const RowHasher lhash(lcols);
  const int64_t ln = left.num_rows();
  const bool keep_left = options.how == JoinType::kLeft ||
                         options.how == JoinType::kOuter;
  const bool keep_right = options.how == JoinType::kRight ||
                          options.how == JoinType::kOuter;
  const Status misfit =
      Status::Invalid("ProbeJoin: probe keys do not fit the table's mode");

  const auto true_eq = [](int64_t, int64_t) { return true; };
  std::vector<uint64_t> lh;
  std::vector<uint8_t> lnull;
  IndexPairs pairs;
  switch (table.mode) {
    case JoinKeyMode::kExactInt64: {
      const int64_t* lk64 = lhash.SoleInt64();
      if (lk64 == nullptr) return misfit;
      pairs = ProbeLayout(
          table, ln,
          [lk64](int64_t i) { return static_cast<uint64_t>(lk64[i]); },
          true_eq, lh, lnull, keep_left);
      break;
    }
    case JoinKeyMode::kDictCodes: {
      if (!SharesDict(lhash, table.hasher)) return misfit;
      const int32_t* lc = lhash.SoleDictCodes();
      pairs = ProbeLayout(
          table, ln, [lc](int64_t i) { return static_cast<uint64_t>(lc[i]); },
          true_eq, lh, lnull, keep_left);
      break;
    }
    case JoinKeyMode::kHash:
      lh.resize(ln);
      if (lhash.MayHaveNulls()) lnull.assign(ln, 0);
      ParallelFor(0, ln, 16384, [&](int64_t lo, int64_t hi) {
        lhash.HashRange(lo, hi, lh.data());
        if (!lnull.empty()) {
          for (int64_t i = lo; i < hi; ++i) lnull[i] = lhash.AnyNull(i);
        }
      });
      pairs = ProbeLayout(table, ln, [&lh](int64_t i) { return lh[i]; },
                          [&lhash, &table](int64_t a, int64_t b) {
                            return lhash.Equal(a, table.hasher, b);
                          },
                          lh, lnull, keep_left);
      break;
  }
  const DataFrame& right = *table.build;
  if (keep_right) AppendUnmatchedRight(right.num_rows(), &pairs);
  const int64_t out_n = pairs.n;
  const int64_t* lidx = pairs.lidx.get();
  const int64_t* ridx = pairs.ridx.get();
  // -1 ("null row") can enter lidx only via the unmatched-right appends
  // and ridx only via keep_left misses, so inner joins skip both scans.
  auto has_neg = [out_n](const int64_t* v) {
    for (int64_t i = 0; i < out_n; ++i) {
      if (v[i] < 0) return true;
    }
    return false;
  };
  const bool l_any_null = keep_right && has_neg(lidx);
  const bool r_any_null = keep_left && has_neg(ridx);

  // Assemble output columns. Key columns named in `on` are emitted once,
  // coalescing left/right values for outer joins.
  const bool same_names = options.left_on.empty() && options.right_on.empty();
  const std::vector<std::string>& rkeys = table.keys;
  DataFrame out;
  auto is_key = [](const std::vector<std::string>& keys,
                   const std::string& name) {
    for (const auto& k : keys) {
      if (k == name) return true;
    }
    return false;
  };
  for (int ci = 0; ci < left.num_columns(); ++ci) {
    const std::string& name = left.column_name(ci);
    std::string out_name = name;
    if (!(same_names && is_key(lkeys, name)) && right.HasColumn(name) &&
        !(same_names && is_key(rkeys, name))) {
      out_name = name + options.suffix_left;
    }
    Column col = TakeOrNull(left.column(ci), lidx, out_n, l_any_null);
    if (same_names && is_key(lkeys, name)) {
      // Coalesce: fill nulls (unmatched right rows) from the right key.
      for (size_t k = 0; k < lkeys.size(); ++k) {
        if (lkeys[k] != name) continue;
        Column rcol = TakeOrNull(*table.cols[k], ridx, out_n, r_any_null);
        if (col.has_validity()) {
          const int64_t n = col.length();
          std::vector<int64_t> fill_rows;
          for (int64_t i = 0; i < n; ++i) {
            if (col.IsNull(i) && rcol.IsValid(i)) fill_rows.push_back(i);
          }
          if (!fill_rows.empty()) {
            // Rebuild the column with right values where left is null.
            // Dictionary key columns decode first: the in-place fill below
            // writes through mutable_string_data (the documented fallback
            // rule — outer-join coalesce is not a hot path).
            if (col.dtype() == DType::kString &&
                (col.is_dict() || rcol.is_dict())) {
              col = col.DecodedFallback();
              rcol = rcol.DecodedFallback();
            }
            // Simple per-row rebuild via scalars is acceptable here: outer
            // joins with unmatched right rows are rare in hot paths.
            for (int64_t i : fill_rows) {
              // Replace by reconstructing from rcol at i.
              switch (col.dtype()) {
                case DType::kInt64:
                  col.mutable_int64_data()[i] = rcol.int64_data()[i];
                  break;
                case DType::kFloat64:
                  col.mutable_float64_data()[i] = rcol.float64_data()[i];
                  break;
                case DType::kString:
                  col.mutable_string_data()[i] = rcol.string_data()[i];
                  break;
                case DType::kBool:
                  col.mutable_bool_data()[i] = rcol.bool_data()[i];
                  break;
              }
              col.mutable_validity()[i] = 1;
            }
          }
        }
        break;
      }
    }
    XORBITS_RETURN_NOT_OK(out.SetColumn(out_name, std::move(col)));
  }
  for (int ci = 0; ci < right.num_columns(); ++ci) {
    const std::string& name = right.column_name(ci);
    if (same_names && is_key(rkeys, name)) continue;  // already emitted
    std::string out_name = name;
    if (left.HasColumn(name) && !(same_names && is_key(lkeys, name))) {
      out_name = name + options.suffix_right;
    }
    XORBITS_RETURN_NOT_OK(out.SetColumn(
        out_name, TakeOrNull(right.column(ci), ridx, out_n,
                             r_any_null)));
  }
  out.set_index(Index::Range(0, out_n));

  if (options.sort) {
    std::vector<std::string> by;
    for (const auto& k : lkeys) {
      by.push_back(out.HasColumn(k) ? k : k + options.suffix_left);
    }
    return SortValues(out, by, std::vector<bool>(by.size(), true));
  }
  return out;
}

Result<DataFrame> Merge(const DataFrame& left, const DataFrame& right,
                        const MergeOptions& options) {
  XORBITS_ASSIGN_OR_RETURN(JoinKeys keys, ResolveJoinKeys(options));
  XORBITS_ASSIGN_OR_RETURN(
      JoinKeyMode mode, ChooseJoinKeyMode(left, keys.left, right, keys.right));
  XORBITS_ASSIGN_OR_RETURN(auto table,
                           BuildJoinTable(right, keys.right, mode));
  return ProbeJoin(left, keys.left, *table, options);
}

}  // namespace xorbits::dataframe
