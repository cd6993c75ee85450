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

}  // namespace

Result<DataFrame> Merge(const DataFrame& left, const DataFrame& right,
                        const MergeOptions& options) {
  std::vector<std::string> lkeys = options.left_on;
  std::vector<std::string> rkeys = options.right_on;
  const bool same_names = lkeys.empty() && rkeys.empty();
  if (same_names) {
    lkeys = options.on;
    rkeys = options.on;
  }
  if (lkeys.empty() || lkeys.size() != rkeys.size()) {
    return Status::Invalid("Merge: bad key specification");
  }
  std::vector<const Column*> lcols, rcols;
  for (const auto& k : lkeys) {
    XORBITS_ASSIGN_OR_RETURN(const Column* c, left.GetColumn(k));
    lcols.push_back(c);
  }
  for (const auto& k : rkeys) {
    XORBITS_ASSIGN_OR_RETURN(const Column* c, right.GetColumn(k));
    rcols.push_back(c);
  }

  // Radix-partitioned hash join. Both sides are hashed by key value
  // (typed, encoding-independent — see RowHasher) and radix-partitioned on
  // the high hash bits; each partition builds a compact open-addressing
  // table and probes independently under `ParallelFor`. The output index
  // sequence is reconstructed in exact left-row order through a per-row
  // match-count prefix sum, so the result is byte-identical to the old
  // serial build/probe at any thread count and partition count.
  const int64_t rn = right.num_rows();
  const int64_t ln = left.num_rows();
  const RowHasher rhash(rcols);
  const RowHasher lhash(lcols);

  const bool keep_left = options.how == JoinType::kLeft ||
                         options.how == JoinType::kOuter;
  const bool keep_right = options.how == JoinType::kRight ||
                          options.how == JoinType::kOuter;

  const int bits = RadixBits(rn);
  const int64_t P = int64_t{1} << bits;
  ChargeScoped(CounterId::kJoinRadixPartitions, P);
  // With a single partition and no right-outer bookkeeping the join runs a
  // fused probe (below) that never materializes the partition layout.
  const bool fused = bits == 0 && !keep_right;

  // Key-shape dispatch, resolved before any hashing: single-column
  // never-null int64 keys (or dictionary codes over one shared dictionary)
  // run in "exact tag" mode, where the slot tag is the key itself and the
  // value-hash arrays are never materialized — slot indices mix the tag
  // inline. Table and partition layout then differ from the generic mode,
  // but the output cannot: entry ids are assigned in first-seen ascending
  // row order and matches are emitted in ascending left-row order, both
  // functions of key values alone.
  const int64_t* lk64 = lhash.SoleInt64();
  const int64_t* rk64 = rhash.SoleInt64();
  const int32_t* lc = lhash.SoleDictCodes();
  const int32_t* rc = rhash.SoleDictCodes();
  const bool same_dict =
      lc != nullptr && rc != nullptr &&
      (lhash.SoleDict() == rhash.SoleDict() ||
       lhash.SoleDict()->SameAs(*rhash.SoleDict()));
  const bool exact_tags = (lk64 != nullptr && rk64 != nullptr) || same_dict;

  // Null keys never match (pandas semantics): keep them out of tables.
  // When no key column can be null, the flag arrays stay empty and the
  // hot loops skip the per-row check entirely. (Exact-tag keys are
  // never-null by construction.)
  std::vector<uint64_t> rh, lh;
  std::vector<uint8_t> rnull, lnull;
  if (!exact_tags) {
    rh.resize(rn);
    if (rhash.MayHaveNulls()) rnull.assign(rn, 0);
    ParallelFor(0, rn, 16384, [&](int64_t lo, int64_t hi) {
      rhash.HashRange(lo, hi, rh.data());
      if (!rnull.empty()) {
        for (int64_t i = lo; i < hi; ++i) rnull[i] = rhash.AnyNull(i) ? 1 : 0;
      }
    });
    lh.resize(ln);
    if (lhash.MayHaveNulls()) lnull.assign(ln, 0);
    ParallelFor(0, ln, 16384, [&](int64_t lo, int64_t hi) {
      lhash.HashRange(lo, hi, lh.data());
      if (!lnull.empty()) {
        for (int64_t i = lo; i < hi; ++i) lnull[i] = lhash.AnyNull(i) ? 1 : 0;
      }
    });
  }

  std::vector<int64_t> chain_next(rn, -1);
  std::vector<std::unique_ptr<PartTable>> tables(P);
  // Output (left, right) row index pairs. Raw storage instead of
  // std::vector: every element is written exactly once by a parallel
  // scatter, so vector's serial zero-fill would only add a wasted
  // memory pass over megabytes.
  std::unique_ptr<int64_t[]> lidx, ridx;
  int64_t out_n = 0;
  std::vector<uint8_t> right_matched(keep_right ? rn : 0, 0);

  // The whole build+probe pipeline runs under one (tag, eq) scheme chosen
  // below — see PartTable for why the exact-tag modes emit byte-identical
  // output to the generic hash-tag mode.
  auto run_join = [&](const auto& rtag, const auto& ltag, const auto& beq,
                      const auto& peq) {
    // Slot/partition hash: the precomputed value-hash arrays in generic
    // mode, the tag mixed inline in exact-tag mode (no arrays to fill or
    // re-read). `inline_hash` is loop-invariant, so the branch predicts
    // perfectly inside the hot loops.
    const bool inline_hash = rh.empty();
    const auto rsh = [&](int64_t r) {
      return inline_hash ? MixHash(rtag(r)) : rh[r];
    };
    const auto lsh = [&](int64_t i) {
      return inline_hash ? MixHash(ltag(i)) : lh[i];
    };
    if (fused) {
      // Single-table fast path: probe morsels emit (left, right) pairs
      // into morsel-local buffers, concatenated in morsel order — rows
      // ascend within a morsel and morsels ascend by row range, so the
      // result is the exact serial ascending emission order, independent
      // of thread count.
      //
      // Exact-tag keys whose value range is compact get a direct-address
      // table instead of the hash table: `dmap[tag - tag_min]` holds the
      // entry id, so a probe is one wraparound bounds check and one load —
      // no mixing, no collision loop. Entry ids are first-seen ascending in
      // either representation, so the emitted bytes are identical.
      std::vector<int64_t> dhead, dtail, dcount;
      std::vector<int64_t> dmap;
      uint64_t tag_min = 0, tag_range = 0;
      bool direct = false;
      if (inline_hash && rn > 0) {
        uint64_t lo = rtag(0), hi = rtag(0);
        for (int64_t r = 1; r < rn; ++r) {
          const uint64_t t = rtag(r);
          lo = std::min(lo, t);
          hi = std::max(hi, t);
        }
        // Wraparound-safe: mixed-sign int64 keys produce a huge unsigned
        // span and simply fall back to the hash table.
        const uint64_t range = hi - lo + 1;
        if (range <= 65536) {
          direct = true;
          tag_min = lo;
          tag_range = range;
          dmap.assign(range, -1);
          dhead.reserve(rn);
          dtail.reserve(rn);
          dcount.reserve(rn);
          for (int64_t r = 0; r < rn; ++r) {
            const uint64_t k = rtag(r) - tag_min;
            const int64_t e = dmap[k];
            if (e < 0) {
              dmap[k] = static_cast<int64_t>(dhead.size());
              dhead.push_back(r);
              dtail.push_back(r);
              dcount.push_back(1);
            } else {
              chain_next[dtail[e]] = r;
              dtail[e] = r;
              dcount[e]++;
            }
          }
        }
      }
      if (!direct) {
        auto table = std::make_unique<PartTable>(rn, chain_next.data());
        for (int64_t r = 0; r < rn; ++r) {
          if (rnull.empty() || !rnull[r]) {
            table->Insert(rsh(r), rtag(r), r, beq);
          }
        }
        tables[0] = std::move(table);
      }
      const PartTable* tp = tables[0].get();
      const int64_t* entry_head = direct ? dhead.data() : tp->entry_head.data();
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
          if (direct) {
            const uint64_t k = ltag(i) - tag_min;
            if (k < tag_range) e = dmap[k];
          } else if (lnull.empty() || !lnull[i]) {
            e = tp->Find(lsh(i), ltag(i), i, peq);
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
      out_n = off[morsels];
      lidx.reset(new int64_t[out_n]);
      ridx.reset(new int64_t[out_n]);
      ParallelFor(0, morsels, 1, [&](int64_t mlo, int64_t mhi) {
        for (int64_t m = mlo; m < mhi; ++m) {
          std::copy(lloc[m].begin(), lloc[m].end(), lidx.get() + off[m]);
          std::copy(rloc[m].begin(), rloc[m].end(), ridx.get() + off[m]);
        }
      });
      return;
    }

    // Partitioned path: exact-tag mode materializes its hash arrays here
    // (one inline mix per row) because the radix partitioner and the
    // per-partition probes need them by row id.
    if (inline_hash) {
      rh.resize(rn);
      ParallelFor(0, rn, 16384, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) rh[i] = MixHash(rtag(i));
      });
      lh.resize(ln);
      ParallelFor(0, ln, 16384, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) lh[i] = MixHash(ltag(i));
      });
    }
    const Partitioned rpart = PartitionRows(rh, bits);
    const Partitioned lpart = PartitionRows(lh, bits);

    // Build one table per partition (right rows insert in ascending order
    // within their partition, reproducing the serial chain order).
    ParallelFor(0, P, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t p = lo; p < hi; ++p) {
        const int64_t pb = rpart.begin[p], pe = rpart.begin[p + 1];
        auto table = std::make_unique<PartTable>(pe - pb, chain_next.data());
        for (int64_t k = pb; k < pe; ++k) {
          const int64_t r = rpart.rows[k];
          if (rnull.empty() || !rnull[r]) {
            table->Insert(rh[r], rtag(r), r, beq);
          }
        }
        tables[p] = std::move(table);
      }
    });

    // Probe pass 1: each left row resolves its table entry and match count
    // (rows of one partition are probed by one morsel, so the writes into
    // the global per-row arrays are disjoint).
    std::vector<int64_t> ent(ln, -1);
    std::vector<int64_t> cnt(ln + 1, 0);
    auto probe_partition_rows = [&](int64_t p, auto&& fn) {
      const int64_t pb = lpart.begin[p], pe = lpart.begin[p + 1];
      for (int64_t k = pb; k < pe; ++k) fn(lpart.rows[k]);
    };
    ParallelFor(0, P, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t p = lo; p < hi; ++p) {
        const PartTable& table = *tables[p];
        probe_partition_rows(p, [&](int64_t i) {
          int64_t e = -1;
          if (lnull.empty() || !lnull[i]) {
            e = table.Find(lh[i], ltag(i), i, peq);
          }
          ent[i] = e;
          cnt[i + 1] = e >= 0 ? table.entry_count[e]
                              : (keep_left ? 1 : 0);
        });
      }
    });
    for (int64_t i = 0; i < ln; ++i) cnt[i + 1] += cnt[i];

    // Probe pass 2: scatter (left, right) index pairs to their final
    // offsets — the exact sequence a serial ascending probe would emit.
    out_n = cnt[ln];
    lidx.reset(new int64_t[out_n]);
    ridx.reset(new int64_t[out_n]);
    ParallelFor(0, P, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t p = lo; p < hi; ++p) {
        const PartTable& table = *tables[p];
        probe_partition_rows(p, [&](int64_t i) {
          int64_t o = cnt[i];
          const int64_t e = ent[i];
          if (e < 0) {
            if (keep_left) {
              lidx[o] = i;
              ridx[o] = -1;
            }
            return;
          }
          for (int64_t r = table.entry_head[e]; r >= 0; r = chain_next[r]) {
            lidx[o] = i;
            ridx[o] = r;
            ++o;
            if (keep_right) right_matched[r] = 1;
          }
        });
      }
    });
  };

  const auto true_eq = [](int64_t, int64_t) { return true; };
  if (lk64 != nullptr && rk64 != nullptr) {
    run_join([rk64](int64_t r) { return static_cast<uint64_t>(rk64[r]); },
             [lk64](int64_t i) { return static_cast<uint64_t>(lk64[i]); },
             true_eq, true_eq);
  } else if (same_dict) {
    run_join([rc](int64_t r) { return static_cast<uint64_t>(rc[r]); },
             [lc](int64_t i) { return static_cast<uint64_t>(lc[i]); },
             true_eq, true_eq);
  } else {
    run_join([&rh](int64_t r) { return rh[r]; },
             [&lh](int64_t i) { return lh[i]; },
             [&rhash](int64_t a, int64_t b) { return rhash.RowsEqual(a, b); },
             [&lhash, &rhash](int64_t a, int64_t b) {
               return lhash.Equal(a, rhash, b);
             });
  }

  if (keep_right) {
    int64_t extra = 0;
    for (int64_t r = 0; r < rn; ++r) extra += right_matched[r] ? 0 : 1;
    if (extra > 0) {
      std::unique_ptr<int64_t[]> nl(new int64_t[out_n + extra]);
      std::unique_ptr<int64_t[]> nr(new int64_t[out_n + extra]);
      std::copy(lidx.get(), lidx.get() + out_n, nl.get());
      std::copy(ridx.get(), ridx.get() + out_n, nr.get());
      int64_t o = out_n;
      for (int64_t r = 0; r < rn; ++r) {
        if (!right_matched[r]) {
          nl[o] = -1;
          nr[o] = r;
          ++o;
        }
      }
      lidx = std::move(nl);
      ridx = std::move(nr);
      out_n += extra;
    }
  }
  // -1 ("null row") can enter lidx only via the keep_right appends above
  // and ridx only via keep_left misses, so inner joins skip both scans.
  auto has_neg = [out_n](const int64_t* v) {
    for (int64_t i = 0; i < out_n; ++i) {
      if (v[i] < 0) return true;
    }
    return false;
  };
  const bool l_any_null = keep_right && has_neg(lidx.get());
  const bool r_any_null = keep_left && has_neg(ridx.get());

  // Assemble output columns. Key columns named in `on` are emitted once,
  // coalescing left/right values for outer joins.
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
    Column col = TakeOrNull(left.column(ci), lidx.get(), out_n, l_any_null);
    if (same_names && is_key(lkeys, name)) {
      // Coalesce: fill nulls (unmatched right rows) from the right key.
      for (size_t k = 0; k < lkeys.size(); ++k) {
        if (lkeys[k] != name) continue;
        Column rcol = TakeOrNull(*rcols[k], ridx.get(), out_n, r_any_null);
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
        out_name, TakeOrNull(right.column(ci), ridx.get(), out_n,
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

}  // namespace xorbits::dataframe
