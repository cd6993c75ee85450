#include "dataframe/groupby.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.h"
#include "dataframe/compute.h"
#include "dataframe/key_hash.h"

namespace xorbits::dataframe {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum: return "sum";
    case AggFunc::kCount: return "count";
    case AggFunc::kMean: return "mean";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
    case AggFunc::kSize: return "size";
    case AggFunc::kFirst: return "first";
    case AggFunc::kLast: return "last";
    case AggFunc::kNunique: return "nunique";
    case AggFunc::kVar: return "var";
    case AggFunc::kStd: return "std";
    case AggFunc::kSumSq: return "sumsq";
    case AggFunc::kMedian: return "median";
    case AggFunc::kProd: return "prod";
    case AggFunc::kAny: return "any";
    case AggFunc::kAll: return "all";
  }
  return "?";
}

Result<AggFunc> AggFuncFromName(const std::string& name) {
  static const std::pair<const char*, AggFunc> kTable[] = {
      {"sum", AggFunc::kSum},        {"count", AggFunc::kCount},
      {"mean", AggFunc::kMean},      {"avg", AggFunc::kMean},
      {"min", AggFunc::kMin},        {"max", AggFunc::kMax},
      {"size", AggFunc::kSize},      {"first", AggFunc::kFirst},
      {"last", AggFunc::kLast},      {"nunique", AggFunc::kNunique},
      {"var", AggFunc::kVar},        {"std", AggFunc::kStd},
      {"sumsq", AggFunc::kSumSq},  {"median", AggFunc::kMedian},
      {"prod", AggFunc::kProd},    {"any", AggFunc::kAny},
      {"all", AggFunc::kAll},
  };
  for (const auto& [n, f] : kTable) {
    if (name == n) return f;
  }
  return Status::Invalid("unknown aggregation: " + name);
}

namespace {

/// Morsel grain for aggregation kernels: bounded morsel count keeps the
/// per-morsel partial buffers (size G each) cheap, and the decomposition is
/// a pure function of n so results never depend on thread count.
inline int64_t AggGrain(int64_t n) { return GrainForMorsels(n, 4096, 16); }

/// Grain for aggregates whose result does not depend on how rows are split
/// into morsels (integer counts and sums, min/max, first/last, any/all):
/// each morsel also covers at least kRowsPerGroupPerMorsel rows per group,
/// so a chunk with many groups and few rows per group (plasticc's
/// per-object map) allocates and folds one G-sized partial, not one per
/// 4096 rows. Float accumulators keep AggGrain: their bits depend on the
/// split.
constexpr int64_t kRowsPerGroupPerMorsel = 8;
inline int64_t ExactAggGrain(int64_t n, int64_t G) {
  return std::max(AggGrain(n), kRowsPerGroupPerMorsel * G);
}

/// One valid row per group, -1 where the group has none: scanning in row
/// order, a row replaces the group's pick when `better(row, pick)`. With a
/// strict order that is the earliest extreme row; with `better` constant
/// false (true) it is the first (last) valid row. With kNanAware, rows
/// flagged `is_nan` never compete, but a group whose first valid row is
/// NaN picks that row — exactly what a serial strict-comparison scan
/// keeps, since nothing compares better than NaN. Every rule here folds
/// associatively in morsel order, so the pick does not depend on how rows
/// are split into morsels.
template <bool kNanAware, typename Better, typename IsNan>
std::vector<int64_t> PickExtremeRows(const uint8_t* valid, const int64_t* gid,
                                     int64_t n, int64_t G, int64_t grain,
                                     const Better& better,
                                     const IsNan& is_nan) {
  struct Picks {
    std::vector<int64_t> first;  // earliest valid row (kNanAware only)
    std::vector<int64_t> best;   // earliest extreme non-NaN row
  };
  Picks picks = ParallelReduce(
      0, n, grain, Picks{},
      [&](int64_t lo, int64_t hi) {
        Picks p;
        p.best.assign(G, -1);
        if constexpr (kNanAware) p.first.assign(G, -1);
        for (int64_t i = lo; i < hi; ++i) {
          if (valid != nullptr && !valid[i]) continue;
          const int64_t g = gid[i];
          if constexpr (kNanAware) {
            if (p.first[g] < 0) p.first[g] = i;
            if (is_nan(i)) continue;
          }
          int64_t& b = p.best[g];
          if (b < 0 || better(i, b)) b = i;
        }
        return p;
      },
      [&](Picks a, Picks b) {
        if (a.best.empty()) return b;  // the fold's identity
        for (int64_t g = 0; g < G; ++g) {
          if constexpr (kNanAware) {
            if (a.first[g] < 0) a.first[g] = b.first[g];
          }
          const int64_t r = b.best[g];
          if (r >= 0 && (a.best[g] < 0 || better(r, a.best[g]))) {
            a.best[g] = r;
          }
        }
        return a;
      });
  if (picks.best.empty()) return std::vector<int64_t>(G, -1);
  if constexpr (kNanAware) {
    for (int64_t g = 0; g < G; ++g) {
      const int64_t f = picks.first[g];
      if (f >= 0 && is_nan(f)) picks.best[g] = f;
    }
  }
  return std::move(picks.best);
}

/// Gathers the picked row of every group (PickExtremeRows); groups without
/// one (-1) become null.
Column TakePicks(const Column& col, const std::vector<int64_t>& pick) {
  const int64_t G = static_cast<int64_t>(pick.size());
  if (col.length() == 0) return Column::Nulls(col.dtype(), G);
  std::vector<int64_t> indices(G, 0);
  bool any_null = false;
  for (int64_t g = 0; g < G; ++g) {
    if (pick[g] < 0) {
      any_null = true;
    } else {
      indices[g] = pick[g];
    }
  }
  Column out = col.Take(indices);
  if (any_null) {
    std::vector<uint8_t> merged(G, 1);
    for (int64_t g = 0; g < G; ++g) {
      merged[g] = pick[g] >= 0 && out.IsValid(g) ? 1 : 0;
    }
    out.mutable_validity() = std::move(merged);
  }
  return out;
}

/// Elementwise-sum combine for per-morsel partial accumulators.
template <typename T>
std::vector<T> AddVec(std::vector<T> a, std::vector<T> b) {
  for (size_t g = 0; g < a.size(); ++g) a[g] += b[g];
  return a;
}

Result<Column> AggregateColumn(const Column* col, AggFunc func,
                               const std::vector<int64_t>& gids, int64_t G) {
  const int64_t n = static_cast<int64_t>(gids.size());
  // Hot accumulations below run as morsel-local partials (one G-sized
  // buffer per morsel, morsel count capped by AggGrain, or by
  // ExactAggGrain where the split cannot show) folded in morsel order —
  // deterministic at any thread count, including float cases.
  //
  // The float64 fast paths hoist the validity pointer and read values
  // through a raw pointer instead of the per-row GetDouble switch, giving
  // the compiler straight-line gather loops it can vectorize.
  const double* f64 =
      col != nullptr && col->dtype() == DType::kFloat64
          ? col->float64_data().data()
          : nullptr;
  const uint8_t* valid =
      col != nullptr && col->has_validity() ? col->validity().data() : nullptr;
  const int64_t* gid = gids.data();
  const int64_t exact_grain = ExactAggGrain(n, G);
  const auto never_nan = [](int64_t) { return false; };
  switch (func) {
    case AggFunc::kSize: {
      std::vector<int64_t> out = ParallelReduce(
          0, n, exact_grain, std::vector<int64_t>(G, 0),
          [&](int64_t lo, int64_t hi) {
            std::vector<int64_t> p(G, 0);
            for (int64_t i = lo; i < hi; ++i) p[gids[i]]++;
            return p;
          },
          AddVec<int64_t>);
      return Column::Int64(std::move(out));
    }
    case AggFunc::kCount: {
      if (col == nullptr) return Status::Invalid("count needs a column");
      std::vector<int64_t> out = ParallelReduce(
          0, n, exact_grain, std::vector<int64_t>(G, 0),
          [&](int64_t lo, int64_t hi) {
            std::vector<int64_t> p(G, 0);
            for (int64_t i = lo; i < hi; ++i) {
              if (col->IsValid(i)) p[gids[i]]++;
            }
            return p;
          },
          AddVec<int64_t>);
      return Column::Int64(std::move(out));
    }
    case AggFunc::kSum: {
      if (col == nullptr) return Status::Invalid("sum needs a column");
      if (!IsNumeric(col->dtype()) && col->dtype() != DType::kBool) {
        return Status::TypeError("sum on non-numeric column");
      }
      if (col->dtype() == DType::kInt64) {
        const int64_t* data = col->int64_data().data();
        std::vector<int64_t> out = ParallelReduce(
            0, n, exact_grain, std::vector<int64_t>(G, 0),
            [&](int64_t lo, int64_t hi) {
              std::vector<int64_t> p(G, 0);
              if (valid == nullptr) {
                for (int64_t i = lo; i < hi; ++i) p[gid[i]] += data[i];
              } else {
                for (int64_t i = lo; i < hi; ++i) {
                  if (valid[i]) p[gid[i]] += data[i];
                }
              }
              return p;
            },
            AddVec<int64_t>);
        return Column::Int64(std::move(out));
      }
      std::vector<double> out = ParallelReduce(
          0, n, AggGrain(n), std::vector<double>(G, 0.0),
          [&](int64_t lo, int64_t hi) {
            std::vector<double> p(G, 0.0);
            if (f64 != nullptr && valid == nullptr) {
              for (int64_t i = lo; i < hi; ++i) p[gid[i]] += f64[i];
            } else if (f64 != nullptr) {
              for (int64_t i = lo; i < hi; ++i) {
                if (valid[i]) p[gid[i]] += f64[i];
              }
            } else {
              for (int64_t i = lo; i < hi; ++i) {
                if (col->IsValid(i)) p[gid[i]] += col->GetDouble(i);
              }
            }
            return p;
          },
          AddVec<double>);
      return Column::Float64(std::move(out));
    }
    case AggFunc::kSumSq: {
      if (col == nullptr || !IsNumeric(col->dtype())) {
        return Status::TypeError("sumsq needs a numeric column");
      }
      std::vector<double> out = ParallelReduce(
          0, n, AggGrain(n), std::vector<double>(G, 0.0),
          [&](int64_t lo, int64_t hi) {
            std::vector<double> p(G, 0.0);
            if (f64 != nullptr && valid == nullptr) {
              for (int64_t i = lo; i < hi; ++i) {
                p[gid[i]] += f64[i] * f64[i];
              }
            } else {
              for (int64_t i = lo; i < hi; ++i) {
                if (col->IsValid(i)) {
                  const double v = col->GetDouble(i);
                  p[gid[i]] += v * v;
                }
              }
            }
            return p;
          },
          AddVec<double>);
      return Column::Float64(std::move(out));
    }
    case AggFunc::kMean: {
      if (col == nullptr || (!IsNumeric(col->dtype()) &&
                             col->dtype() != DType::kBool)) {
        return Status::TypeError("mean needs a numeric column");
      }
      using MeanPartial = std::pair<std::vector<double>, std::vector<int64_t>>;
      auto [sum, cnt] = ParallelReduce(
          0, n, AggGrain(n),
          MeanPartial{std::vector<double>(G, 0.0), std::vector<int64_t>(G, 0)},
          [&](int64_t lo, int64_t hi) {
            MeanPartial p{std::vector<double>(G, 0.0),
                          std::vector<int64_t>(G, 0)};
            if (f64 != nullptr && valid == nullptr) {
              for (int64_t i = lo; i < hi; ++i) {
                p.first[gid[i]] += f64[i];
                p.second[gid[i]]++;
              }
            } else {
              for (int64_t i = lo; i < hi; ++i) {
                if (col->IsValid(i)) {
                  p.first[gid[i]] += col->GetDouble(i);
                  p.second[gid[i]]++;
                }
              }
            }
            return p;
          },
          [](MeanPartial a, MeanPartial b) {
            a.first = AddVec(std::move(a.first), std::move(b.first));
            a.second = AddVec(std::move(a.second), std::move(b.second));
            return a;
          });
      std::vector<double> out(G, 0.0);
      std::vector<uint8_t> validity(G, 1);
      for (int64_t g = 0; g < G; ++g) {
        if (cnt[g] == 0) {
          validity[g] = 0;
        } else {
          out[g] = sum[g] / cnt[g];
        }
      }
      return Column::Float64(std::move(out), std::move(validity));
    }
    case AggFunc::kVar:
    case AggFunc::kStd: {
      if (col == nullptr || !IsNumeric(col->dtype())) {
        return Status::TypeError("var/std needs a numeric column");
      }
      struct Moments {
        std::vector<double> sum, sumsq;
        std::vector<int64_t> cnt;
      };
      Moments mo = ParallelReduce(
          0, n, AggGrain(n),
          Moments{std::vector<double>(G, 0.0), std::vector<double>(G, 0.0),
                  std::vector<int64_t>(G, 0)},
          [&](int64_t lo, int64_t hi) {
            Moments p{std::vector<double>(G, 0.0),
                      std::vector<double>(G, 0.0),
                      std::vector<int64_t>(G, 0)};
            if (f64 != nullptr && valid == nullptr) {
              for (int64_t i = lo; i < hi; ++i) {
                const double v = f64[i];
                p.sum[gid[i]] += v;
                p.sumsq[gid[i]] += v * v;
                p.cnt[gid[i]]++;
              }
            } else {
              for (int64_t i = lo; i < hi; ++i) {
                if (col->IsValid(i)) {
                  const double v = col->GetDouble(i);
                  p.sum[gid[i]] += v;
                  p.sumsq[gid[i]] += v * v;
                  p.cnt[gid[i]]++;
                }
              }
            }
            return p;
          },
          [](Moments a, Moments b) {
            a.sum = AddVec(std::move(a.sum), std::move(b.sum));
            a.sumsq = AddVec(std::move(a.sumsq), std::move(b.sumsq));
            a.cnt = AddVec(std::move(a.cnt), std::move(b.cnt));
            return a;
          });
      const std::vector<double>&sum = mo.sum, &sumsq = mo.sumsq;
      const std::vector<int64_t>& cnt = mo.cnt;
      std::vector<double> out(G, 0.0);
      std::vector<uint8_t> validity(G, 1);
      for (int64_t g = 0; g < G; ++g) {
        if (cnt[g] < 2) {
          validity[g] = 0;
        } else {
          double var = (sumsq[g] - sum[g] * sum[g] / cnt[g]) / (cnt[g] - 1);
          if (var < 0) var = 0;  // numeric noise
          out[g] = func == AggFunc::kStd ? std::sqrt(var) : var;
        }
      }
      return Column::Float64(std::move(out), std::move(validity));
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (col == nullptr) return Status::Invalid("agg needs a column");
      // Typed columns compare through raw pointers; int64 compares exactly
      // (a Scalar goes through double, where values beyond 2^53 tie).
      const bool is_min = func == AggFunc::kMin;
      if (f64 != nullptr) {
        return TakePicks(
            *col, PickExtremeRows<true>(
                      valid, gid, n, G, exact_grain,
                      [f64, is_min](int64_t a, int64_t b) {
                        return is_min ? f64[a] < f64[b] : f64[b] < f64[a];
                      },
                      [f64](int64_t i) { return std::isnan(f64[i]); }));
      }
      if (col->dtype() == DType::kInt64) {
        const int64_t* i64 = col->int64_data().data();
        return TakePicks(
            *col, PickExtremeRows<false>(
                      valid, gid, n, G, exact_grain,
                      [i64, is_min](int64_t a, int64_t b) {
                        return is_min ? i64[a] < i64[b] : i64[b] < i64[a];
                      },
                      never_nan));
      }
      // Strings and bools compare as Scalars; both orders are total.
      return TakePicks(
          *col, PickExtremeRows<false>(
                    valid, gid, n, G, exact_grain,
                    [col, is_min](int64_t a, int64_t b) {
                      const Scalar sa = col->GetScalar(a);
                      const Scalar sb = col->GetScalar(b);
                      return is_min ? sa < sb : sb < sa;
                    },
                    never_nan));
    }
    case AggFunc::kFirst:
    case AggFunc::kLast: {
      if (col == nullptr) return Status::Invalid("agg needs a column");
      const bool is_last = func == AggFunc::kLast;
      return TakePicks(*col, PickExtremeRows<false>(
                                 valid, gid, n, G, exact_grain,
                                 [is_last](int64_t, int64_t) { return is_last; },
                                 never_nan));
    }
    case AggFunc::kProd: {
      if (col == nullptr || (!IsNumeric(col->dtype()) &&
                             col->dtype() != DType::kBool)) {
        return Status::TypeError("prod needs a numeric column");
      }
      std::vector<double> out = ParallelReduce(
          0, n, AggGrain(n), std::vector<double>(G, 1.0),
          [&](int64_t lo, int64_t hi) {
            std::vector<double> p(G, 1.0);
            for (int64_t i = lo; i < hi; ++i) {
              if (col->IsValid(i)) p[gids[i]] *= col->GetDouble(i);
            }
            return p;
          },
          [](std::vector<double> a, std::vector<double> b) {
            for (size_t g = 0; g < a.size(); ++g) a[g] *= b[g];
            return a;
          });
      return Column::Float64(std::move(out));
    }
    case AggFunc::kAny:
    case AggFunc::kAll: {
      if (col == nullptr) return Status::Invalid("any/all needs a column");
      const bool is_any = func == AggFunc::kAny;
      std::vector<uint8_t> out = ParallelReduce(
          0, n, exact_grain, std::vector<uint8_t>(G, is_any ? 0 : 1),
          [&](int64_t lo, int64_t hi) {
            std::vector<uint8_t> p(G, is_any ? 0 : 1);
            for (int64_t i = lo; i < hi; ++i) {
              if (!col->IsValid(i)) continue;
              const bool truthy = col->dtype() == DType::kString
                                      ? !col->string_at(i).empty()
                                      : col->GetDouble(i) != 0.0;
              if (is_any && truthy) p[gids[i]] = 1;
              if (!is_any && !truthy) p[gids[i]] = 0;
            }
            return p;
          },
          [&](std::vector<uint8_t> a, std::vector<uint8_t> b) {
            for (int64_t g = 0; g < G; ++g) {
              a[g] = is_any ? (a[g] | b[g]) : (a[g] & b[g]);
            }
            return a;
          });
      return Column::Bool(std::move(out));
    }
    case AggFunc::kMedian: {
      if (col == nullptr || !IsNumeric(col->dtype())) {
        return Status::TypeError("median needs a numeric column");
      }
      std::vector<std::vector<double>> vals(G);
      for (int64_t i = 0; i < n; ++i) {
        if (col->IsValid(i)) vals[gids[i]].push_back(col->GetDouble(i));
      }
      std::vector<double> out(G, 0.0);
      std::vector<uint8_t> validity(G, 1);
      for (int64_t g = 0; g < G; ++g) {
        auto& v = vals[g];
        if (v.empty()) {
          validity[g] = 0;
          continue;
        }
        std::sort(v.begin(), v.end());
        const size_t mid = v.size() / 2;
        out[g] = v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
      }
      return Column::Float64(std::move(out), std::move(validity));
    }
    case AggFunc::kNunique: {
      if (col == nullptr) return Status::Invalid("nunique needs a column");
      // Index the (group, value) pairs; each pair whose value is not null
      // is one distinct value of its group.
      const Column group = Column::Int64(gids);
      std::vector<int64_t> pair_ids, pair_rows;
      BuildGroups({&group, col}, &pair_ids, &pair_rows);
      std::vector<int64_t> out(G, 0);
      for (const int64_t row : pair_rows) {
        if (col->IsValid(row)) out[gid[row]]++;
      }
      return Column::Int64(std::move(out));
    }
  }
  return Status::Invalid("unreachable agg func");
}

}  // namespace

Result<DataFrame> GroupByAgg(const DataFrame& df,
                             const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& specs,
                             bool sort_keys) {
  if (keys.empty()) return Status::Invalid("GroupByAgg: empty key list");
  std::vector<const Column*> key_cols;
  for (const auto& k : keys) {
    XORBITS_ASSIGN_OR_RETURN(const Column* c, df.GetColumn(k));
    key_cols.push_back(c);
  }
  std::vector<int64_t> gids, first_row;
  const int64_t G = BuildGroups(key_cols, &gids, &first_row);

  // Group ordering: sorted by key tuple (pandas default) or first-seen.
  std::vector<int64_t> order(G);
  std::iota(order.begin(), order.end(), 0);
  if (sort_keys) {
    // Typed per-column compare: nulls first, int64 exactly (not through
    // double), NaN unordered against everything (ties keep first-seen
    // order), strings byte-wise.
    const auto cmp = [](const Column& c, int64_t a, int64_t b) -> int {
      const bool na = c.IsNull(a), nb = c.IsNull(b);
      if (na || nb) return na == nb ? 0 : (na ? -1 : 1);
      switch (c.dtype()) {
        case DType::kInt64: {
          const int64_t x = c.int64_data()[a], y = c.int64_data()[b];
          return x < y ? -1 : (y < x ? 1 : 0);
        }
        case DType::kFloat64: {
          const double x = c.float64_data()[a], y = c.float64_data()[b];
          return x < y ? -1 : (y < x ? 1 : 0);
        }
        case DType::kBool:
          return static_cast<int>(c.bool_data()[a] != 0) -
                 static_cast<int>(c.bool_data()[b] != 0);
        case DType::kString:
          return c.string_at(a).compare(c.string_at(b));
      }
      return 0;
    };
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      for (const Column* c : key_cols) {
        const int r = cmp(*c, first_row[a], first_row[b]);
        if (r != 0) return r < 0;
      }
      return false;
    });
  }

  DataFrame out;
  // Key columns first.
  {
    std::vector<int64_t> rep(G);
    for (int64_t g = 0; g < G; ++g) rep[g] = first_row[order[g]];
    for (size_t k = 0; k < keys.size(); ++k) {
      XORBITS_RETURN_NOT_OK(out.SetColumn(keys[k], key_cols[k]->Take(rep)));
    }
  }
  // Aggregated columns, reordered to group order.
  std::vector<int64_t> perm(G);
  for (int64_t g = 0; g < G; ++g) perm[g] = order[g];
  for (const auto& spec : specs) {
    const Column* col = nullptr;
    if (!spec.input.empty()) {
      XORBITS_ASSIGN_OR_RETURN(col, df.GetColumn(spec.input));
    } else if (spec.func != AggFunc::kSize) {
      return Status::Invalid("agg '" + std::string(AggFuncName(spec.func)) +
                             "' requires an input column");
    }
    XORBITS_ASSIGN_OR_RETURN(Column agg,
                             AggregateColumn(col, spec.func, gids, G));
    XORBITS_RETURN_NOT_OK(out.SetColumn(spec.output, agg.Take(perm)));
  }
  if (out.num_columns() == 0) {
    return Status::Invalid("GroupByAgg produced no columns");
  }
  return out;
}

bool IsDecomposable(const std::vector<AggSpec>& specs) {
  for (const auto& s : specs) {
    if (s.func == AggFunc::kNunique || s.func == AggFunc::kMedian) {
      return false;
    }
  }
  return true;
}

namespace {
std::string PartialName(const AggSpec& spec, const char* part) {
  return "__p_" + std::string(part) + "_" + spec.output;
}
}  // namespace

Result<DecomposedAgg> DecomposeAggs(const std::vector<AggSpec>& specs) {
  if (!IsDecomposable(specs)) {
    return Status::NotImplemented("aggregation is not decomposable");
  }
  DecomposedAgg out;
  for (const auto& s : specs) {
    switch (s.func) {
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
      case AggFunc::kFirst:
      case AggFunc::kLast:
      case AggFunc::kProd:
      case AggFunc::kAny:
      case AggFunc::kAll: {
        std::string p = PartialName(s, "v");
        out.map_specs.push_back({s.input, s.func, p});
        out.combine_specs.push_back({p, s.func, p});
        break;
      }
      case AggFunc::kCount:
      case AggFunc::kSize: {
        std::string p = PartialName(s, "n");
        out.map_specs.push_back({s.input, s.func, p});
        out.combine_specs.push_back({p, AggFunc::kSum, p});
        break;
      }
      case AggFunc::kMean: {
        std::string ps = PartialName(s, "sum");
        std::string pc = PartialName(s, "cnt");
        out.map_specs.push_back({s.input, AggFunc::kSum, ps});
        out.map_specs.push_back({s.input, AggFunc::kCount, pc});
        out.combine_specs.push_back({ps, AggFunc::kSum, ps});
        out.combine_specs.push_back({pc, AggFunc::kSum, pc});
        break;
      }
      case AggFunc::kVar:
      case AggFunc::kStd: {
        std::string ps = PartialName(s, "sum");
        std::string pq = PartialName(s, "sumsq");
        std::string pc = PartialName(s, "cnt");
        out.map_specs.push_back({s.input, AggFunc::kSum, ps});
        out.map_specs.push_back({s.input, AggFunc::kSumSq, pq});
        out.map_specs.push_back({s.input, AggFunc::kCount, pc});
        out.combine_specs.push_back({ps, AggFunc::kSum, ps});
        out.combine_specs.push_back({pq, AggFunc::kSum, pq});
        out.combine_specs.push_back({pc, AggFunc::kSum, pc});
        break;
      }
      case AggFunc::kSumSq: {
        std::string p = PartialName(s, "sq");
        out.map_specs.push_back({s.input, AggFunc::kSumSq, p});
        out.combine_specs.push_back({p, AggFunc::kSum, p});
        break;
      }
      case AggFunc::kNunique:
      case AggFunc::kMedian:
        return Status::NotImplemented(std::string(AggFuncName(s.func)) +
                                      " is not decomposable");
    }
  }
  return out;
}

Result<DataFrame> FinalizeAgg(const DataFrame& combined,
                              const std::vector<std::string>& keys,
                              const std::vector<AggSpec>& specs) {
  DataFrame out;
  for (const auto& k : keys) {
    XORBITS_ASSIGN_OR_RETURN(const Column* c, combined.GetColumn(k));
    XORBITS_RETURN_NOT_OK(out.SetColumn(k, *c));
  }
  for (const auto& s : specs) {
    switch (s.func) {
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
      case AggFunc::kFirst:
      case AggFunc::kLast:
      case AggFunc::kProd:
      case AggFunc::kAny:
      case AggFunc::kAll: {
        XORBITS_ASSIGN_OR_RETURN(const Column* c,
                                 combined.GetColumn(PartialName(s, "v")));
        XORBITS_RETURN_NOT_OK(out.SetColumn(s.output, *c));
        break;
      }
      case AggFunc::kCount:
      case AggFunc::kSize: {
        XORBITS_ASSIGN_OR_RETURN(const Column* c,
                                 combined.GetColumn(PartialName(s, "n")));
        XORBITS_RETURN_NOT_OK(out.SetColumn(s.output, *c));
        break;
      }
      case AggFunc::kMean: {
        XORBITS_ASSIGN_OR_RETURN(const Column* sum,
                                 combined.GetColumn(PartialName(s, "sum")));
        XORBITS_ASSIGN_OR_RETURN(const Column* cnt,
                                 combined.GetColumn(PartialName(s, "cnt")));
        XORBITS_ASSIGN_OR_RETURN(Column mean,
                                 BinaryOp(*sum, *cnt, BinOp::kDiv));
        XORBITS_RETURN_NOT_OK(out.SetColumn(s.output, std::move(mean)));
        break;
      }
      case AggFunc::kVar:
      case AggFunc::kStd: {
        XORBITS_ASSIGN_OR_RETURN(const Column* sum,
                                 combined.GetColumn(PartialName(s, "sum")));
        XORBITS_ASSIGN_OR_RETURN(const Column* sumsq,
                                 combined.GetColumn(PartialName(s, "sumsq")));
        XORBITS_ASSIGN_OR_RETURN(const Column* cnt,
                                 combined.GetColumn(PartialName(s, "cnt")));
        const int64_t g = sum->length();
        std::vector<double> out_v(g, 0.0);
        std::vector<uint8_t> validity(g, 1);
        for (int64_t i = 0; i < g; ++i) {
          const double n = cnt->GetDouble(i);
          if (n < 2) {
            validity[i] = 0;
            continue;
          }
          const double sv = sum->GetDouble(i);
          double var = (sumsq->GetDouble(i) - sv * sv / n) / (n - 1);
          if (var < 0) var = 0;
          out_v[i] = s.func == AggFunc::kStd ? std::sqrt(var) : var;
        }
        XORBITS_RETURN_NOT_OK(out.SetColumn(
            s.output, Column::Float64(std::move(out_v), std::move(validity))));
        break;
      }
      case AggFunc::kSumSq: {
        XORBITS_ASSIGN_OR_RETURN(const Column* c,
                                 combined.GetColumn(PartialName(s, "sq")));
        XORBITS_RETURN_NOT_OK(out.SetColumn(s.output, *c));
        break;
      }
      case AggFunc::kNunique:
      case AggFunc::kMedian:
        return Status::NotImplemented(std::string(AggFuncName(s.func)) +
                                      " is not decomposable");
    }
  }
  return out;
}

}  // namespace xorbits::dataframe
