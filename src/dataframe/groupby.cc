#include "dataframe/groupby.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <type_traits>

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

/// Morsel grain of the float folds. A float sum, sum of squares or product
/// is the in-order fold of per-morsel partials cut at these boundaries;
/// the grain depends on n alone, so the bits never depend on the thread
/// count.
inline int64_t AggGrain(int64_t n) { return GrainForMorsels(n, 4096, 16); }

/// Rows per step of the pass: a step's group ids and records stay in L1.
constexpr int64_t kBlockRows = 256;

/// The rows [lo, hi) of one pass step.
struct RowSpan {
  int64_t lo = 0;
  int64_t hi = 0;
};

template <typename F>
inline void ForEachRow(const RowSpan& s, const F& f) {
  // Copies, so stores into the records cannot force a reload per row.
  const int64_t lo = s.lo, hi = s.hi;
  for (int64_t i = lo; i < hi; ++i) f(i);
}

/// ForEachRow over the rows whose validity byte is set; every row when the
/// column has no validity.
template <typename F>
inline void ForEachValid(const RowSpan& s, const uint8_t* valid, const F& f) {
  if (valid == nullptr) {
    ForEachRow(s, f);
  } else {
    ForEachRow(s, [&](int64_t i) {
      if (valid[i] != 0) f(i);
    });
  }
}

/// Reads a plain or dictionary string column by row.
struct StringValues {
  const Column* col;
  const std::string* operator[](int64_t i) const { return &col->string_at(i); }
};

inline double ToDouble(int64_t v) { return static_cast<double>(v); }
inline double ToDouble(double v) { return v; }
inline double ToDouble(uint8_t v) { return v != 0 ? 1.0 : 0.0; }

// The value orders of min/max: int64 exactly, doubles by IEEE `<`, bools
// false < true, strings byte-wise.
inline bool Less(int64_t a, int64_t b) { return a < b; }
inline bool Less(double a, double b) { return a < b; }
inline bool Less(uint8_t a, uint8_t b) { return a == 0 && b != 0; }
inline bool Less(const std::string* a, const std::string* b) { return *a < *b; }

// Truthiness of any/all: nonzero numbers (NaN included), non-empty strings.
inline bool Truthy(int64_t v) { return v != 0; }
inline bool Truthy(double v) { return v != 0.0; }
inline bool Truthy(uint8_t v) { return v != 0; }
inline bool Truthy(const std::string* v) { return !v->empty(); }

const uint8_t* ValidityOf(const Column& col) {
  return col.has_validity() ? col.validity().data() : nullptr;
}

/// Calls `make(values)` with the column's typed reader: its raw int64,
/// float64 or bool array, or StringValues.
template <typename Make>
auto WithValues(const Column& col, const Make& make) {
  switch (col.dtype()) {
    case DType::kInt64: return make(col.int64_data().data());
    case DType::kFloat64: return make(col.float64_data().data());
    case DType::kBool: return make(col.bool_data().data());
    case DType::kString: break;
  }
  return make(StringValues{&col});
}

template <typename V>
inline constexpr bool kIsString = std::is_same_v<V, StringValues>;

/// A group's record: the states of all its aggregates side by side, each a
/// few 8-byte words at its own offset. A row then touches one or two cache
/// lines, however many aggregates it feeds.
struct Records {
  uint64_t* base = nullptr;
  int64_t stride = 0;  // words per record
  uint64_t* operator()(int64_t g) const { return base + g * stride; }
};

template <typename T>
inline T Load(const uint64_t* w) {
  T v;
  std::memcpy(&v, w, sizeof(T));
  return v;
}

template <typename T>
inline void Store(uint64_t* w, T v) {
  std::memcpy(w, &v, sizeof(T));
}

class FloatFold;

/// One aggregate of the fused pass: `words()` words at `offset` of every
/// group's record.
class Accumulator {
 public:
  explicit Accumulator(int64_t words) : words_(words) {}
  virtual ~Accumulator() = default;
  /// Writes the initial state at `state`.
  virtual void Init(uint64_t* state) const = 0;
  /// Folds the rows of `rows` (gid[i] is row i's group) into the records.
  virtual void Update(const int64_t* gid, const RowSpan& rows,
                      const Records& rec) const = 0;
  virtual const FloatFold* AsFold() const { return nullptr; }
  int64_t words() const { return words_; }

  int64_t offset = 0;

 private:
  const int64_t words_;
};

/// A count or an exact int64 sum: one word, summed.
class WordSum : public Accumulator {
 public:
  WordSum() : Accumulator(1) {}
  void Init(uint64_t* state) const override { state[0] = 0; }
};

/// Rows per group, or valid rows per group when `valid` is set.
class Count final : public WordSum {
 public:
  explicit Count(const uint8_t* valid) : valid_(valid) {}
  void Update(const int64_t* gid, const RowSpan& rows,
              const Records& rec) const override {
    uint64_t* w = rec.base + offset;
    const int64_t stride = rec.stride;
    if (valid_ == nullptr) {
      ForEachRow(rows, [&](int64_t i) { w[gid[i] * stride]++; });
    } else {
      ForEachRow(rows,
                 [&](int64_t i) { w[gid[i] * stride] += valid_[i] != 0; });
    }
  }

 private:
  const uint8_t* valid_;
};

/// Exact int64 sum; it wraps like two's complement.
class IntSum final : public WordSum {
 public:
  IntSum(const int64_t* v, const uint8_t* valid) : v_(v), valid_(valid) {}
  void Update(const int64_t* gid, const RowSpan& rows,
              const Records& rec) const override {
    uint64_t* w = rec.base + offset;
    const int64_t stride = rec.stride;
    const auto v = v_;
    ForEachValid(rows, valid_, [&](int64_t i) {
      w[gid[i] * stride] += static_cast<uint64_t>(v[i]);
    });
  }

 private:
  const int64_t* v_;
  const uint8_t* valid_;
};

/// `acc + x` (or `acc * x`), except that a NaN `acc` stays as it is. Where
/// both are NaN, x86 returns whichever operand the compiler happened to put
/// first, so without the guard the payload of a sum over two NaNs would
/// depend on code generation; with it, an accumulator keeps the first NaN
/// it meets.
template <bool kProduct>
inline void Accumulate(double& acc, double x) {
  if (std::isnan(acc)) return;
  if constexpr (kProduct) {
    acc *= x;
  } else {
    acc += x;
  }
}

/// A float sum, sum of squares or product: its bits depend on how it is
/// associated, and it is the in-order fold of per-morsel partials
/// (AggGrain). Word 0 is a group's partial of the current morsel and word
/// 1 the fold of its earlier ones; the pass flushes word 0 into word 1 at
/// the end of each morsel that touched the group. A morsel the group skips
/// would add +0.0 (or multiply by 1.0), which changes no bits, since the
/// sums start at +0.0 and never become -0.0. So skipping it is exact.
class FloatFold : public Accumulator {
 public:
  explicit FloatFold(bool product)
      : Accumulator(2), identity_(product ? 1.0 : 0.0), product_(product) {}
  void Init(uint64_t* state) const override {
    Store(state, identity_);
    Store(state + 1, identity_);
  }
  const FloatFold* AsFold() const override { return this; }

  void Flush(uint64_t* record) const {
    uint64_t* s = record + offset;
    AddInto(s + 1, Load<double>(s));
    Store(s, identity_);
  }

 private:
  void AddInto(uint64_t* total, double x) const {
    double t = Load<double>(total);
    if (product_) {
      Accumulate<true>(t, x);
    } else {
      Accumulate<false>(t, x);
    }
    Store(total, t);
  }

  const double identity_;
  const bool product_;
};

enum class FoldOp { kSum, kSumSq, kProd };

template <typename V, FoldOp kOp>
class Fold final : public FloatFold {
 public:
  Fold(V v, const uint8_t* valid)
      : FloatFold(kOp == FoldOp::kProd), v_(v), valid_(valid) {}
  void Update(const int64_t* gid, const RowSpan& rows,
              const Records& rec) const override {
    uint64_t* w = rec.base + offset;
    const int64_t stride = rec.stride;
    const auto v = v_;
    ForEachValid(rows, valid_, [&](int64_t i) {
      uint64_t* cur = w + gid[i] * stride;
      double c = Load<double>(cur);
      const double x = ToDouble(v[i]);
      if constexpr (kOp == FoldOp::kSum) {
        Accumulate<false>(c, x);
      } else if constexpr (kOp == FoldOp::kSumSq) {
        Accumulate<false>(c, x * x);
      } else {
        Accumulate<true>(c, x);
      }
      Store(cur, c);
    });
  }

 private:
  V v_;
  const uint8_t* valid_;
};

/// A picked row per group (word 0, -1 while there is none).
class Pick : public Accumulator {
 public:
  using Accumulator::Accumulator;
  void Init(uint64_t* state) const override {
    Store<int64_t>(state, -1);
    for (int64_t k = 1; k < words(); ++k) state[k] = 0;
  }
};

/// The first or the last valid row.
template <bool kLast>
class EdgePick final : public Pick {
 public:
  explicit EdgePick(const uint8_t* valid) : Pick(1), valid_(valid) {}
  void Update(const int64_t* gid, const RowSpan& rows,
              const Records& rec) const override {
    uint64_t* w = rec.base + offset;
    const int64_t stride = rec.stride;
    ForEachValid(rows, valid_, [&](int64_t i) {
      uint64_t* s = w + gid[i] * stride;
      const int64_t r = Load<int64_t>(s);
      Store<int64_t>(s, kLast || r < 0 ? i : r);
    });
  }

 private:
  const uint8_t* valid_;
};

/// The earliest valid row holding the min (kMin) or max: a row replaces
/// the pick only when strictly better, so a float group whose first valid
/// value is NaN keeps that NaN, and a later NaN never wins. Word 0 is the
/// row and word 1 its value. Numbers replace by select, not branch:
/// whether a row wins is a coin toss the branch predictor loses.
template <typename V, bool kMin>
class ExtremePick final : public Pick {
  using T = std::remove_cv_t<std::remove_reference_t<decltype(V()[0])>>;

 public:
  ExtremePick(V v, const uint8_t* valid) : Pick(2), v_(v), valid_(valid) {}
  void Update(const int64_t* gid, const RowSpan& rows,
              const Records& rec) const override {
    uint64_t* w = rec.base + offset;
    const int64_t stride = rec.stride;
    const auto v = v_;
    ForEachValid(rows, valid_, [&](int64_t i) {
      uint64_t* s = w + gid[i] * stride;
      const T x = v[i];
      const int64_t r = Load<int64_t>(s);
      if constexpr (kIsString<V>) {  // an empty pick has no string to read
        if (r < 0 || Better(x, Load<T>(s + 1))) {
          Store<int64_t>(s, i);
          Store<T>(s + 1, x);
        }
      } else {
        const bool take = (r < 0) | Better(x, Load<T>(s + 1));
        const uint64_t mask = 0 - static_cast<uint64_t>(take);
        uint64_t bits = 0;
        Store<T>(&bits, x);
        s[0] = (static_cast<uint64_t>(i) & mask) | (s[0] & ~mask);
        s[1] = (bits & mask) | (s[1] & ~mask);
      }
    });
  }

 private:
  static bool Better(const T& x, const T& y) {
    return kMin ? Less(x, y) : Less(y, x);
  }

  V v_;
  const uint8_t* valid_;
};

/// Each group's any (all) flag.
template <typename V, bool kAny>
class AnyAll final : public Accumulator {
 public:
  AnyAll(V v, const uint8_t* valid) : Accumulator(1), v_(v), valid_(valid) {}
  void Init(uint64_t* state) const override { state[0] = kAny ? 0 : 1; }
  void Update(const int64_t* gid, const RowSpan& rows,
              const Records& rec) const override {
    uint64_t* w = rec.base + offset;
    const int64_t stride = rec.stride;
    const auto v = v_;
    ForEachValid(rows, valid_, [&](int64_t i) {
      if constexpr (kAny) {
        w[gid[i] * stride] |= Truthy(v[i]);
      } else {
        w[gid[i] * stride] &= Truthy(v[i]);
      }
    });
  }

 private:
  V v_;
  const uint8_t* valid_;
};

enum class AccKind {
  kCount, kIntSum, kSum, kSumSq, kProd, kMin, kMax, kFirst, kLast, kAny,
  kAll,
};

/// The fused aggregation pass: every distinct (state, input) once, all of
/// them updated in one walk over the rows. The walk goes morsel by morsel
/// (AggGrain) in blocks of kBlockRows, and runs each state's typed loop
/// over a block, whose records stay in L1 between the loops. With float
/// folds, it also lists the groups each morsel touches, and flushes their
/// folds when the morsel ends. The pass runs on the calling thread.
class AggPass {
 public:
  AggPass(const std::vector<int64_t>& gids, int64_t G) : gids_(gids), G_(G) {}

  /// The state of `kind` over `col` (null for row counts), made by
  /// `make()` on first request.
  template <typename A, typename Make>
  const A* Get(AccKind kind, const Column* col, const Make& make) {
    auto [it, added] = index_.try_emplace({kind, col}, nullptr);
    if (added) {
      std::unique_ptr<Accumulator> acc = make();
      acc->offset = stride_;
      stride_ += acc->words();
      if (const FloatFold* f = acc->AsFold()) folds_.push_back(f);
      it->second = acc.get();
      accs_.push_back(std::move(acc));
    }
    return static_cast<const A*>(it->second);
  }

  void Run() {
    if (accs_.empty()) return;  // nunique and median read the rows directly
    records_.reset(new uint64_t[G_ * stride_]);
    const Records rec{records_.get(), stride_};
    for (const auto& acc : accs_) {
      for (int64_t g = 0; g < G_; ++g) acc->Init(rec(g) + acc->offset);
    }
    const int64_t n = static_cast<int64_t>(gids_.size());
    const int64_t* gid = gids_.data();
    const int64_t grain = AggGrain(n);
    // Groups touched in the current morsel, appended without a branch, and
    // each group's last morsel.
    std::vector<int64_t> touched(folds_.empty() ? 0 : grain + 1);
    std::vector<uint8_t> morsel_of(folds_.empty() ? 0 : G_, kNoMorsel);
    for (int64_t m = 0; m * grain < n; ++m) {
      const int64_t end = std::min(n, (m + 1) * grain);
      int64_t t = 0;
      for (int64_t lo = m * grain; lo < end; lo += kBlockRows) {
        const RowSpan span{lo, std::min(end, lo + kBlockRows)};
        if (!folds_.empty()) {
          ForEachRow(span, [&](int64_t i) {
            uint8_t& seen = morsel_of[gid[i]];
            touched[t] = gid[i];
            t += seen != m;
            seen = static_cast<uint8_t>(m);
          });
        }
        for (const auto& acc : accs_) acc->Update(gid, span, rec);
      }
      for (int64_t j = 0; j < t; ++j) {
        for (const FloatFold* f : folds_) f->Flush(rec(touched[j]));
      }
    }
  }

  /// Word `k` of `acc`'s state, read as T, for every group.
  template <typename T>
  std::vector<T> Gather(const Accumulator* acc, int64_t k) const {
    std::vector<T> out(G_);
    const uint64_t* w = records_.get() + acc->offset + k;
    for (int64_t g = 0; g < G_; ++g) out[g] = Load<T>(w + g * stride_);
    return out;
  }

 private:
  static constexpr uint8_t kNoMorsel = 0xff;  // AggGrain makes <= 16

  const std::vector<int64_t>& gids_;
  const int64_t G_;
  std::vector<std::unique_ptr<Accumulator>> accs_;
  std::vector<const FloatFold*> folds_;
  std::map<std::pair<AccKind, const Column*>, const Accumulator*> index_;
  int64_t stride_ = 0;
  std::unique_ptr<uint64_t[]> records_;  // G_ records of stride_ words
};

/// Valid rows per group; a column without nulls shares the row counter.
const Count* CountOf(AggPass* pass, const Column* col) {
  const uint8_t* valid = col != nullptr ? ValidityOf(*col) : nullptr;
  return pass->Get<Count>(AccKind::kCount, valid ? col : nullptr,
                          [&] { return std::make_unique<Count>(valid); });
}

template <FoldOp kOp>
const FloatFold* FoldOf(AggPass* pass, const Column& col) {
  constexpr AccKind kind = kOp == FoldOp::kSum     ? AccKind::kSum
                           : kOp == FoldOp::kSumSq ? AccKind::kSumSq
                                                   : AccKind::kProd;
  return pass->Get<FloatFold>(kind, &col, [&] {
    return WithValues(col, [&](auto v) -> std::unique_ptr<Accumulator> {
      if constexpr (kIsString<decltype(v)>) {
        return nullptr;  // the callers reject strings first
      } else {
        return std::make_unique<Fold<decltype(v), kOp>>(v, ValidityOf(col));
      }
    });
  });
}

template <bool kMin>
const Pick* ExtremeOf(AggPass* pass, const Column& col) {
  return pass->Get<Pick>(kMin ? AccKind::kMin : AccKind::kMax, &col, [&] {
    return WithValues(col, [&](auto v) -> std::unique_ptr<Accumulator> {
      return std::make_unique<ExtremePick<decltype(v), kMin>>(
          v, ValidityOf(col));
    });
  });
}

/// Gathers the picked row of every group; groups without one (-1) become
/// null.
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

Column Median(const Column& col, const std::vector<int64_t>& gids,
              int64_t G) {
  std::vector<std::vector<double>> vals(G);
  for (size_t i = 0; i < gids.size(); ++i) {
    if (col.IsValid(i)) vals[gids[i]].push_back(col.GetDouble(i));
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

/// Index the (group, value) pairs; each pair whose value is not null is one
/// distinct value of its group.
Column Nunique(const Column& col, const std::vector<int64_t>& gids,
               int64_t G) {
  const Column group = Column::Int64(gids);
  std::vector<int64_t> pair_ids, pair_rows;
  BuildGroups({&group, &col}, &pair_ids, &pair_rows);
  std::vector<int64_t> out(G, 0);
  for (const int64_t row : pair_rows) {
    if (col.IsValid(row)) out[gids[row]]++;
  }
  return Column::Int64(std::move(out));
}

/// Sample variance (or its root, `std`) of `n` >= 2 values from their sum
/// and sum of squares. A NaN input is passed through as it is, the sum of
/// squares' first, so the payload does not depend on operand order.
double Variance(double sum, double sumsq, double n, bool std) {
  if (std::isnan(sumsq)) return sumsq;
  if (std::isnan(sum)) return sum;
  double var = (sumsq - sum * sum / n) / (n - 1);
  if (var < 0) var = 0;  // numeric noise
  return std ? std::sqrt(var) : var;
}

/// Mean, or var/std, from a group's float sum, sum of squares and valid
/// count; groups without enough rows are null.
Column Moments(AggFunc func, const AggPass& pass, const FloatFold* sum,
               const FloatFold* sumsq, const Count* cnt) {
  const std::vector<double> s = pass.Gather<double>(sum, 1);
  const std::vector<double> sq =
      sumsq != nullptr ? pass.Gather<double>(sumsq, 1) : std::vector<double>();
  const std::vector<int64_t> c = pass.Gather<int64_t>(cnt, 0);
  const int64_t G = static_cast<int64_t>(c.size());
  std::vector<double> out(G, 0.0);
  std::vector<uint8_t> validity(G, 1);
  for (int64_t g = 0; g < G; ++g) {
    if (func == AggFunc::kMean) {
      if (c[g] == 0) {
        validity[g] = 0;
      } else {
        out[g] = s[g] / c[g];
      }
    } else if (c[g] < 2) {
      validity[g] = 0;
    } else {
      out[g] = Variance(s[g], sq[g], static_cast<double>(c[g]),
                        func == AggFunc::kStd);
    }
  }
  return Column::Float64(std::move(out), std::move(validity));
}

using Finish = std::function<Column()>;

/// Checks `func` against `col` (null only for kSize), binds it to the
/// states it needs in `pass`, and returns how to build its column once the
/// pass ran.
Result<Finish> BindAgg(AggPass* pass, const Column* col, AggFunc func,
                       const std::vector<int64_t>& gids, int64_t G) {
  const auto numeric = [col] { return IsNumeric(col->dtype()); };
  const auto numeric_or_bool = [col] {
    return IsNumeric(col->dtype()) || col->dtype() == DType::kBool;
  };
  const auto int64s = [pass](const Accumulator* acc) {
    return Finish([pass, acc] {
      return Column::Int64(pass->Gather<int64_t>(acc, 0));
    });
  };
  const auto total = [pass](const FloatFold* fold) {
    return Finish(
        [pass, fold] { return Column::Float64(pass->Gather<double>(fold, 1)); });
  };
  const auto picked = [pass, col](const Pick* pick) {
    return Finish([pass, col, pick] {
      return TakePicks(*col, pass->Gather<int64_t>(pick, 0));
    });
  };
  switch (func) {
    case AggFunc::kSize:
      return int64s(CountOf(pass, nullptr));
    case AggFunc::kCount:
      return int64s(CountOf(pass, col));
    case AggFunc::kSum:
      if (!numeric_or_bool()) {
        return Status::TypeError("sum on non-numeric column");
      }
      if (col->dtype() == DType::kInt64) {
        return int64s(pass->Get<IntSum>(AccKind::kIntSum, col, [&] {
          return std::make_unique<IntSum>(col->int64_data().data(),
                                          ValidityOf(*col));
        }));
      }
      return total(FoldOf<FoldOp::kSum>(pass, *col));
    case AggFunc::kSumSq:
      if (!numeric()) return Status::TypeError("sumsq needs a numeric column");
      return total(FoldOf<FoldOp::kSumSq>(pass, *col));
    case AggFunc::kProd:
      if (!numeric_or_bool()) {
        return Status::TypeError("prod needs a numeric column");
      }
      return total(FoldOf<FoldOp::kProd>(pass, *col));
    case AggFunc::kMean:
    case AggFunc::kVar:
    case AggFunc::kStd: {
      if (func == AggFunc::kMean ? !numeric_or_bool() : !numeric()) {
        return Status::TypeError(func == AggFunc::kMean
                                     ? "mean needs a numeric column"
                                     : "var/std needs a numeric column");
      }
      const FloatFold* sum = FoldOf<FoldOp::kSum>(pass, *col);
      const FloatFold* sq =
          func == AggFunc::kMean ? nullptr : FoldOf<FoldOp::kSumSq>(pass, *col);
      const Count* cnt = CountOf(pass, col);
      return Finish([func, pass, sum, sq, cnt] {
        return Moments(func, *pass, sum, sq, cnt);
      });
    }
    case AggFunc::kMin:
      return picked(ExtremeOf<true>(pass, *col));
    case AggFunc::kMax:
      return picked(ExtremeOf<false>(pass, *col));
    case AggFunc::kFirst:
    case AggFunc::kLast: {
      const bool last = func == AggFunc::kLast;
      return picked(pass->Get<Pick>(
          last ? AccKind::kLast : AccKind::kFirst, col,
          [&]() -> std::unique_ptr<Accumulator> {
            if (last) return std::make_unique<EdgePick<true>>(ValidityOf(*col));
            return std::make_unique<EdgePick<false>>(ValidityOf(*col));
          }));
    }
    case AggFunc::kAny:
    case AggFunc::kAll: {
      const bool any = func == AggFunc::kAny;
      const Accumulator* flags = pass->Get<Accumulator>(
          any ? AccKind::kAny : AccKind::kAll, col, [&] {
            return WithValues(
                *col, [&](auto v) -> std::unique_ptr<Accumulator> {
                  if (any) {
                    return std::make_unique<AnyAll<decltype(v), true>>(
                        v, ValidityOf(*col));
                  }
                  return std::make_unique<AnyAll<decltype(v), false>>(
                      v, ValidityOf(*col));
                });
          });
      return Finish([pass, flags] {
        const std::vector<uint64_t> w = pass->Gather<uint64_t>(flags, 0);
        return Column::Bool(std::vector<uint8_t>(w.begin(), w.end()));
      });
    }
    case AggFunc::kMedian:
      if (!numeric()) return Status::TypeError("median needs a numeric column");
      return Finish([col, &gids, G] { return Median(*col, gids, G); });
    case AggFunc::kNunique:
      return Finish([col, &gids, G] { return Nunique(*col, gids, G); });
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
  // Every spec binds to the states of one pass, which then runs once.
  AggPass pass(gids, G);
  std::vector<Finish> finish;
  for (const auto& spec : specs) {
    const Column* col = nullptr;
    if (!spec.input.empty()) {
      XORBITS_ASSIGN_OR_RETURN(col, df.GetColumn(spec.input));
    } else if (spec.func != AggFunc::kSize) {
      return Status::Invalid("agg '" + std::string(AggFuncName(spec.func)) +
                             "' requires an input column");
    }
    XORBITS_ASSIGN_OR_RETURN(Finish f,
                             BindAgg(&pass, col, spec.func, gids, G));
    finish.push_back(std::move(f));
  }
  pass.Run();
  // Aggregated columns, reordered to group order unless it is first-seen.
  const bool first_seen = std::is_sorted(order.begin(), order.end());
  for (size_t s = 0; s < specs.size(); ++s) {
    Column agg = finish[s]();
    XORBITS_RETURN_NOT_OK(out.SetColumn(
        specs[s].output, first_seen ? std::move(agg) : agg.Take(order)));
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

/// Column of the map-side partial `func(input)`. It is named after its
/// input, not after an output, so outputs that need one partial share it:
/// a mean and a std of one column both read its sum and count.
std::string PartialName(AggFunc func, const std::string& input) {
  return "__p_" + std::string(AggFuncName(func)) + "_" + input;
}

}  // namespace

Result<DecomposedAgg> DecomposeAggs(const std::vector<AggSpec>& specs) {
  if (!IsDecomposable(specs)) {
    return Status::NotImplemented("aggregation is not decomposable");
  }
  DecomposedAgg out;
  std::set<std::string> emitted;
  // Map `func(input)` per chunk once; later stages fold it with `combine`.
  const auto emit = [&](AggFunc func, const std::string& input,
                        AggFunc combine) {
    const std::string p = PartialName(func, input);
    if (!emitted.insert(p).second) return;
    out.map_specs.push_back({input, func, p});
    out.combine_specs.push_back({p, combine, p});
  };
  for (const auto& s : specs) {
    switch (s.func) {
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
      case AggFunc::kFirst:
      case AggFunc::kLast:
      case AggFunc::kProd:
      case AggFunc::kAny:
      case AggFunc::kAll:
        emit(s.func, s.input, s.func);
        break;
      case AggFunc::kCount:
      case AggFunc::kSize:
      case AggFunc::kSumSq:
        emit(s.func, s.input, AggFunc::kSum);
        break;
      case AggFunc::kMean:
        emit(AggFunc::kSum, s.input, AggFunc::kSum);
        emit(AggFunc::kCount, s.input, AggFunc::kSum);
        break;
      case AggFunc::kVar:
      case AggFunc::kStd:
        emit(AggFunc::kSum, s.input, AggFunc::kSum);
        emit(AggFunc::kSumSq, s.input, AggFunc::kSum);
        emit(AggFunc::kCount, s.input, AggFunc::kSum);
        break;
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
  const auto partial = [&](AggFunc func, const std::string& input) {
    return combined.GetColumn(PartialName(func, input));
  };
  for (const auto& s : specs) {
    switch (s.func) {
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
      case AggFunc::kFirst:
      case AggFunc::kLast:
      case AggFunc::kProd:
      case AggFunc::kAny:
      case AggFunc::kAll:
      case AggFunc::kCount:
      case AggFunc::kSize:
      case AggFunc::kSumSq: {
        XORBITS_ASSIGN_OR_RETURN(const Column* c, partial(s.func, s.input));
        XORBITS_RETURN_NOT_OK(out.SetColumn(s.output, *c));
        break;
      }
      case AggFunc::kMean: {
        XORBITS_ASSIGN_OR_RETURN(const Column* sum,
                                 partial(AggFunc::kSum, s.input));
        XORBITS_ASSIGN_OR_RETURN(const Column* cnt,
                                 partial(AggFunc::kCount, s.input));
        XORBITS_ASSIGN_OR_RETURN(Column mean,
                                 BinaryOp(*sum, *cnt, BinOp::kDiv));
        XORBITS_RETURN_NOT_OK(out.SetColumn(s.output, std::move(mean)));
        break;
      }
      case AggFunc::kVar:
      case AggFunc::kStd: {
        XORBITS_ASSIGN_OR_RETURN(const Column* sum,
                                 partial(AggFunc::kSum, s.input));
        XORBITS_ASSIGN_OR_RETURN(const Column* sumsq,
                                 partial(AggFunc::kSumSq, s.input));
        XORBITS_ASSIGN_OR_RETURN(const Column* cnt,
                                 partial(AggFunc::kCount, s.input));
        const int64_t g = sum->length();
        std::vector<double> out_v(g, 0.0);
        std::vector<uint8_t> validity(g, 1);
        for (int64_t i = 0; i < g; ++i) {
          const double n = cnt->GetDouble(i);
          if (n < 2) {
            validity[i] = 0;
            continue;
          }
          out_v[i] = Variance(sum->GetDouble(i), sumsq->GetDouble(i), n,
                              s.func == AggFunc::kStd);
        }
        XORBITS_RETURN_NOT_OK(out.SetColumn(
            s.output, Column::Float64(std::move(out_v), std::move(validity))));
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
