#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dataframe/groupby.h"
#include "dataframe/kernels.h"
#include "test_util.h"

namespace xorbits::dataframe {
namespace {

using test_util::Fingerprint;

DataFrame Sales() {
  return DataFrame::Make(
             {"store", "item", "qty", "price"},
             {Column::String({"a", "b", "a", "b", "a", "c"}),
              Column::String({"x", "x", "y", "y", "x", "z"}),
              Column::Int64({1, 2, 3, 4, 5, 6}),
              Column::Float64({1.0, 2.0, 3.0, 4.0, 5.0, 6.0})})
      .MoveValue();
}

TEST(GroupByTest, SumSortedKeys) {
  auto r = GroupByAgg(Sales(), {"store"}, {{"qty", AggFunc::kSum, "qty_sum"}});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->num_rows(), 3);
  EXPECT_EQ(r->GetColumn("store").ValueOrDie()->string_data(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(r->GetColumn("qty_sum").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{9, 6, 6}));
}

TEST(GroupByTest, MultipleKeysAndAggs) {
  auto r = GroupByAgg(Sales(), {"store", "item"},
                      {{"qty", AggFunc::kSum, "q"},
                       {"price", AggFunc::kMean, "p"},
                       {"", AggFunc::kSize, "n"}});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->num_rows(), 5);  // (a,x) (a,y) (b,x) (b,y) (c,z)
  EXPECT_TRUE(r->HasColumn("q"));
  EXPECT_TRUE(r->HasColumn("p"));
  EXPECT_TRUE(r->HasColumn("n"));
}

TEST(GroupByTest, GroupCountExact) {
  auto r = GroupByAgg(Sales(), {"store", "item"},
                      {{"", AggFunc::kSize, "n"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 5);
}

TEST(GroupByTest, MinMaxFirstLast) {
  auto r = GroupByAgg(Sales(), {"store"},
                      {{"qty", AggFunc::kMin, "mn"},
                       {"qty", AggFunc::kMax, "mx"},
                       {"item", AggFunc::kFirst, "fi"},
                       {"item", AggFunc::kLast, "la"}});
  ASSERT_TRUE(r.ok()) << r.status();
  // group "a": rows qty {1,3,5}, items {x,y,x}
  EXPECT_EQ(r->GetColumn("mn").ValueOrDie()->int64_data()[0], 1);
  EXPECT_EQ(r->GetColumn("mx").ValueOrDie()->int64_data()[0], 5);
  EXPECT_EQ(r->GetColumn("fi").ValueOrDie()->string_data()[0], "x");
  EXPECT_EQ(r->GetColumn("la").ValueOrDie()->string_data()[0], "x");
}

TEST(GroupByTest, NullsSkippedByAggsButCountedBySize) {
  auto df = DataFrame::Make({"k", "v"},
                            {Column::Int64({1, 1, 1}),
                             Column::Float64({1.0, 2.0, 3.0}, {1, 0, 1})})
                .MoveValue();
  auto r = GroupByAgg(df, {"k"},
                      {{"v", AggFunc::kSum, "s"},
                       {"v", AggFunc::kCount, "c"},
                       {"", AggFunc::kSize, "n"},
                       {"v", AggFunc::kMean, "m"}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->GetColumn("s").ValueOrDie()->float64_data()[0], 4.0);
  EXPECT_EQ(r->GetColumn("c").ValueOrDie()->int64_data()[0], 2);
  EXPECT_EQ(r->GetColumn("n").ValueOrDie()->int64_data()[0], 3);
  EXPECT_DOUBLE_EQ(r->GetColumn("m").ValueOrDie()->float64_data()[0], 2.0);
}

TEST(GroupByTest, AllNullGroupGivesNullMinMax) {
  auto df = DataFrame::Make({"k", "v"},
                            {Column::Int64({1, 2}),
                             Column::Float64({1.0, 2.0}, {1, 0})})
                .MoveValue();
  auto r = GroupByAgg(df, {"k"}, {{"v", AggFunc::kMax, "mx"}});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->GetColumn("mx").ValueOrDie()->IsNull(0));
  EXPECT_TRUE(r->GetColumn("mx").ValueOrDie()->IsNull(1));
}

TEST(GroupByTest, Nunique) {
  auto r = GroupByAgg(Sales(), {"store"},
                      {{"item", AggFunc::kNunique, "nu"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetColumn("nu").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{2, 2, 1}));
}

TEST(GroupByTest, VarAndStdMatchDefinition) {
  auto df = DataFrame::Make({"k", "v"},
                            {Column::Int64({1, 1, 1, 2}),
                             Column::Float64({1.0, 2.0, 3.0, 5.0})})
                .MoveValue();
  auto r = GroupByAgg(df, {"k"},
                      {{"v", AggFunc::kVar, "var"},
                       {"v", AggFunc::kStd, "std"}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->GetColumn("var").ValueOrDie()->float64_data()[0], 1.0);
  EXPECT_DOUBLE_EQ(r->GetColumn("std").ValueOrDie()->float64_data()[0], 1.0);
  // Single-element group has undefined sample variance.
  EXPECT_TRUE(r->GetColumn("var").ValueOrDie()->IsNull(1));
}

TEST(GroupByTest, EmptyKeyListFails) {
  EXPECT_FALSE(GroupByAgg(Sales(), {}, {{"qty", AggFunc::kSum, "s"}}).ok());
}

TEST(GroupByTest, MissingColumnFails) {
  EXPECT_EQ(
      GroupByAgg(Sales(), {"nope"}, {{"qty", AggFunc::kSum, "s"}})
          .status()
          .code(),
      StatusCode::kKeyError);
}

TEST(GroupByTest, UnsortedKeepsFirstSeenOrder) {
  auto r = GroupByAgg(Sales(), {"store"}, {{"qty", AggFunc::kSum, "s"}},
                      /*sort_keys=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetColumn("store").ValueOrDie()->string_data(),
            (std::vector<std::string>{"a", "b", "c"}));
}

// --- Morsel-split independence of the order-insensitive aggregates. ---

/// `n` rows over about `groups` int64 keys (an LCG, no global RNG), with a
/// nullable int column "i" (values beyond 2^53 included) and a nullable
/// float column "f" holding NaN and ±0.0.
DataFrame ManyGroups(int64_t n, int64_t groups) {
  std::vector<int64_t> k(n), iv(n);
  std::vector<double> fv(n);
  std::vector<uint8_t> ivalid(n, 1), fvalid(n, 1);
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int64_t r = 0; r < n; ++r) {
    k[r] = static_cast<int64_t>(next() % groups);
    iv[r] = static_cast<int64_t>(next() % 2000) - 1000;
    if (next() % 10 == 0) iv[r] += int64_t{1} << 56;
    const uint64_t f = next() % 1000;
    fv[r] = f < 20    ? std::nan("")
            : f < 40  ? -0.0
            : f < 60  ? 0.0
                      : static_cast<double>(f) / 8.0 - 60.0;
    if (next() % 16 == 0) ivalid[r] = 0;
    if (next() % 16 == 0) fvalid[r] = 0;
  }
  return DataFrame::Make(
             {"k", "i", "f"},
             {Column::Int64(std::move(k)),
              Column::Int64(std::move(iv), std::move(ivalid)),
              Column::Float64(std::move(fv), std::move(fvalid))})
      .MoveValue();
}

/// The value one unsplit scan in row order yields for `func` on `col` over
/// `rows` (one group's rows, ascending): min/max keep the first valid row
/// and replace it only on a strictly better value. Returns the output
/// column's key bytes, or "null".
std::string SerialScan(const Column& col, AggFunc func,
                       const std::vector<int64_t>& rows) {
  int64_t pick = -1;
  int64_t count = 0;
  int64_t isum = 0;
  bool any = false, all = true;
  for (int64_t r : rows) {
    if (!col.IsValid(r)) continue;
    ++count;
    if (col.dtype() == DType::kInt64) isum += col.int64_data()[r];
    const bool truthy = col.GetDouble(r) != 0.0;
    any = any || truthy;
    all = all && truthy;
    if (pick < 0 || func == AggFunc::kLast) {
      pick = r;
    } else if (func == AggFunc::kMin || func == AggFunc::kMax) {
      const bool is_min = func == AggFunc::kMin;
      const bool better =
          col.dtype() == DType::kInt64
              ? (is_min ? col.int64_data()[r] < col.int64_data()[pick]
                        : col.int64_data()[pick] < col.int64_data()[r])
              : (is_min ? col.float64_data()[r] < col.float64_data()[pick]
                        : col.float64_data()[pick] < col.float64_data()[r]);
      if (better) pick = r;
    }
  }
  std::string out;
  switch (func) {
    case AggFunc::kCount:
      Column::Int64({count}).AppendKeyBytes(0, &out);
      return out;
    case AggFunc::kSum:
      Column::Int64({isum}).AppendKeyBytes(0, &out);
      return out;
    case AggFunc::kAny:
    case AggFunc::kAll:
      Column::Bool({static_cast<uint8_t>(func == AggFunc::kAny ? any : all)})
          .AppendKeyBytes(0, &out);
      return out;
    default:
      if (pick < 0) return "null";
      col.AppendKeyBytes(pick, &out);
      return out;
  }
}

TEST(GroupByTest, OrderInsensitiveAggsEqualSerialScanAtAnyThreadCount) {
  const std::vector<std::pair<std::string, AggFunc>> aggs = {
      {"i", AggFunc::kCount}, {"f", AggFunc::kCount}, {"i", AggFunc::kSum},
      {"i", AggFunc::kMin},   {"i", AggFunc::kMax},   {"f", AggFunc::kMin},
      {"f", AggFunc::kMax},   {"i", AggFunc::kFirst}, {"f", AggFunc::kFirst},
      {"i", AggFunc::kLast},  {"f", AggFunc::kLast},  {"i", AggFunc::kAny},
      {"f", AggFunc::kAny},   {"i", AggFunc::kAll},   {"f", AggFunc::kAll},
  };
  std::vector<AggSpec> specs = {{"", AggFunc::kSize, "size"}};
  for (const auto& [input, func] : aggs) {
    specs.push_back({input, func, input + "_" + AggFuncName(func)});
  }
  // ~5k groups: one morsel per aggregate at 8 rows per group. 500 groups:
  // six morsels whose partials fold in order.
  for (int64_t groups : {5000, 500}) {
    const DataFrame df = ManyGroups(21000, groups);
    ThreadPool* prev = SetCurrentThreadPool(nullptr);
    auto serial = GroupByAgg(df, {"k"}, specs, /*sort_keys=*/true);
    ASSERT_TRUE(serial.ok()) << serial.status();
    for (int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      SetCurrentThreadPool(&pool);
      auto r = GroupByAgg(df, {"k"}, specs, /*sort_keys=*/true);
      SetCurrentThreadPool(nullptr);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(Fingerprint(*r), Fingerprint(*serial))
          << "groups=" << groups << " threads=" << threads;
    }
    SetCurrentThreadPool(prev);

    std::map<int64_t, std::vector<int64_t>> rows;  // sorted, like the output
    const auto& keys = df.GetColumn("k").ValueOrDie()->int64_data();
    for (int64_t r = 0; r < df.num_rows(); ++r) rows[keys[r]].push_back(r);
    ASSERT_EQ(serial->num_rows(), static_cast<int64_t>(rows.size()));
    const Column* size = serial->GetColumn("size").ValueOrDie();
    int64_t g = 0;
    for (const auto& [key, group_rows] : rows) {
      EXPECT_EQ(size->int64_data()[g],
                static_cast<int64_t>(group_rows.size()));
      for (size_t a = 0; a < aggs.size(); ++a) {
        const auto& [input, func] = aggs[a];
        const Column* in = df.GetColumn(input).ValueOrDie();
        const Column* out = serial->GetColumn(specs[a + 1].output).ValueOrDie();
        std::string got = "null";
        if (out->IsValid(g)) {
          got.clear();
          out->AppendKeyBytes(g, &got);
        }
        ASSERT_EQ(got, SerialScan(*in, func, group_rows))
            << specs[a + 1].output << " key " << key << " groups=" << groups;
      }
      ++g;
    }
  }
}

TEST(GroupByTest, NanMinMaxMatchesSerialScanAtAnySplit) {
  const double nan = std::nan("");
  const std::vector<std::vector<double>> patterns = {
      {nan, 1.0, 0.0}, {1.0, nan, 0.0}, {1.0, 0.0, nan},
      {nan, nan, 2.0}, {2.0, nan, nan}, {0.0, -0.0, nan},
  };
  // Two groups: 4096-row morsels, so a run of 3 rows starting at 4093..4096
  // is cut at every position (and not at all).
  constexpr int64_t kRows = 4 * 4096;
  for (const auto& pattern : patterns) {
    for (int64_t start = 4093; start <= 4096; ++start) {
      std::vector<int64_t> k(kRows, 0);
      std::vector<double> v(kRows, 5.0);
      std::vector<int64_t> group_rows;
      for (int64_t j = 0; j < 3; ++j) {
        k[start + j] = 1;
        v[start + j] = pattern[j];
        group_rows.push_back(start + j);
      }
      const DataFrame df =
          DataFrame::Make({"k", "v"}, {Column::Int64(std::move(k)),
                                       Column::Float64(std::move(v))})
              .MoveValue();
      auto r = GroupByAgg(df, {"k"},
                          {{"v", AggFunc::kMin, "mn"},
                           {"v", AggFunc::kMax, "mx"}});
      ASSERT_TRUE(r.ok()) << r.status();
      const Column* in = df.GetColumn("v").ValueOrDie();
      for (const auto& [name, func] :
           {std::pair{"mn", AggFunc::kMin}, std::pair{"mx", AggFunc::kMax}}) {
        std::string got;
        r->GetColumn(name).ValueOrDie()->AppendKeyBytes(1, &got);
        EXPECT_EQ(got, SerialScan(*in, func, group_rows))
            << name << " start " << start << " pattern " << pattern[0] << ","
            << pattern[1] << "," << pattern[2];
      }
    }
  }
}

TEST(GroupByTest, Int64MinMaxExactBeyond2To53) {
  // Every value of a group rounds to the same double.
  const int64_t big = int64_t{1} << 62;
  auto df = DataFrame::Make({"k", "v"},
                            {Column::Int64({1, 1, 1, 2, 2, 2}),
                             Column::Int64({big + 1, big, big + 2, -big - 1,
                                            -big, -big - 2})})
                .MoveValue();
  auto r = GroupByAgg(df, {"k"},
                      {{"v", AggFunc::kMin, "mn"}, {"v", AggFunc::kMax, "mx"}});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->GetColumn("mn").ValueOrDie()->int64_data()[0], big);
  EXPECT_EQ(r->GetColumn("mx").ValueOrDie()->int64_data()[0], big + 2);
  EXPECT_EQ(r->GetColumn("mn").ValueOrDie()->int64_data()[1], -big - 2);
  EXPECT_EQ(r->GetColumn("mx").ValueOrDie()->int64_data()[1], -big);
}

// nunique over int64/float64/bool counts distinct raw bits per group; the
// reference is the per-group set of AppendKeyBytes strings.
TEST(GroupByTest, TypedNuniqueMatchesKeyBytesSets) {
  const int64_t n = 40000;
  const int64_t big = int64_t{1} << 53;
  const double nan_a = std::nan("1");
  const double nan_b = std::nan("2");
  std::vector<int64_t> k(n), iv(n);
  std::vector<double> fv(n);
  std::vector<uint8_t> bv(n), valid(n);
  uint64_t x = 12345;
  for (int64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    k[i] = (i * 7919) % 5000;
    // big and big + 1 share one double; both must count.
    iv[i] = big + static_cast<int64_t>((x >> 20) % 3);
    const double pool[] = {0.0, -0.0, nan_a, nan_b, 1.5, -2.25};
    fv[i] = pool[(x >> 40) % 6];
    bv[i] = static_cast<uint8_t>((x >> 50) % 3);  // 2 reads as true
    valid[i] = (x >> 60) % 7 != 0;
  }
  auto df = DataFrame::Make({"k", "i", "f", "b"},
                            {Column::Int64(k), Column::Int64(iv, valid),
                             Column::Float64(fv, valid),
                             Column::Bool(bv, valid)})
                .MoveValue();
  auto r = GroupByAgg(df, {"k"},
                      {{"i", AggFunc::kNunique, "ni"},
                       {"f", AggFunc::kNunique, "nf"},
                       {"b", AggFunc::kNunique, "nb"}});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_rows(), 5000);
  const Column* keys = r->GetColumn("k").ValueOrDie();
  for (const char* name : {"i", "f", "b"}) {
    const Column* col = df.GetColumn(name).ValueOrDie();
    std::map<int64_t, std::set<std::string>> ref;
    for (int64_t i = 0; i < n; ++i) {
      std::set<std::string>& vals = ref[k[i]];
      if (!col->IsValid(i)) continue;
      std::string bytes;
      col->AppendKeyBytes(i, &bytes);
      vals.insert(bytes);
    }
    const Column* got =
        r->GetColumn(std::string("n") + name).ValueOrDie();
    for (int64_t g = 0; g < r->num_rows(); ++g) {
      ASSERT_EQ(got->int64_data()[g],
                static_cast<int64_t>(ref[keys->int64_data()[g]].size()))
          << name << " group " << keys->int64_data()[g];
    }
  }
}

// Sorted group order compares int64 keys exactly: 2^53 + 1 and 2^53 are one
// double apart from nothing, so a compare through double keeps first-seen
// order.
TEST(GroupByTest, SortedInt64KeysOrderExactlyBeyond2To53) {
  const int64_t big = int64_t{1} << 53;
  auto df = DataFrame::Make({"k", "v"},
                            {Column::Int64({big + 1, big, -big - 1, -big},
                                           {1, 1, 1, 1}),
                             Column::Int64({1, 2, 3, 4})})
                .MoveValue();
  auto r = GroupByAgg(df, {"k"}, {{"v", AggFunc::kSum, "s"}});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->GetColumn("k").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{-big - 1, -big, big, big + 1}));
  EXPECT_EQ(r->GetColumn("s").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{3, 4, 2, 1}));
}

// Nulls still sort first, and a NaN key ties with every value, so it keeps
// its first-seen place.
TEST(GroupByTest, SortedKeysNullFirstNanTies) {
  const double nan = std::nan("");
  auto df =
      DataFrame::Make({"k", "v"},
                      {Column::Float64({nan, 1.0, 0.0, 1.0}, {1, 1, 0, 1}),
                       Column::Int64({1, 2, 4, 8})})
          .MoveValue();
  auto r = GroupByAgg(df, {"k"}, {{"v", AggFunc::kSum, "s"}});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->GetColumn("s").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{4, 1, 10}));
}

// --- Differential test: GroupByAgg against the per-morsel fold. ---

/// `n` rows over `groups` int64 keys (every row its own key when groups ==
/// n), with int64, float64 and bool inputs, each without ("i", "f", "b")
/// and with ("iv", "fv", "bv") validity. The ints include values above
/// 2^53 and near INT64_MAX (so sums wrap); the floats include two NaN
/// payloads, +-0.0, +-inf and magnitudes from 1e-6 to 1e6, so the
/// association of a sum shows in its bits, and "z" is "f" with each NaN
/// made -0.0 (min/max over a float column without NaNs track no first
/// value); bools include 2 (true). With
/// `runs`, each group's rows are one run, so most groups open in a later
/// morsel; every other group's first value is a NaN, and so is each
/// morsel's first value, so a group can also meet a NaN first in a later
/// morsel.
DataFrame DiffFrame(int64_t n, int64_t groups, bool runs = false) {
  uint64_t state = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(n);
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const int64_t big = int64_t{1} << 53;
  const int64_t grain = std::max<int64_t>(4096, (n + 15) / 16);  // AggGrain
  const double specials[] = {std::nan("1"), std::nan("2"), 0.0, -0.0,
                             INFINITY, -INFINITY};
  std::vector<int64_t> k(n), iv(n);
  std::vector<double> fv(n);
  std::vector<uint8_t> bv(n), ivalid(n), fvalid(n), bvalid(n);
  for (int64_t r = 0; r < n; ++r) {
    k[r] = runs          ? r * groups / n
           : groups == n ? n - r
                         : static_cast<int64_t>(next() % groups);
    const uint64_t pick = next() % 16;
    iv[r] = pick == 0   ? big + static_cast<int64_t>(next() % 5)
            : pick == 1 ? INT64_MAX - static_cast<int64_t>(next() % 5)
                        : static_cast<int64_t>(next() % 2001) - 1000;
    const uint64_t fpick = next() % 64;
    fv[r] = fpick < 6 ? specials[fpick]
                      : (static_cast<double>(next() % 2001) - 1000.0) / 3.0 *
                            std::pow(10.0, static_cast<double>(next() % 13) - 6);
    bv[r] = static_cast<uint8_t>(next() % 3);
    ivalid[r] = next() % 8 != 0;
    fvalid[r] = next() % 8 != 0;
    bvalid[r] = next() % 8 != 0;
    const bool opens = r == 0 || k[r] != k[r - 1];
    if (runs && ((opens && k[r] % 2 == 1) || r % grain == 0)) {
      fv[r] = std::nan("3");
      fvalid[r] = 1;
    }
  }
  std::vector<double> z(fv);
  for (double& x : z) x = std::isnan(x) ? -0.0 : x;
  return DataFrame::Make({"k", "i", "iv", "f", "z", "fv", "b", "bv"},
                         {Column::Int64(k), Column::Int64(iv),
                          Column::Int64(iv, std::move(ivalid)),
                          Column::Float64(fv), Column::Float64(z),
                          Column::Float64(fv, std::move(fvalid)),
                          Column::Bool(bv),
                          Column::Bool(bv, std::move(bvalid))})
      .MoveValue();
}

/// Every decomposable function on every input it accepts, plus one spec
/// that repeats another's (input, function).
std::vector<AggSpec> DiffSpecs() {
  std::vector<AggSpec> specs = {{"", AggFunc::kSize, "size"}};
  for (const char* in : {"i", "iv", "f", "fv", "z", "b", "bv"}) {
    const bool is_bool = in[0] == 'b';
    for (AggFunc func :
         {AggFunc::kCount, AggFunc::kSum, AggFunc::kMean, AggFunc::kMin,
          AggFunc::kMax, AggFunc::kFirst, AggFunc::kLast, AggFunc::kProd,
          AggFunc::kAny, AggFunc::kAll, AggFunc::kVar, AggFunc::kStd,
          AggFunc::kSumSq}) {
      const bool numeric_only = func == AggFunc::kVar ||
                                func == AggFunc::kStd ||
                                func == AggFunc::kSumSq;
      if (is_bool && numeric_only) continue;
      specs.push_back({in, func, std::string(in) + "_" + AggFuncName(func)});
    }
  }
  specs.push_back({"fv", AggFunc::kSum, "fv_sum_again"});
  return specs;
}

/// The aggregation semantics the fused pass must keep, spelled out: float
/// sums, sums of squares and products fold one partial per morsel in
/// morsel order, the morsels cut at AggGrain(n) = max(4096, ceil(n / 16))
/// rows, and every accumulator keeps the first NaN it meets; var/std pass
/// a NaN sum of squares, else a NaN sum, through; min/max keep the first
/// valid row and replace it only on a strictly better value; first/last
/// are the first/last valid row; groups are numbered first-seen.
DataFrame RefGroupByAgg(const DataFrame& df, const std::vector<AggSpec>& specs) {
  const Column& key = *df.GetColumn("k").ValueOrDie();
  const int64_t n = df.num_rows();
  std::map<std::string, int64_t> ids;
  std::vector<int64_t> gid(n), first;
  for (int64_t r = 0; r < n; ++r) {
    std::string bytes;
    key.AppendKeyBytes(r, &bytes);
    const auto [it, added] = ids.emplace(bytes, first.size());
    if (added) first.push_back(r);
    gid[r] = it->second;
  }
  const int64_t G = static_cast<int64_t>(first.size());
  const int64_t grain = std::max<int64_t>(4096, (n + 15) / 16);

  const auto fold = [&](const Column& c, bool product, bool square) {
    const auto step = [product](double& acc, double x) {
      if (std::isnan(acc)) return;
      acc = product ? acc * x : acc + x;
    };
    std::vector<double> acc(G, product ? 1.0 : 0.0);
    for (int64_t lo = 0; lo < n; lo += grain) {
      std::vector<double> p(G, product ? 1.0 : 0.0);
      for (int64_t r = lo; r < std::min(n, lo + grain); ++r) {
        if (!c.IsValid(r)) continue;
        const double v = c.GetDouble(r);
        step(p[gid[r]], square ? v * v : v);
      }
      for (int64_t g = 0; g < G; ++g) step(acc[g], p[g]);
    }
    return acc;
  };
  const auto valid_count = [&](const Column* c) {
    std::vector<int64_t> cnt(G, 0);
    for (int64_t r = 0; r < n; ++r) {
      if (c == nullptr || c->IsValid(r)) cnt[gid[r]]++;
    }
    return cnt;
  };
  const auto pick = [&](const Column& c, AggFunc func) {
    std::vector<int64_t> row(G, -1);
    for (int64_t r = 0; r < n; ++r) {
      if (!c.IsValid(r)) continue;
      int64_t& p = row[gid[r]];
      bool better = p < 0 || func == AggFunc::kLast;
      if (!better && (func == AggFunc::kMin || func == AggFunc::kMax)) {
        const bool lt = func == AggFunc::kMin;
        switch (c.dtype()) {
          case DType::kInt64: {
            const int64_t a = c.int64_data()[r], b = c.int64_data()[p];
            better = lt ? a < b : b < a;
            break;
          }
          case DType::kFloat64: {
            const double a = c.float64_data()[r], b = c.float64_data()[p];
            better = lt ? a < b : b < a;
            break;
          }
          default: {
            const bool a = c.bool_data()[r] != 0, b = c.bool_data()[p] != 0;
            better = lt ? !a && b : !b && a;
          }
        }
      }
      if (better) p = r;
    }
    std::vector<int64_t> take(G);
    std::vector<uint8_t> valid(G);
    for (int64_t g = 0; g < G; ++g) {
      take[g] = std::max<int64_t>(row[g], 0);
      valid[g] = row[g] >= 0;
    }
    Column out = c.Take(take);
    out.mutable_validity() = valid;
    return out;
  };

  DataFrame out;
  EXPECT_TRUE(out.SetColumn("k", key.Take(first)).ok());
  for (const AggSpec& s : specs) {
    const Column* c = s.input.empty() ? nullptr : df.GetColumn(s.input).ValueOrDie();
    Column result;
    switch (s.func) {
      case AggFunc::kSize:
      case AggFunc::kCount:
        result = Column::Int64(valid_count(c));
        break;
      case AggFunc::kSum:
        if (c->dtype() == DType::kInt64) {
          std::vector<uint64_t> sum(G, 0);
          for (int64_t r = 0; r < n; ++r) {
            if (c->IsValid(r)) sum[gid[r]] += c->int64_data()[r];
          }
          result = Column::Int64(std::vector<int64_t>(sum.begin(), sum.end()));
        } else {
          result = Column::Float64(fold(*c, false, false));
        }
        break;
      case AggFunc::kSumSq:
        result = Column::Float64(fold(*c, false, true));
        break;
      case AggFunc::kProd:
        result = Column::Float64(fold(*c, true, false));
        break;
      case AggFunc::kMean:
      case AggFunc::kVar:
      case AggFunc::kStd: {
        const std::vector<double> sum = fold(*c, false, false);
        const std::vector<double> sq = fold(*c, false, true);
        const std::vector<int64_t> cnt = valid_count(c);
        std::vector<double> v(G, 0.0);
        std::vector<uint8_t> valid(G, 1);
        for (int64_t g = 0; g < G; ++g) {
          if (s.func == AggFunc::kMean) {
            valid[g] = cnt[g] > 0;
            if (valid[g]) v[g] = sum[g] / cnt[g];
            continue;
          }
          valid[g] = cnt[g] >= 2;
          if (!valid[g]) continue;
          if (std::isnan(sq[g]) || std::isnan(sum[g])) {
            v[g] = std::isnan(sq[g]) ? sq[g] : sum[g];
            continue;
          }
          double var = (sq[g] - sum[g] * sum[g] / cnt[g]) / (cnt[g] - 1);
          if (var < 0) var = 0;
          v[g] = s.func == AggFunc::kStd ? std::sqrt(var) : var;
        }
        result = Column::Float64(std::move(v), std::move(valid));
        break;
      }
      case AggFunc::kAny:
      case AggFunc::kAll: {
        const bool any = s.func == AggFunc::kAny;
        std::vector<uint8_t> flag(G, any ? 0 : 1);
        for (int64_t r = 0; r < n; ++r) {
          if (!c->IsValid(r)) continue;
          const bool truthy = c->GetDouble(r) != 0.0;
          if (truthy == any) flag[gid[r]] = any ? 1 : 0;
        }
        result = Column::Bool(std::move(flag));
        break;
      }
      default:
        result = pick(*c, s.func);
    }
    EXPECT_TRUE(out.SetColumn(s.output, std::move(result)).ok());
  }
  return out;
}

/// Names of the columns whose fingerprints differ ("" when none do).
std::string DiffColumns(const DataFrame& got, const DataFrame& want) {
  if (got.num_columns() != want.num_columns()) return "<column count>";
  std::string names;
  for (int c = 0; c < want.num_columns(); ++c) {
    DataFrame a, b;
    EXPECT_TRUE(a.SetColumn(got.column_name(c), got.column(c)).ok());
    EXPECT_TRUE(b.SetColumn(want.column_name(c), want.column(c)).ok());
    if (Fingerprint(a) != Fingerprint(b)) names += want.column_name(c) + " ";
  }
  return names;
}

/// GroupByAgg (first-seen order) of `df` on `threads` threads: 1 is no pool
/// at all, so the pass walks every morsel itself; more is a pool, where
/// idle cores split the pass by morsel when there are few groups.
DataFrame AggAt(const DataFrame& df, const std::vector<AggSpec>& specs,
                int threads) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  ThreadPool* prev = SetCurrentThreadPool(pool.get());
  auto r = GroupByAgg(df, {"k"}, specs, /*sort_keys=*/false);
  SetCurrentThreadPool(prev);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r.MoveValue() : DataFrame();
}

TEST(GroupByDifferentialTest, MatchesPerMorselFoldByteForByte) {
  const std::vector<AggSpec> specs = DiffSpecs();
  for (int64_t n : {0, 1, 4095, 4096, 4097, 16 * 4096 + 1}) {
    for (int64_t groups : {int64_t{1}, int64_t{12},
                           std::max<int64_t>(n / 5, 1), n}) {
      if (groups == 0) continue;
      for (bool runs : {false, true}) {
        if (runs && groups != 12) continue;
        const DataFrame df = DiffFrame(n, groups, runs);
        const DataFrame want = RefGroupByAgg(df, specs);
        for (int threads : {1, 4}) {
          EXPECT_EQ(DiffColumns(AggAt(df, specs, threads), want), "")
              << "n=" << n << " groups=" << groups << " runs=" << runs
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(GroupByDifferentialTest, LazyFilteredInputMatchesEagerReference) {
  const std::vector<AggSpec> specs = DiffSpecs();
  const int64_t n = 16 * 4096 + 1;
  const DataFrame df = DiffFrame(n, n / 5);
  std::vector<uint8_t> mask(n);
  for (int64_t r = 0; r < n; ++r) mask[r] = r % 3 != 1;
  const DataFrame want = RefGroupByAgg(df.FilterRows(mask), specs);
  for (int threads : {1, 4}) {
    const DataFrame lazy = df.FilterRowsLate(mask);
    ASSERT_TRUE(lazy.is_lazy());
    EXPECT_EQ(DiffColumns(AggAt(lazy, specs, threads), want), "")
        << "threads=" << threads;
  }
}

// Each distinct (input, function) partial is mapped, shipped and combined
// once: plasticc's mean and std of `flux` share its sum and count.
TEST(DecomposeTest, SharedPartialsAreEmittedOnce) {
  const std::vector<AggSpec> specs = {
      {"flux", AggFunc::kMean, "flux_mean"},
      {"flux", AggFunc::kStd, "flux_std"},
      {"flux", AggFunc::kMin, "flux_min"},
      {"flux", AggFunc::kMax, "flux_max"},
      {"snr", AggFunc::kMean, "snr_mean"},
      {"mjd", AggFunc::kMax, "mjd_max"},
      {"mjd", AggFunc::kMin, "mjd_min"},
      {"", AggFunc::kSize, "n_obs"}};
  auto plan = DecomposeAggs(specs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::set<std::string> outputs;
  for (const AggSpec& s : plan->map_specs) outputs.insert(s.output);
  EXPECT_EQ(plan->map_specs.size(), 10u);
  EXPECT_EQ(outputs.size(), 10u);
  EXPECT_EQ(plan->combine_specs.size(), 10u);

  // One chunk through map, combine and finalize equals the direct result.
  const int64_t n = 5000;
  std::vector<int64_t> obj(n);
  std::vector<double> flux(n), snr(n), mjd(n);
  for (int64_t r = 0; r < n; ++r) {
    obj[r] = (r * 7919) % 97;
    flux[r] = static_cast<double>((r * 31) % 1000) / 7.0 - 60.0;
    snr[r] = flux[r] / 3.0;
    mjd[r] = 59580.0 + static_cast<double>((r * 13) % 1000);
  }
  const DataFrame df =
      DataFrame::Make({"object_id", "flux", "snr", "mjd"},
                      {Column::Int64(obj), Column::Float64(flux),
                       Column::Float64(snr), Column::Float64(mjd)})
          .MoveValue();
  auto mapped = GroupByAgg(df, {"object_id"}, plan->map_specs, false);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto combined =
      GroupByAgg(*mapped, {"object_id"}, plan->combine_specs, false);
  ASSERT_TRUE(combined.ok()) << combined.status();
  auto final_df = FinalizeAgg(*combined, {"object_id"}, specs);
  ASSERT_TRUE(final_df.ok()) << final_df.status();
  auto direct = GroupByAgg(df, {"object_id"}, specs, false);
  ASSERT_TRUE(direct.ok()) << direct.status();
  for (const AggSpec& s : specs) {
    if (s.func == AggFunc::kMean || s.func == AggFunc::kStd) continue;
    DataFrame a, b;
    ASSERT_TRUE(a.SetColumn(s.output, *final_df->GetColumn(s.output).ValueOrDie()).ok());
    ASSERT_TRUE(b.SetColumn(s.output, *direct->GetColumn(s.output).ValueOrDie()).ok());
    EXPECT_EQ(Fingerprint(a), Fingerprint(b)) << s.output;
  }
}

TEST(AggFuncTest, NamesRoundTrip) {
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kMean,
                    AggFunc::kMin, AggFunc::kMax, AggFunc::kSize,
                    AggFunc::kFirst, AggFunc::kLast, AggFunc::kNunique,
                    AggFunc::kVar, AggFunc::kStd, AggFunc::kMedian,
                    AggFunc::kProd, AggFunc::kAny, AggFunc::kAll}) {
    auto r = AggFuncFromName(AggFuncName(f));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, f);
  }
  EXPECT_FALSE(AggFuncFromName("mode").ok());
}

// --- Decomposition: map-combine-reduce equivalence property. ---
// Splitting the frame into chunks, applying map specs per chunk, combining,
// then finalizing must equal the direct single-node aggregation. This is the
// invariant the paper's multi-stage model relies on.
class DecomposeEquivalenceTest : public ::testing::TestWithParam<AggFunc> {};

TEST_P(DecomposeEquivalenceTest, ChunkedEqualsDirect) {
  AggFunc func = GetParam();
  DataFrame df = Sales();
  std::vector<AggSpec> specs{{func == AggFunc::kSize ? "" : "price", func,
                              "out"}};
  auto direct = GroupByAgg(df, {"store"}, specs);
  ASSERT_TRUE(direct.ok()) << direct.status();

  auto plan = DecomposeAggs(specs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Map over 3 chunks of 2 rows.
  std::vector<DataFrame> partials;
  for (int64_t off = 0; off < df.num_rows(); off += 2) {
    DataFrame chunk = df.SliceRows(off, 2);
    auto p = GroupByAgg(chunk, {"store"}, plan->map_specs);
    ASSERT_TRUE(p.ok()) << p.status();
    partials.push_back(p.MoveValue());
  }
  auto concat = Concat(partials);
  ASSERT_TRUE(concat.ok());
  auto combined = GroupByAgg(*concat, {"store"}, plan->combine_specs);
  ASSERT_TRUE(combined.ok()) << combined.status();
  auto final_df = FinalizeAgg(*combined, {"store"}, specs);
  ASSERT_TRUE(final_df.ok()) << final_df.status();

  ASSERT_EQ(final_df->num_rows(), direct->num_rows());
  const Column* a = final_df->GetColumn("out").ValueOrDie();
  const Column* b = direct->GetColumn("out").ValueOrDie();
  for (int64_t i = 0; i < a->length(); ++i) {
    if (b->IsNull(i)) {
      EXPECT_TRUE(a->IsNull(i));
      continue;
    }
    EXPECT_NEAR(a->GetDouble(i), b->GetDouble(i), 1e-9) << "group " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Funcs, DecomposeEquivalenceTest,
    ::testing::Values(AggFunc::kSum, AggFunc::kCount, AggFunc::kMean,
                      AggFunc::kMin, AggFunc::kMax, AggFunc::kSize,
                      AggFunc::kFirst, AggFunc::kLast, AggFunc::kVar,
                      AggFunc::kStd));

TEST(DecomposeTest, NuniqueNotDecomposable) {
  std::vector<AggSpec> specs{{"x", AggFunc::kNunique, "o"}};
  EXPECT_FALSE(IsDecomposable(specs));
  EXPECT_EQ(DecomposeAggs(specs).status().code(),
            StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace xorbits::dataframe
