#include <gtest/gtest.h>

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
