#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "dataframe/groupby.h"
#include "dataframe/kernels.h"
#include "dataframe/reshape.h"
#include "operators/dataframe_ops.h"
#include "services/chunk_data.h"

namespace xorbits::dataframe {
namespace {

DataFrame Df() {
  return DataFrame::Make({"k", "v", "s"},
                         {Column::Int64({3, 1, 2, 1, 3}),
                          Column::Float64({0.3, 0.1, 0.2, 0.15, 0.35}),
                          Column::String({"c", "a", "b", "a2", "c2"})})
      .MoveValue();
}

TEST(FilterTest, KeepsMaskedRows) {
  auto mask = CompareScalar(*Df().GetColumn("k").ValueOrDie(), Scalar::Int(2),
                            CmpOp::kGe);
  auto r = Filter(Df(), *mask);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3);
  EXPECT_EQ(r->index().Label(0), 0);
  EXPECT_EQ(r->index().Label(1), 2);
}

TEST(FilterTest, NullMaskEntriesDropRows) {
  DataFrame df = Df();
  Column mask = Column::Bool({1, 1, 1, 1, 1}, {1, 0, 1, 0, 1});
  auto r = Filter(df, mask);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3);
}

TEST(FilterTest, WrongMaskFails) {
  EXPECT_FALSE(Filter(Df(), Column::Int64({1, 2, 3, 4, 5})).ok());
  EXPECT_FALSE(Filter(Df(), Column::Bool({1})).ok());
}

TEST(SortTest, SingleKeyAscending) {
  auto r = SortValues(Df(), {"k"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetColumn("k").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{1, 1, 2, 3, 3}));
  // Stability: original order of equal keys preserved.
  EXPECT_EQ(r->GetColumn("s").ValueOrDie()->string_data()[0], "a");
  EXPECT_EQ(r->GetColumn("s").ValueOrDie()->string_data()[1], "a2");
}

TEST(SortTest, MultiKeyMixedDirections) {
  auto r = SortValues(Df(), {"k", "v"}, {true, false});
  ASSERT_TRUE(r.ok());
  const auto& v = r->GetColumn("v").ValueOrDie()->float64_data();
  EXPECT_DOUBLE_EQ(v[0], 0.15);  // k=1, larger v first? no: descending => 0.15 < 0.1 is false
  // k=1 rows have v {0.1, 0.15}; descending puts 0.15 first.
  EXPECT_DOUBLE_EQ(v[1], 0.1);
}

TEST(SortTest, NullsSortLast) {
  auto df = DataFrame::Make(
                {"a"}, {Column::Int64({2, 1, 3}, {1, 0, 1})})
                .MoveValue();
  auto r = SortValues(df, {"a"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->GetColumn("a").ValueOrDie()->IsNull(2));
  auto d = SortValues(df, {"a"}, {false});
  EXPECT_TRUE(d->GetColumn("a").ValueOrDie()->IsNull(2));
}

// --- typed sort against the Scalar comparator it replaced -----------------

/// Test oracle: the stable sort SortValues ran before the normalized-key
/// kernel, one Scalar pair per comparison (nulls last in either direction).
std::vector<int64_t> ScalarOracleOrder(const DataFrame& df,
                                       const std::vector<std::string>& by,
                                       const std::vector<bool>& asc) {
  std::vector<const Column*> cols;
  for (const auto& k : by) cols.push_back(df.GetColumn(k).ValueOrDie());
  std::vector<int64_t> order(df.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < cols.size(); ++k) {
      const Column* c = cols[k];
      const bool an = c->IsNull(a), bn = c->IsNull(b);
      if (an || bn) {
        if (an == bn) continue;
        return bn;
      }
      Scalar sa = c->GetScalar(a), sb = c->GetScalar(b);
      if (sa < sb) return static_cast<bool>(asc[k]);
      if (sb < sa) return !asc[k];
    }
    return false;
  });
  return order;
}

/// Exact bytes of a frame: validity and raw values of every column, index
/// labels included, so any reordering shows.
std::string Bytes(const DataFrame& df) {
  std::string out;
  for (int ci = 0; ci < df.num_columns(); ++ci) {
    const Column& c = df.column(ci);
    for (int64_t i = 0; i < c.length(); ++i) {
      out += c.IsValid(i) ? 'v' : 'n';
      if (c.IsValid(i)) c.AppendKeyBytes(i, &out);
    }
  }
  for (int64_t i = 0; i < df.num_rows(); ++i) {
    out += std::to_string(df.index().Label(i)) + ',';
  }
  return out;
}

/// Mixed-type frame with ties, nulls, negative numbers, -0.0 next to 0.0,
/// empty strings and bytes above 0x7f (strings compare unsigned). `d` is
/// `s` dictionary-encoded.
DataFrame SortFrame(int64_t n) {
  std::vector<int64_t> i64(n);
  std::vector<double> f64(n);
  std::vector<uint8_t> b(n), f_valid(n, 1), b_valid(n, 1), s_valid(n, 1);
  std::vector<std::string> s(n);
  uint64_t state = 99;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int64_t r = 0; r < n; ++r) {
    i64[r] = static_cast<int64_t>(next() % 41) - 20;
    const int64_t f = static_cast<int64_t>(next() % 23) - 11;
    f64[r] = f == 0 ? (next() % 2 ? -0.0 : 0.0) : static_cast<double>(f) / 4;
    b[r] = next() % 2;
    const uint64_t pick = next() % 9;
    s[r] = pick == 0   ? ""
           : pick == 1 ? "\xc3\xa9t\xc3\xa9"
                       : "k" + std::to_string(pick * 7 % 5);
    if (next() % 9 == 0) f_valid[r] = 0;
    if (next() % 11 == 0) b_valid[r] = 0;
    if (next() % 13 == 0) s_valid[r] = 0;
  }
  Column plain = Column::String(std::move(s), std::move(s_valid));
  Column dict = plain.DictEncode();
  return DataFrame::Make(
             {"i", "f", "b", "s", "d"},
             {Column::Int64(std::move(i64)),
              Column::Float64(std::move(f64), std::move(f_valid)),
              Column::Bool(std::move(b), std::move(b_valid)), std::move(plain),
              std::move(dict)})
      .MoveValue();
}

TEST(TypedSortTest, MatchesScalarComparatorAtEveryThreadCount) {
  const std::vector<std::pair<std::vector<std::string>, std::vector<bool>>>
      cases = {
          {{"i"}, {true}},
          {{"f"}, {false}},
          {{"b", "i"}, {true, false}},
          {{"s"}, {true}},
          {{"d"}, {false}},
          {{"d", "f"}, {true, false}},
          {{"s", "i"}, {false, true}},
          {{"i", "f", "b"}, {false, true, false}},
      };
  // 7 rows: comparison path; 3000: one radix morsel; 70000: many morsels.
  for (int64_t n : {7, 3000, 70000}) {
    const DataFrame df = SortFrame(n);
    for (const auto& [by, asc] : cases) {
      const std::string want = Bytes(df.TakeRows(ScalarOracleOrder(df, by, asc)));
      for (int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        ThreadPool* prev = SetCurrentThreadPool(&pool);
        auto got = SortValues(df, by, asc);
        SetCurrentThreadPool(prev);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(Bytes(*got), want)
            << "n=" << n << " key=" << by[0] << " threads=" << threads;
      }
    }
  }
}

TEST(TypedSortTest, Int64BeyondTwoToThe53CompareExactly) {
  // The Scalar comparator went through double, where 2^53 + 1 rounds to
  // 2^53: such values tied and kept input order. The typed sort orders
  // every int64 exactly.
  const int64_t big = int64_t{1} << 53;
  auto df = DataFrame::Make({"a"}, {Column::Int64({big + 1, big, big + 2,
                                                   -big - 1, -big})})
                .MoveValue();
  auto r = SortValues(df, {"a"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetColumn("a").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{-big - 1, -big, big, big + 1, big + 2}));
  auto d = SortValues(df, {"a"}, {false});
  EXPECT_EQ(d->GetColumn("a").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{big + 2, big + 1, big, -big, -big - 1}));
}

TEST(TypedSortTest, NaNSortsAfterNumbersAndBeforeNulls) {
  // NaN compared neither less nor greater than anything under the Scalar
  // comparator, so its place was unspecified. The typed sort pins it: after
  // every number and before nulls, in either direction, stable among NaNs.
  const double nan = std::nan("");
  auto df = DataFrame::Make(
                {"x", "seq"},
                {Column::Float64({1.0, nan, 0.0, -1.0, nan, 2.0},
                                 {1, 1, 0, 1, 1, 1}),
                 Column::Int64({0, 1, 2, 3, 4, 5})})
                .MoveValue();
  auto up = SortValues(df, {"x"});
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->GetColumn("seq").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{3, 0, 5, 1, 4, 2}));
  auto down = SortValues(df, {"x"}, {false});
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down->GetColumn("seq").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{5, 0, 3, 1, 4, 2}));
}

// --- range-partition routing against the per-row Scalar scan --------------

/// Test oracle: the routing RangePartitionChunkOp ran before, a linear scan
/// over the boundaries comparing Scalars.
std::vector<int32_t> ScalarOracleRoute(const Column& key, const Column& bounds,
                                       bool ascending) {
  std::vector<int32_t> ids(key.length());
  for (int64_t i = 0; i < key.length(); ++i) {
    const Scalar v = key.GetScalar(i);
    int32_t p = 0;
    while (p < bounds.length()) {
      const Scalar b = bounds.GetScalar(p);
      if (ascending ? !(b < v) : !(v < b)) break;
      ++p;
    }
    ids[i] = p;
  }
  return ids;
}

/// Boundaries the way QuantileBoundaries picks them: every `step`-th value
/// of the sorted keys, so repeated values give repeated boundaries.
Column PickBounds(const Column& key, bool ascending, int64_t step) {
  DataFrame df = DataFrame::Make({"k"}, {key}).MoveValue();
  DataFrame sorted = SortValues(df, {"k"}, {ascending}).MoveValue();
  std::vector<int64_t> picks;
  for (int64_t i = step; i < sorted.num_rows(); i += step) picks.push_back(i);
  return sorted.TakeRows(picks).column(0);
}

TEST(RangePartitionTest, RoutingMatchesScalarScanWithTiesAndDirections) {
  const DataFrame df = SortFrame(2000);
  for (bool ascending : {true, false}) {
    for (const char* name : {"i", "s", "d"}) {
      const Column& key = *df.GetColumn(name).ValueOrDie();
      // Null-free keys: the Scalar scan sent nulls to partition 0 even when
      // the sort puts them last (see NullsRouteWhereTheSortPutsThem).
      std::vector<uint8_t> valid(key.length());
      for (int64_t i = 0; i < key.length(); ++i) valid[i] = key.IsValid(i);
      const Column dense = key.Filter(valid);
      for (int64_t step : {7, 300, 900}) {
        const Column bounds = PickBounds(dense, ascending, step);
        auto got = RangePartitionIds(dense, bounds, ascending);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, ScalarOracleRoute(dense, bounds, ascending))
            << name << " ascending=" << ascending << " step=" << step;
        // Plain boundaries over a dictionary key (and back) route alike.
        if (key.dtype() == DType::kString) {
          const Column other = bounds.is_dict() ? bounds.DictDecode()
                                                : bounds.DictEncode();
          EXPECT_EQ(*RangePartitionIds(dense, other, ascending), *got);
        }
      }
    }
  }
}

/// Collects what a shuffle mapper emits, keyed by partition.
struct CapturingSink final : operators::ExecutionContext::ShuffleSink {
  std::map<int, services::ChunkDataPtr> partitions;
  Status Emit(int partition, services::ChunkDataPtr data) override {
    partitions[partition] = std::move(data);
    return Status::OK();
  }
};

TEST(RangePartitionTest, ChunkOpEmitsTheScalarScanPartitions) {
  const DataFrame df = SortFrame(3000).Select({"i", "f"}).MoveValue();
  const Column& key = *df.GetColumn("i").ValueOrDie();
  for (bool ascending : {true, false}) {
    const Column bounds = PickBounds(key, ascending, 700);
    const int partitions = static_cast<int>(bounds.length()) + 1;
    operators::RangePartitionChunkOp op("i", partitions, ascending);
    CapturingSink sink;
    operators::ExecutionContext ctx;
    ctx.shuffle_sink = &sink;
    ctx.inputs = {services::MakeChunk(df),
                  services::MakeChunk(
                      DataFrame::Make({"i"}, {bounds}).MoveValue())};
    ASSERT_TRUE(op.Execute(ctx).ok());
    const std::vector<int32_t> want = ScalarOracleRoute(key, bounds, ascending);
    for (int p = 0; p < partitions; ++p) {
      std::vector<int64_t> rows;
      for (int64_t i = 0; i < df.num_rows(); ++i) {
        if (want[i] == p) rows.push_back(i);
      }
      ASSERT_TRUE(sink.partitions.count(p));
      EXPECT_EQ(Bytes(sink.partitions[p]->dataframe()),
                Bytes(df.TakeRows(rows)))
          << "partition " << p << " ascending=" << ascending;
    }
  }
}

TEST(RangePartitionTest, NullsRouteWhereTheSortPutsThem) {
  // Sorted output concatenates the partitions in order, so nulls (last in
  // either direction) belong after every boundary that holds a value.
  const Column key = Column::Int64({1, 0, 5, 9, 7}, {1, 0, 1, 1, 1});
  auto up = RangePartitionIds(key, Column::Int64({3, 7}), true);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(*up, (std::vector<int32_t>{0, 2, 1, 2, 1}));
  auto down = RangePartitionIds(key, Column::Int64({7, 3}), false);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(*down, (std::vector<int32_t>{2, 2, 1, 0, 0}));
  // A null boundary (the sample's tail was null) sorts after every value,
  // so it takes the values above 3 and the nulls.
  auto tail = RangePartitionIds(key, Column::Int64({3, 0}, {1, 0}), true);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, (std::vector<int32_t>{0, 1, 1, 1, 1}));
}

TEST(ConcatTest, MatchesByNameAcrossColumnOrder) {
  auto a = DataFrame::Make({"x", "y"},
                           {Column::Int64({1}), Column::Int64({2})})
               .MoveValue();
  auto b = DataFrame::Make({"y", "x"},
                           {Column::Int64({20}), Column::Int64({10})})
               .MoveValue();
  auto r = Concat({a, b});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetColumn("x").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{1, 10}));
  EXPECT_EQ(r->GetColumn("y").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{2, 20}));
}

TEST(ConcatTest, MissingColumnFails) {
  auto a = DataFrame::Make({"x"}, {Column::Int64({1})}).MoveValue();
  auto b = DataFrame::Make({"z"}, {Column::Int64({2})}).MoveValue();
  EXPECT_FALSE(Concat({a, b}).ok());
}

TEST(ConcatTest, IndexLabelsPreserved) {
  DataFrame a = Df().SliceRows(0, 2);
  DataFrame b = Df().SliceRows(3, 2);
  auto r = Concat({a, b});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->index().Label(2), 3);
}

TEST(DropDuplicatesTest, SubsetKeepsFirst) {
  auto r = DropDuplicates(Df(), {"k"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3);
  EXPECT_EQ(r->GetColumn("s").ValueOrDie()->string_data(),
            (std::vector<std::string>{"c", "a", "b"}));
}

TEST(DropDuplicatesTest, AllColumnsWhenNoSubset) {
  auto df = DataFrame::Make({"a", "b"},
                            {Column::Int64({1, 1, 1}),
                             Column::Int64({2, 2, 3})})
                .MoveValue();
  auto r = DropDuplicates(df);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2);
}

TEST(HeadTest, ClampsToLength) {
  EXPECT_EQ(Head(Df(), 2).num_rows(), 2);
  EXPECT_EQ(Head(Df(), 100).num_rows(), 5);
}

TEST(DropNaTest, SubsetAndAll) {
  auto df = DataFrame::Make({"a", "b"},
                            {Column::Int64({1, 2, 3}, {1, 0, 1}),
                             Column::Int64({4, 5, 6}, {1, 1, 0})})
                .MoveValue();
  EXPECT_EQ(DropNa(df)->num_rows(), 1);
  EXPECT_EQ(DropNa(df, {"a"})->num_rows(), 2);
}

TEST(FillNaTest, ReplacesOnlyNulls) {
  auto df = DataFrame::Make(
                {"a"}, {Column::Float64({1.0, 2.0, 3.0}, {1, 0, 1})})
                .MoveValue();
  auto r = FillNa(df, "a", Scalar::Float(-1.0));
  ASSERT_TRUE(r.ok());
  const Column* c = r->GetColumn("a").ValueOrDie();
  EXPECT_EQ(c->null_count(), 0);
  EXPECT_DOUBLE_EQ(c->float64_data()[1], -1.0);
  EXPECT_DOUBLE_EQ(c->float64_data()[0], 1.0);
}

TEST(UniqueTest, FirstSeenOrder) {
  auto r = Unique(Column::String({"b", "a", "b", "c", "a"}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->string_data(), (std::vector<std::string>{"b", "a", "c"}));
}

TEST(ValueCountsTest, SortedByCountDesc) {
  auto r = ValueCounts(Column::String({"x", "y", "x", "x", "y", "z"}), "val");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetColumn("val").ValueOrDie()->string_data(),
            (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(r->GetColumn("count").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{3, 2, 1}));
}

// --- hashing kernels against the AppendKeyBytes reference ----------------

/// Reference key of `row` over `cols`: the concatenated AppendKeyBytes.
std::string RefKey(const std::vector<const Column*>& cols, int64_t row) {
  std::string key;
  for (const Column* c : cols) c->AppendKeyBytes(row, &key);
  return key;
}

/// Frame with nulls, two NaN payloads, +0.0 next to -0.0, int64 above 2^53
/// and strings in both encodings (`d` is `s` dictionary-encoded). `k` has
/// n / 8 groups.
DataFrame DedupeFrame(int64_t n) {
  const int64_t big = int64_t{1} << 53;
  const double fpool[] = {0.0, -0.0, std::nan("1"), std::nan("2"), 1.5};
  std::vector<int64_t> k(n), i64(n);
  std::vector<double> f64(n);
  std::vector<uint8_t> b(n), i_valid(n, 1), f_valid(n, 1), b_valid(n, 1),
      s_valid(n, 1);
  std::vector<std::string> s(n);
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int64_t r = 0; r < n; ++r) {
    k[r] = static_cast<int64_t>(next() % std::max<int64_t>(n / 8, 1));
    i64[r] = big + static_cast<int64_t>(next() % 3);  // big+1 rounds to big
    f64[r] = fpool[next() % 5];
    b[r] = next() % 2;
    s[r] = "s" + std::to_string(next() % 6);
    i_valid[r] = next() % 11 != 0;
    f_valid[r] = next() % 9 != 0;
    b_valid[r] = next() % 13 != 0;
    s_valid[r] = next() % 7 != 0;
  }
  Column plain = Column::String(std::move(s), std::move(s_valid));
  Column dict = plain.DictEncode();
  return DataFrame::Make(
             {"k", "i", "f", "b", "s", "d"},
             {Column::Int64(std::move(k)),
              Column::Int64(std::move(i64), std::move(i_valid)),
              Column::Float64(std::move(f64), std::move(f_valid)),
              Column::Bool(std::move(b), std::move(b_valid)), std::move(plain),
              std::move(dict)})
      .MoveValue();
}

DataFrame RefDropDuplicates(const DataFrame& df,
                            const std::vector<std::string>& subset) {
  std::vector<const Column*> cols;
  for (const auto& name : subset) cols.push_back(df.GetColumn(name).ValueOrDie());
  std::set<std::string> seen;
  std::vector<uint8_t> keep(df.num_rows(), 0);
  for (int64_t i = 0; i < df.num_rows(); ++i) {
    keep[i] = seen.insert(RefKey(cols, i)).second ? 1 : 0;
  }
  return df.FilterRows(keep);
}

Column RefUnique(const Column& col) {
  std::set<std::string> seen;
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < col.length(); ++i) {
    if (seen.insert(RefKey({&col}, i)).second) rows.push_back(i);
  }
  return col.Take(rows);
}

DataFrame RefValueCounts(const Column& col) {
  std::map<std::string, std::pair<int64_t, int64_t>> counts;  // first, count
  for (int64_t i = 0; i < col.length(); ++i) {
    if (col.IsNull(i)) continue;
    counts.emplace(RefKey({&col}, i), std::make_pair(i, int64_t{0}))
        .first->second.second++;
  }
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (const auto& [key, v] : counts) rows.push_back(v);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<int64_t> take, cnts;
  for (const auto& [row, cnt] : rows) {
    take.push_back(row);
    cnts.push_back(cnt);
  }
  DataFrame out;
  EXPECT_TRUE(out.SetColumn("v", col.Take(take)).ok());
  EXPECT_TRUE(out.SetColumn("count", Column::Int64(std::move(cnts))).ok());
  return out;
}

/// Distinct non-null values of `col` per `key` group, keyed by the group's
/// reference key.
std::map<std::string, int64_t> RefNunique(const Column& key,
                                          const Column& col) {
  std::map<std::string, std::set<std::string>> sets;
  for (int64_t i = 0; i < key.length(); ++i) {
    std::set<std::string>& vals = sets[RefKey({&key}, i)];
    if (col.IsValid(i)) vals.insert(RefKey({&col}, i));
  }
  std::map<std::string, int64_t> out;
  for (const auto& [k, vals] : sets) {
    out[k] = static_cast<int64_t>(vals.size());
  }
  return out;
}

/// Reference spread: output rows are the distinct `index` tuples in
/// first-seen order; one column per distinct `columns` key, ordered by
/// Scalar with NaN last (first-seen among ties); every row fills the cell
/// of its own keys. No frame (an error) when two keys, or a key and the
/// index, name one output column.
std::optional<DataFrame> RefSpread(const DataFrame& df,
                                   const std::string& index,
                                   const std::string& columns,
                                   const std::string& value) {
  const Column* idx = df.GetColumn(index).ValueOrDie();
  const Column* cc = df.GetColumn(columns).ValueOrDie();
  const Column* val = df.GetColumn(value).ValueOrDie();
  std::map<std::string, int64_t> row_of, col_of;
  std::vector<int64_t> rep_row, col_rep;
  for (int64_t i = 0; i < df.num_rows(); ++i) {
    if (row_of.emplace(RefKey({idx}, i), rep_row.size()).second) {
      rep_row.push_back(i);
    }
    if (col_of.emplace(RefKey({cc}, i), col_rep.size()).second) {
      col_rep.push_back(i);
    }
  }
  std::vector<int64_t> order(col_rep.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const Scalar sa = cc->GetScalar(col_rep[a]);
    const Scalar sb = cc->GetScalar(col_rep[b]);
    const bool na = sa.is_float() && std::isnan(sa.AsDouble());
    const bool nb = sb.is_float() && std::isnan(sb.AsDouble());
    if (na || nb) return !na && nb;
    return sa < sb;
  });
  std::set<std::string> names = {index};
  for (const int64_t c : order) {
    if (!names.insert(cc->GetScalar(col_rep[c]).ToString()).second) {
      return std::nullopt;
    }
  }
  DataFrame out;
  EXPECT_TRUE(out.SetColumn(index, idx->Take(rep_row)).ok());
  for (const int64_t c : order) {
    std::vector<int64_t> cells(rep_row.size(), 0);
    std::vector<uint8_t> valid(rep_row.size(), 0);
    for (int64_t i = 0; i < df.num_rows(); ++i) {
      if (col_of[RefKey({cc}, i)] != c || val->IsNull(i)) continue;
      const int64_t r = row_of[RefKey({idx}, i)];
      cells[r] = val->int64_data()[i];
      valid[r] = 1;
    }
    EXPECT_TRUE(out.SetColumn(cc->GetScalar(col_rep[c]).ToString(),
                              Column::Int64(cells, valid))
                    .ok());
  }
  return out;
}

/// Every hashing kernel's output as bytes, run under a pool of `threads`.
/// Also checks each kernel against its AppendKeyBytes reference.
std::string DedupeKernelsBytes(const DataFrame& df, int threads) {
  ThreadPool pool(threads);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  std::string all;
  const std::vector<std::vector<std::string>> subsets = {
      {"i"}, {"f"}, {"b"}, {"s"}, {"d"}, {"f", "s"}, {"k", "i", "d"}, {}};
  for (const auto& subset : subsets) {
    auto got = DropDuplicates(df, subset);
    EXPECT_TRUE(got.ok()) << got.status();
    std::vector<std::string> ref_subset = subset;
    if (ref_subset.empty()) {
      for (int c = 0; c < df.num_columns(); ++c) {
        ref_subset.push_back(df.column_name(c));
      }
    }
    EXPECT_EQ(Bytes(*got), Bytes(RefDropDuplicates(df, ref_subset)))
        << "drop_duplicates " << ref_subset.size() << " keys";
    all += Bytes(*got);
  }
  EXPECT_EQ(Bytes(*DropDuplicates(df, {"d"})),
            Bytes(*DropDuplicates(df, {"s"})));
  for (const char* name : {"i", "f", "b", "s", "d"}) {
    const Column& col = *df.GetColumn(name).ValueOrDie();
    DataFrame got_unique, ref_unique;
    EXPECT_TRUE(got_unique.SetColumn("u", Unique(col).ValueOrDie()).ok());
    EXPECT_TRUE(ref_unique.SetColumn("u", RefUnique(col)).ok());
    EXPECT_EQ(Bytes(got_unique), Bytes(ref_unique)) << "unique " << name;
    const DataFrame counts = ValueCounts(col, "v").ValueOrDie();
    EXPECT_EQ(Bytes(counts), Bytes(RefValueCounts(col)))
        << "value_counts " << name;
    all += Bytes(got_unique) + Bytes(counts);
  }
  auto nunique = GroupByAgg(df, {"k"},
                            {{"i", AggFunc::kNunique, "i"},
                             {"f", AggFunc::kNunique, "f"},
                             {"b", AggFunc::kNunique, "b"},
                             {"s", AggFunc::kNunique, "s"},
                             {"d", AggFunc::kNunique, "d"}});
  EXPECT_TRUE(nunique.ok()) << nunique.status();
  const Column& keys = *nunique->GetColumn("k").ValueOrDie();
  for (const char* name : {"i", "f", "b", "s", "d"}) {
    const std::map<std::string, int64_t> ref = RefNunique(
        *df.GetColumn("k").ValueOrDie(), *df.GetColumn(name).ValueOrDie());
    const Column& got = *nunique->GetColumn(name).ValueOrDie();
    EXPECT_EQ(static_cast<size_t>(got.length()), ref.size());
    for (int64_t g = 0; g < got.length(); ++g) {
      EXPECT_EQ(got.int64_data()[g], ref.at(RefKey({&keys}, g)))
          << "nunique " << name << " group " << g;
    }
  }
  all += Bytes(*nunique);
  for (const char* columns : {"f", "s", "d"}) {
    const DataFrame long_table =
        GroupByAgg(df, {"k", columns}, {{"i", AggFunc::kCount, "v"}})
            .ValueOrDie();
    auto wide = SpreadToWide(long_table, {"k"}, columns, "v");
    const std::optional<DataFrame> ref =
        RefSpread(long_table, "k", columns, "v");
    if (!ref.has_value()) {
      // `f` holds two NaN payloads, which both name the column "nan".
      EXPECT_EQ(wide.status().code(), StatusCode::kInvalid)
          << "spread " << columns;
      all += wide.status().ToString();
      continue;
    }
    EXPECT_TRUE(wide.ok()) << wide.status();
    EXPECT_EQ(Bytes(*wide), Bytes(*ref)) << "spread " << columns;
    all += Bytes(*wide);
  }
  SetCurrentThreadPool(prev);
  return all;
}

TEST(KeyIndexKernelsTest, MatchKeyBytesReferenceAtOneAndFourThreads) {
  // 0 and 1 rows: edge shapes; 300: one morsel; 70000: 16 morsels.
  for (int64_t n : {0, 1, 300, 70000}) {
    const DataFrame df = DedupeFrame(n);
    const std::string one = DedupeKernelsBytes(df, 1);
    EXPECT_EQ(DedupeKernelsBytes(df, 4), one) << "n=" << n;
  }
}

// Each row of a spread fills the column of its own `columns` key: +0.0 and
// -0.0 are two columns with one row each, and a NaN column (sorted last)
// holds its row.
TEST(SpreadToWideTest, SignedZeroAndNanColumnsKeepTheirOwnRows) {
  auto df = DataFrame::Make(
                {"k", "c", "v"},
                {Column::Int64({1, 1, 1, 2}),
                 Column::Float64({std::nan(""), -0.0, 0.0, 0.0}),
                 Column::Int64({10, 20, 30, 40})})
                .MoveValue();
  auto r = SpreadToWide(df, {"k"}, "c", "v");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_columns(), 4);
  EXPECT_EQ(r->column_name(1), "-0");
  EXPECT_EQ(r->column_name(2), "0");
  EXPECT_EQ(r->column_name(3), "nan");
  const Column& neg = r->column(1);
  const Column& pos = r->column(2);
  const Column& nan = r->column(3);
  EXPECT_EQ(neg.int64_data()[0], 20);
  EXPECT_TRUE(neg.IsNull(1));
  EXPECT_EQ(pos.int64_data()[0], 30);
  EXPECT_EQ(pos.int64_data()[1], 40);
  EXPECT_EQ(nan.int64_data()[0], 10);
  EXPECT_TRUE(nan.IsNull(1));
  // Every output row is an index tuple, so there must be an index.
  EXPECT_FALSE(SpreadToWide(df, {}, "c", "v").ok());
}

// Output columns are named by their key's string form, so keys that print
// alike, or a key that prints as an index column's name, would overwrite
// each other's cells; the spread rejects them and names both claimants.
TEST(SpreadToWideTest, CollidingOutputNamesAreRejected) {
  auto nans = DataFrame::Make(
                  {"k", "c", "v"},
                  {Column::Int64({1, 1, 2}),
                   Column::Float64({std::nan("1"), std::nan("2"), 1.5}),
                   Column::Int64({10, 20, 30})})
                  .MoveValue();
  auto r = SpreadToWide(nans, {"k"}, "c", "v");
  ASSERT_EQ(r.status().code(), StatusCode::kInvalid);
  EXPECT_NE(r.status().ToString().find("7ff8000000000001"), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().ToString().find("7ff8000000000002"), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().ToString().find("'c'"), std::string::npos)
      << r.status();

  auto named = DataFrame::Make({"k", "c", "v"},
                               {Column::Int64({1, 2}),
                                Column::String({"k", "x"}),
                                Column::Int64({10, 20})})
                   .MoveValue();
  r = SpreadToWide(named, {"k"}, "c", "v");
  ASSERT_EQ(r.status().code(), StatusCode::kInvalid);
  EXPECT_NE(r.status().ToString().find("index column 'k'"), std::string::npos)
      << r.status();

  // Keys that print apart still spread.
  auto fine = DataFrame::Make({"k", "c", "v"},
                              {Column::Int64({1, 2}),
                               Column::String({"x", "y"}),
                               Column::Int64({10, 20})})
                  .MoveValue();
  EXPECT_TRUE(SpreadToWide(fine, {"k"}, "c", "v").ok());
}

TEST(IlocTest, PositiveNegativeAndOutOfBounds) {
  auto r = IlocRow(Df(), 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetColumn("s").ValueOrDie()->string_data()[0], "b");
  auto neg = IlocRow(Df(), -1);
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->GetColumn("s").ValueOrDie()->string_data()[0], "c2");
  EXPECT_EQ(IlocRow(Df(), 10).status().code(), StatusCode::kIndexError);
}

}  // namespace
}  // namespace xorbits::dataframe
