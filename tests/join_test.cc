#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataframe/join.h"

namespace xorbits::dataframe {
namespace {

DataFrame Left() {
  return DataFrame::Make({"k", "lv"},
                         {Column::Int64({1, 2, 3, 2}),
                          Column::String({"a", "b", "c", "d"})})
      .MoveValue();
}

DataFrame Right() {
  return DataFrame::Make({"k", "rv"},
                         {Column::Int64({2, 3, 4}),
                          Column::Float64({20.0, 30.0, 40.0})})
      .MoveValue();
}

TEST(JoinTest, InnerPreservesLeftOrderAndDuplicates) {
  MergeOptions opts;
  opts.on = {"k"};
  auto r = Merge(Left(), Right(), opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->num_rows(), 3);  // k=2 (row1), k=3, k=2 (row3)
  EXPECT_EQ(r->GetColumn("k").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{2, 3, 2}));
  EXPECT_EQ(r->GetColumn("lv").ValueOrDie()->string_data(),
            (std::vector<std::string>{"b", "c", "d"}));
  EXPECT_EQ(r->GetColumn("rv").ValueOrDie()->float64_data(),
            (std::vector<double>{20.0, 30.0, 20.0}));
  // Key emitted once.
  EXPECT_EQ(r->num_columns(), 3);
}

TEST(JoinTest, LeftKeepsUnmatchedWithNulls) {
  MergeOptions opts;
  opts.on = {"k"};
  opts.how = JoinType::kLeft;
  auto r = Merge(Left(), Right(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 4);
  const Column* rv = r->GetColumn("rv").ValueOrDie();
  EXPECT_TRUE(rv->IsNull(0));  // k=1 unmatched
  EXPECT_FALSE(rv->IsNull(1));
}

TEST(JoinTest, RightKeepsUnmatchedRight) {
  MergeOptions opts;
  opts.on = {"k"};
  opts.how = JoinType::kRight;
  auto r = Merge(Left(), Right(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 4);  // matches(3) + k=4 unmatched
  const Column* lv = r->GetColumn("lv").ValueOrDie();
  EXPECT_TRUE(lv->IsNull(3));
  // Coalesced key column: unmatched right row keeps its key value.
  EXPECT_EQ(r->GetColumn("k").ValueOrDie()->int64_data()[3], 4);
  EXPECT_FALSE(r->GetColumn("k").ValueOrDie()->IsNull(3));
}

TEST(JoinTest, OuterUnionOfKeys) {
  MergeOptions opts;
  opts.on = {"k"};
  opts.how = JoinType::kOuter;
  auto r = Merge(Left(), Right(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 5);  // 3 matches + k=1 + k=4
}

TEST(JoinTest, MultiKeyJoin) {
  auto l = DataFrame::Make({"a", "b", "x"},
                           {Column::Int64({1, 1, 2}),
                            Column::String({"p", "q", "p"}),
                            Column::Int64({10, 11, 12})})
               .MoveValue();
  auto rt = DataFrame::Make({"a", "b", "y"},
                            {Column::Int64({1, 2}),
                             Column::String({"q", "p"}),
                             Column::Int64({100, 200})})
                .MoveValue();
  MergeOptions opts;
  opts.on = {"a", "b"};
  auto r = Merge(l, rt, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2);
  EXPECT_EQ(r->GetColumn("y").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{100, 200}));
}

TEST(JoinTest, LeftOnRightOnKeepsBothColumns) {
  auto l = DataFrame::Make({"lk", "v"},
                           {Column::Int64({1, 2}), Column::Int64({5, 6})})
               .MoveValue();
  auto rt = DataFrame::Make({"rk", "w"},
                            {Column::Int64({2, 3}), Column::Int64({7, 8})})
                .MoveValue();
  MergeOptions opts;
  opts.left_on = {"lk"};
  opts.right_on = {"rk"};
  auto r = Merge(l, rt, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1);
  EXPECT_TRUE(r->HasColumn("lk"));
  EXPECT_TRUE(r->HasColumn("rk"));
}

TEST(JoinTest, SuffixesOnCollidingColumns) {
  auto l = DataFrame::Make({"k", "v"},
                           {Column::Int64({1}), Column::Int64({5})})
               .MoveValue();
  auto rt = DataFrame::Make({"k", "v"},
                            {Column::Int64({1}), Column::Int64({7})})
                .MoveValue();
  MergeOptions opts;
  opts.on = {"k"};
  auto r = Merge(l, rt, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->HasColumn("v_x"));
  EXPECT_TRUE(r->HasColumn("v_y"));
  EXPECT_EQ(r->GetColumn("v_x").ValueOrDie()->int64_data()[0], 5);
  EXPECT_EQ(r->GetColumn("v_y").ValueOrDie()->int64_data()[0], 7);
}

TEST(JoinTest, NullKeysNeverMatch) {
  auto l = DataFrame::Make({"k", "v"},
                           {Column::Int64({1, 2}, {0, 1}),
                            Column::Int64({5, 6})})
               .MoveValue();
  auto rt = DataFrame::Make({"k", "w"},
                            {Column::Int64({1, 2}, {0, 1}),
                             Column::Int64({7, 8})})
                .MoveValue();
  MergeOptions opts;
  opts.on = {"k"};
  auto r = Merge(l, rt, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1);  // only k=2 matches
  EXPECT_EQ(r->GetColumn("w").ValueOrDie()->int64_data()[0], 8);
}

TEST(JoinTest, SortedOutput) {
  MergeOptions opts;
  opts.on = {"k"};
  opts.sort = true;
  auto r = Merge(Left(), Right(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetColumn("k").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{2, 2, 3}));
}

TEST(JoinTest, BadOptionsFail) {
  MergeOptions opts;  // no keys at all
  EXPECT_FALSE(Merge(Left(), Right(), opts).ok());
  MergeOptions opts2;
  opts2.on = {"missing"};
  EXPECT_EQ(Merge(Left(), Right(), opts2).status().code(),
            StatusCode::kKeyError);
}

TEST(JoinTest, JoinTypeNamesRoundTrip) {
  for (JoinType t : {JoinType::kInner, JoinType::kLeft, JoinType::kRight,
                     JoinType::kOuter}) {
    EXPECT_EQ(*JoinTypeFromName(JoinTypeName(t)), t);
  }
  EXPECT_FALSE(JoinTypeFromName("cross").ok());
}

TEST(JoinTest, SkewedManyToOne) {
  // One hot key on the left joining a small right table — the UC10 shape.
  std::vector<int64_t> keys(1000, 7);
  keys[0] = 1;
  auto l = DataFrame::Make({"k"}, {Column::Int64(keys)}).MoveValue();
  auto rt = DataFrame::Make({"k", "w"},
                            {Column::Int64({7, 1}), Column::Int64({70, 10})})
                .MoveValue();
  MergeOptions opts;
  opts.on = {"k"};
  auto r = Merge(l, rt, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1000);
  EXPECT_EQ(r->GetColumn("w").ValueOrDie()->int64_data()[0], 10);
  EXPECT_EQ(r->GetColumn("w").ValueOrDie()->int64_data()[999], 70);
}


TEST(JoinTest, KeysZeroAndMinusOneSpanEveryTag) {
  // As unsigned tags, 0 and -1 are the two ends of the 64-bit range; the
  // direct-address map must not take their span for a compact one.
  auto l = DataFrame::Make({"k"}, {Column::Int64({-1, 0, 5})}).MoveValue();
  auto rt = DataFrame::Make({"k", "w"},
                            {Column::Int64({0, -1}), Column::Int64({1, 2})})
                .MoveValue();
  MergeOptions opts;
  opts.on = {"k"};
  auto r = Merge(l, rt, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->GetColumn("w").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{2, 1}));
}

// --- BuildJoinTable / ProbeJoin ---

/// Every cell as AppendKeyBytes (nulls included), plus names and row count:
/// equal dumps are equal frames.
std::string Dump(const DataFrame& df) {
  std::string out = std::to_string(df.num_rows()) + "|";
  for (int c = 0; c < df.num_columns(); ++c) {
    out += df.column_name(c) + ":";
    const Column& col = df.column(c);
    for (int64_t i = 0; i < col.length(); ++i) col.AppendKeyBytes(i, &out);
    out += "|";
  }
  return out;
}

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

/// Reference join over AppendKeyBytes keys: left rows ascending, each
/// with its matches in ascending right order (a key tuple with a null never matches), then the
/// unmatched right rows for right/outer joins. -1 marks the missing side.
Pairs ReferencePairs(const DataFrame& left,
                     const std::vector<std::string>& lkeys,
                     const DataFrame& right,
                     const std::vector<std::string>& rkeys, JoinType how) {
  auto key = [](const DataFrame& df, const std::vector<std::string>& keys,
                int64_t row, std::string* out) {
    for (const auto& k : keys) {
      const Column* c = df.GetColumn(k).ValueOrDie();
      if (c->IsNull(row)) return false;
      c->AppendKeyBytes(row, out);
    }
    return true;
  };
  const bool keep_left = how == JoinType::kLeft || how == JoinType::kOuter;
  const bool keep_right = how == JoinType::kRight || how == JoinType::kOuter;
  std::map<std::string, std::vector<int64_t>> rows_of;  // ascending rows
  for (int64_t r = 0; r < right.num_rows(); ++r) {
    std::string rk;
    if (key(right, rkeys, r, &rk)) rows_of[rk].push_back(r);
  }
  std::vector<uint8_t> matched(right.num_rows(), 0);
  Pairs out;
  for (int64_t i = 0; i < left.num_rows(); ++i) {
    std::string lk;
    auto it = key(left, lkeys, i, &lk) ? rows_of.find(lk) : rows_of.end();
    if (it == rows_of.end()) {
      if (keep_left) out.emplace_back(i, -1);
      continue;
    }
    for (int64_t r : it->second) {
      out.emplace_back(i, r);
      matched[r] = 1;
    }
  }
  for (int64_t r = 0; keep_right && r < right.num_rows(); ++r) {
    if (!matched[r]) out.emplace_back(-1, r);
  }
  return out;
}

/// (lid, rid) pairs read back from a join output's row-id columns.
Pairs OutputPairs(const DataFrame& out) {
  const Column* l = out.GetColumn("lid").ValueOrDie();
  const Column* r = out.GetColumn("rid").ValueOrDie();
  Pairs pairs;
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    pairs.emplace_back(l->IsNull(i) ? -1 : l->int64_data()[i],
                       r->IsNull(i) ? -1 : r->int64_data()[i]);
  }
  return pairs;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(n);
  for (int64_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// Deterministic pseudo-random stream.
struct Lcg {
  uint64_t x;
  uint64_t Next() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 17;
  }
};

struct JoinCase {
  std::string name;
  DataFrame left, right;
  std::vector<std::string> lkeys, rkeys;
  JoinKeyMode chosen;               // what ChooseJoinKeyMode must pick
  std::vector<JoinKeyMode> modes;   // every mode the keys can be built in
};

/// int64 keys drawn from `domain` values spread by `stride`; rows with
/// `null_every` > 0 get a null key every that many rows.
Column IntKeys(int64_t n, int64_t domain, int64_t stride, uint64_t seed,
               int64_t null_every = 0) {
  Lcg g{seed};
  std::vector<int64_t> v(n);
  std::vector<uint8_t> valid;
  if (null_every > 0) valid.assign(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = (static_cast<int64_t>(g.Next() % domain) - domain / 3) * stride;
    if (null_every > 0 && i % null_every == 0) valid[i] = 0;
  }
  return Column::Int64(std::move(v), std::move(valid));
}

std::vector<JoinCase> JoinCases() {
  std::vector<JoinCase> cases;
  auto frame = [](int64_t n, std::vector<std::string> names,
                  std::vector<Column> cols, const char* id) {
    names.push_back(id);
    cols.push_back(Column::Int64(Iota(n)));
    return DataFrame::Make(std::move(names), std::move(cols)).MoveValue();
  };
  // Compact int64 keys: the direct-address map.
  cases.push_back({"int_compact",
                   frame(3000, {"k"}, {IntKeys(3000, 900, 1, 1)}, "lid"),
                   frame(1200, {"k"}, {IntKeys(1200, 700, 1, 2)}, "rid"),
                   {"k"}, {"k"}, JoinKeyMode::kExactInt64,
                   {JoinKeyMode::kExactInt64, JoinKeyMode::kHash}});
  // Wide mixed-sign int64 keys over a build side past one partition.
  cases.push_back(
      {"int_radix",
       frame(20000, {"k"}, {IntKeys(20000, 30000, int64_t{1} << 40, 3)},
             "lid"),
       frame(40000, {"k"}, {IntKeys(40000, 30000, int64_t{1} << 40, 4)},
             "rid"),
       {"k"}, {"k"}, JoinKeyMode::kExactInt64,
       {JoinKeyMode::kExactInt64, JoinKeyMode::kHash}});
  // Codes over one shared dictionary, single table and radix partitioned.
  for (int64_t rn : {int64_t{800}, int64_t{30000}}) {
    std::vector<std::string> values;
    for (int v = 0; v < 600; ++v) values.push_back("s" + std::to_string(v));
    const Column base = Column::String(values).DictEncode();
    Lcg g{static_cast<uint64_t>(rn)};
    std::vector<int64_t> lrows(2500), rrows(rn);
    for (auto& x : lrows) x = static_cast<int64_t>(g.Next() % 600);
    for (auto& x : rrows) x = static_cast<int64_t>(g.Next() % 500);
    cases.push_back({"dict_shared_" + std::to_string(rn),
                     frame(2500, {"k"}, {base.Take(lrows)}, "lid"),
                     frame(rn, {"k"}, {base.Take(rrows)}, "rid"),
                     {"k"}, {"k"}, JoinKeyMode::kDictCodes,
                     {JoinKeyMode::kDictCodes, JoinKeyMode::kHash}});
  }
  // Two dictionaries over different value sets: values still match.
  {
    std::vector<std::string> lv(2000), rv(900);
    for (size_t i = 0; i < lv.size(); ++i) {
      lv[i] = "v" + std::to_string(i % 300);
    }
    for (size_t i = 0; i < rv.size(); ++i) {
      rv[i] = "v" + std::to_string((i * 7) % 450);
    }
    cases.push_back({"dict_mismatched",
                     frame(2000, {"lk"}, {Column::String(lv).DictEncode()},
                           "lid"),
                     frame(900, {"rk"}, {Column::String(rv).DictEncode()},
                           "rid"),
                     {"lk"}, {"rk"}, JoinKeyMode::kHash,
                     {JoinKeyMode::kHash}});
  }
  // Multi-key with nullable int64 and plain strings, both partition shapes.
  for (int64_t rn : {int64_t{600}, int64_t{20000}}) {
    Lcg g{static_cast<uint64_t>(rn) + 7};
    std::vector<std::string> ls(3000), rs(rn);
    for (auto& x : ls) x = "t" + std::to_string(g.Next() % 4);
    for (auto& x : rs) x = "t" + std::to_string(g.Next() % 5);
    cases.push_back(
        {"multi_nullable_" + std::to_string(rn),
         frame(3000, {"a", "b"},
               {IntKeys(3000, 400, 1, 5, 11), Column::String(ls)}, "lid"),
         frame(rn, {"a", "b"}, {IntKeys(rn, 400, 1, 6, 13), Column::String(rs)},
               "rid"),
         {"a", "b"}, {"a", "b"}, JoinKeyMode::kHash, {JoinKeyMode::kHash}});
  }
  return cases;
}

MergeOptions OptionsFor(const JoinCase& c, JoinType how) {
  MergeOptions opts;
  if (c.lkeys == c.rkeys) {
    opts.on = c.lkeys;
  } else {
    opts.left_on = c.lkeys;
    opts.right_on = c.rkeys;
  }
  opts.how = how;
  return opts;
}

TEST(JoinTableTest, ProbeOfEveryModeEqualsMergeAndReference) {
  for (const JoinCase& c : JoinCases()) {
    EXPECT_EQ(*ChooseJoinKeyMode(c.left, c.lkeys, c.right, c.rkeys), c.chosen)
        << c.name;
    for (JoinType how : {JoinType::kInner, JoinType::kLeft, JoinType::kRight,
                         JoinType::kOuter}) {
      const MergeOptions opts = OptionsFor(c, how);
      auto merged = Merge(c.left, c.right, opts);
      ASSERT_TRUE(merged.ok()) << c.name << ": " << merged.status();
      const Pairs want = ReferencePairs(c.left, c.lkeys, c.right, c.rkeys, how);
      ASSERT_EQ(OutputPairs(*merged), want)
          << c.name << " " << JoinTypeName(how);
      for (JoinKeyMode mode : c.modes) {
        auto table = BuildJoinTable(c.right, c.rkeys, mode);
        ASSERT_TRUE(table.ok()) << c.name << ": " << table.status();
        auto probed = ProbeJoin(c.left, c.lkeys, **table, opts);
        ASSERT_TRUE(probed.ok()) << c.name << ": " << probed.status();
        EXPECT_EQ(Dump(*probed), Dump(*merged))
            << c.name << " " << JoinTypeName(how) << " mode "
            << static_cast<int>(mode);
      }
    }
  }
}

TEST(JoinTableTest, KeysThatDoNotFitTheModeFail) {
  for (const JoinCase& c : JoinCases()) {
    if (c.name != "dict_mismatched" && c.name != "multi_nullable_600") {
      continue;
    }
    // Neither case has a single never-null int64 key.
    EXPECT_FALSE(
        BuildJoinTable(c.right, c.rkeys, JoinKeyMode::kExactInt64).ok());
    if (c.name == "dict_mismatched") {
      // The right side alone fits code mode, but the left's codes index
      // another dictionary.
      auto table = BuildJoinTable(c.right, c.rkeys, JoinKeyMode::kDictCodes);
      ASSERT_TRUE(table.ok()) << table.status();
      auto probed = ProbeJoin(c.left, c.lkeys, **table,
                              OptionsFor(c, JoinType::kInner));
      EXPECT_EQ(probed.status().code(), StatusCode::kInvalid);
    }
  }
  auto table = BuildJoinTable(Right(), {"k"}, JoinKeyMode::kHash);
  ASSERT_TRUE(table.ok());
  MergeOptions opts;
  opts.on = {"k"};
  EXPECT_FALSE(ProbeJoin(Left(), {"k", "lv"}, **table, opts).ok());
  EXPECT_EQ(BuildJoinTable(Right(), {"missing"}, JoinKeyMode::kHash)
                .status()
                .code(),
            StatusCode::kKeyError);
}

TEST(JoinTableTest, ConcurrentProbesOfOneTableEqualSerialProbes) {
  for (const JoinCase& c : JoinCases()) {
    const MergeOptions opts = OptionsFor(c, JoinType::kLeft);
    auto table = BuildJoinTable(c.right, c.rkeys, c.chosen);
    ASSERT_TRUE(table.ok()) << table.status();
    // Eight probe chunks, each a slice of the left side.
    constexpr int kThreads = 8;
    std::vector<DataFrame> chunks;
    const int64_t n = c.left.num_rows();
    for (int t = 0; t < kThreads; ++t) {
      const int64_t lo = n * t / kThreads, hi = n * (t + 1) / kThreads;
      chunks.push_back(c.left.SliceRows(lo, hi - lo));
    }
    std::vector<std::string> serial(kThreads), parallel(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      serial[t] =
          Dump(ProbeJoin(chunks[t], c.lkeys, **table, opts).ValueOrDie());
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto r = ProbeJoin(chunks[t], c.lkeys, **table, opts);
        parallel[t] = r.ok() ? Dump(*r) : r.status().ToString();
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(parallel[t], serial[t]) << c.name << " chunk " << t;
    }
  }
}

}  // namespace
}  // namespace xorbits::dataframe
