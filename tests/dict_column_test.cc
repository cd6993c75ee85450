// Dictionary-encoded string columns: encode/decode round trips, serialize
// and xparquet round trips that preserve the dictionary (and its sharing),
// CoW isolation of shared dictionaries, the nbytes cache, and — the load-
// bearing property — byte-identical groupby/join/filter results at every
// thread count with encoding on or off.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dataframe/compute.h"
#include "dataframe/groupby.h"
#include "dataframe/join.h"
#include "dataframe/kernels.h"
#include "io/serialize.h"
#include "io/xparquet.h"
#include "test_util.h"

namespace xorbits::dataframe {
namespace {

using test_util::Fingerprint;

Column SampleStrings() {
  return Column::String({"ca", "ab", "ca", "bd", "ab", "ca"},
                        {1, 1, 0, 1, 1, 1});
}

TEST(DictColumnTest, EncodeDecodeRoundTrip) {
  Column plain = SampleStrings();
  Column dict = plain.DictEncode();
  ASSERT_TRUE(dict.is_dict());
  EXPECT_EQ(dict.dtype(), DType::kString);
  EXPECT_EQ(dict.length(), plain.length());
  // First-seen order, deduplicated: ca, ab, bd (row 2 is null).
  EXPECT_EQ(dict.dict()->size(), 3);
  EXPECT_EQ(dict.dict()->value(0), "ca");
  EXPECT_EQ(dict.dict()->value(1), "ab");
  EXPECT_EQ(dict.dict()->value(2), "bd");
  for (int64_t i = 0; i < plain.length(); ++i) {
    ASSERT_EQ(dict.IsNull(i), plain.IsNull(i));
    if (!plain.IsNull(i)) EXPECT_EQ(dict.string_at(i), plain.string_at(i));
  }
  Column back = dict.DictDecode();
  ASSERT_FALSE(back.is_dict());
  for (int64_t i = 0; i < plain.length(); ++i) {
    EXPECT_EQ(back.GetScalar(i), plain.GetScalar(i)) << "row " << i;
  }
}

TEST(DictColumnTest, KeyBytesIdenticalAcrossEncodings) {
  Column plain = SampleStrings();
  Column dict = plain.DictEncode();
  for (int64_t i = 0; i < plain.length(); ++i) {
    std::string a, b;
    plain.AppendKeyBytes(i, &a);
    dict.AppendKeyBytes(i, &b);
    EXPECT_EQ(a, b) << "row " << i;
  }
}

TEST(DictColumnTest, TakeFilterSliceStayEncoded) {
  Column dict = SampleStrings().DictEncode();
  Column t = dict.Take({5, 0, 3});
  ASSERT_TRUE(t.is_dict());
  EXPECT_TRUE(t.dict()->SameAs(*dict.dict()));
  EXPECT_EQ(t.string_at(0), "ca");
  EXPECT_EQ(t.string_at(2), "bd");
  Column f = dict.Filter({1, 1, 0, 0, 0, 1});
  ASSERT_TRUE(f.is_dict());
  EXPECT_EQ(f.length(), 3);
  EXPECT_EQ(f.string_at(1), "ab");
  Column s = dict.Slice(3, 2);
  ASSERT_TRUE(s.is_dict());
  EXPECT_EQ(s.string_at(0), "bd");
}

TEST(DictColumnTest, ConcatSharedDictKeepsDict) {
  Column dict = SampleStrings().DictEncode();
  Column a = dict.Slice(0, 3);
  Column b = dict.Slice(3, 3);
  auto r = Column::Concat({&a, &b});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->is_dict());
  EXPECT_TRUE(r->dict()->SameAs(*dict.dict()));
  const Column orig = SampleStrings();
  for (int64_t i = 0; i < orig.length(); ++i) {
    EXPECT_EQ(r->GetScalar(i), orig.GetScalar(i)) << "row " << i;
  }
}

TEST(DictColumnTest, ConcatDifferentDictsUnifies) {
  Column a = Column::String({"x", "y", "x"}).DictEncode();
  Column b = Column::String({"y", "z"}).DictEncode();
  auto r = Column::Concat({&a, &b});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->is_dict());
  // Unified in first-seen order across pieces, deduplicated.
  EXPECT_EQ(r->dict()->size(), 3);
  EXPECT_EQ(r->string_at(3), "y");
  EXPECT_EQ(r->string_at(4), "z");
}

TEST(DictColumnTest, CowIsolationOfSharedDictCodes) {
  Column a = SampleStrings().DictEncode();
  Column b = a;  // shares codes buffer and dictionary
  b.mutable_dict_codes()[0] = 2;
  EXPECT_EQ(b.string_at(0), "bd");
  EXPECT_EQ(a.string_at(0), "ca");  // a untouched (copy-on-write)
  // The dictionary itself is still physically shared.
  EXPECT_TRUE(a.dict()->SameAs(*b.dict()));
}

TEST(DictColumnTest, NbytesCachedAndInvalidated) {
  Column c = SampleStrings();
  const int64_t before = c.nbytes();
  EXPECT_EQ(c.nbytes(), before);  // cached second call agrees
  c.mutable_string_data()[0] = std::string(1000, 'x');
  const int64_t after = c.nbytes();
  EXPECT_GT(after, before);  // mutation invalidated the cache
  Column copy = c;
  EXPECT_EQ(copy.nbytes(), after);
  // Dict columns count codes + dictionary once.
  Column dict = SampleStrings().DictEncode();
  EXPECT_GT(dict.nbytes(), 0);
  EXPECT_EQ(dict.nbytes(), dict.nbytes());
}

TEST(DictColumnTest, SerializeRoundTripPreservesDictionarySharing) {
  Column dict = SampleStrings().DictEncode();
  DataFrame df;
  ASSERT_TRUE(df.SetColumn("s1", dict).ok());
  ASSERT_TRUE(df.SetColumn("s2", dict.Take({1, 1, 0, 2, 4, 5})).ok());
  auto blob = io::SerializeDataFrame(df);
  ASSERT_TRUE(blob.ok()) << blob.status();
  auto back = io::DeserializeDataFrame(*blob);
  ASSERT_TRUE(back.ok()) << back.status();
  const Column& c1 = back->column(0);
  const Column& c2 = back->column(1);
  ASSERT_TRUE(c1.is_dict());
  ASSERT_TRUE(c2.is_dict());
  // Same StringDict object after the round trip, not merely equal values.
  EXPECT_EQ(c1.dict().get(), c2.dict().get());
  EXPECT_EQ(Fingerprint(*back), Fingerprint(df));
  // Round-tripping the serialized bytes again is stable.
  auto blob2 = io::SerializeDataFrame(*back);
  ASSERT_TRUE(blob2.ok());
  EXPECT_EQ(*blob, *blob2);
}

TEST(DictColumnTest, XparquetDictPageRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dict_page.xpq").string();
  DataFrame df;
  ASSERT_TRUE(df.SetColumn("s", SampleStrings().DictEncode()).ok());
  ASSERT_TRUE(df.SetColumn("v", Column::Int64({1, 2, 3, 4, 5, 6})).ok());
  ASSERT_TRUE(io::WriteXpq(path, df).ok());

  // dict_encode=true loads the dict page directly (no re-dedup).
  auto enc = io::ReadXpq(path, {}, 0, -1, nullptr, /*dict_encode=*/true);
  ASSERT_TRUE(enc.ok()) << enc.status();
  ASSERT_TRUE(enc->column(0).is_dict());
  EXPECT_EQ(enc->column(0).dict()->size(), 3);
  EXPECT_EQ(Fingerprint(*enc), Fingerprint(df));

  // dict_encode=false decodes to plain strings; values identical.
  auto plain = io::ReadXpq(path, {}, 0, -1, nullptr, /*dict_encode=*/false);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_FALSE(plain->column(0).is_dict());
  EXPECT_EQ(Fingerprint(*plain), Fingerprint(df));

  // The writer, not the in-memory encoding, picks the pages: repeated
  // values held as plain strings are stored as dictionary pages and read
  // back as codes.
  DataFrame df2;
  ASSERT_TRUE(df2.SetColumn("s", SampleStrings()).ok());
  ASSERT_TRUE(io::WriteXpq(path, df2).ok());
  auto enc2 = io::ReadXpq(path, {}, 0, -1, nullptr, /*dict_encode=*/true);
  ASSERT_TRUE(enc2.ok()) << enc2.status();
  EXPECT_TRUE(enc2->column(0).is_dict());
  EXPECT_EQ(Fingerprint(*enc2), Fingerprint(df2));

  // All-distinct values are stored as plain pages and read back plain,
  // even when asked for codes.
  DataFrame df3;
  ASSERT_TRUE(df3.SetColumn("s", Column::String({"ca", "ab", "x", "bd"},
                                                {1, 1, 0, 1})
                                     .DictEncode())
                  .ok());
  ASSERT_TRUE(io::WriteXpq(path, df3).ok());
  auto plain3 = io::ReadXpq(path, {}, 0, -1, nullptr, /*dict_encode=*/true);
  ASSERT_TRUE(plain3.ok()) << plain3.status();
  EXPECT_FALSE(plain3->column(0).is_dict());
  EXPECT_EQ(Fingerprint(*plain3), Fingerprint(df3));
  std::filesystem::remove(path);
}

TEST(DictColumnTest, StrKernelsMatchPlainAcrossEncodings) {
  Column plain = SampleStrings();
  Column dict = plain.DictEncode();
  struct Case {
    const char* name;
    Result<Column> p, d;
  };
  std::vector<Case> cases;
  cases.push_back({"contains", StrContains(plain, "a"),
                   StrContains(dict, "a")});
  cases.push_back({"starts", StrStartsWith(plain, "c"),
                   StrStartsWith(dict, "c")});
  cases.push_back({"ends", StrEndsWith(plain, "b"), StrEndsWith(dict, "b")});
  cases.push_back({"len", StrLen(plain), StrLen(dict)});
  cases.push_back({"upper", StrUpper(plain), StrUpper(dict)});
  cases.push_back({"slice", StrSlice(plain, 0, 1), StrSlice(dict, 0, 1)});
  for (auto& c : cases) {
    ASSERT_TRUE(c.p.ok() && c.d.ok()) << c.name;
    ASSERT_EQ(c.p->length(), c.d->length()) << c.name;
    for (int64_t i = 0; i < c.p->length(); ++i) {
      EXPECT_EQ(c.p->GetScalar(i), c.d->GetScalar(i))
          << c.name << " row " << i;
    }
  }
  // Mapping kernels keep the dictionary encoding.
  EXPECT_TRUE(StrUpper(dict)->is_dict());
  EXPECT_TRUE(StrSlice(dict, 0, 1)->is_dict());
}

TEST(DictColumnTest, FillNaStaysEncoded) {
  DataFrame df;
  ASSERT_TRUE(df.SetColumn("s", SampleStrings().DictEncode()).ok());
  auto filled = FillNa(df, "s", Scalar::Str("zz"));
  ASSERT_TRUE(filled.ok()) << filled.status();
  const Column& c = filled->column(0);
  ASSERT_TRUE(c.is_dict());
  EXPECT_EQ(c.null_count(), 0);
  EXPECT_EQ(c.string_at(2), "zz");
  // Filling with an existing value reuses its code (no dictionary growth).
  auto filled2 = FillNa(df, "s", Scalar::Str("ab"));
  ASSERT_TRUE(filled2.ok());
  EXPECT_EQ(filled2->column(0).dict()->size(), 3);
  EXPECT_EQ(filled2->column(0).string_at(2), "ab");
}

/// One dataset, two encodings, four thread counts: every keyed kernel must
/// produce byte-identical tables everywhere.
class DictDeterminismTest : public ::testing::TestWithParam<int> {};

DataFrame KeyedFrame(bool encoded) {
  const int64_t n = 4000;
  std::vector<std::string> keys(n);
  std::vector<int64_t> vals(n);
  std::vector<uint8_t> valid(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    keys[i] = "key_" + std::to_string((i * 2654435761ULL) % 37);
    vals[i] = static_cast<int64_t>((i * 40503ULL) % 1000);
    if (i % 97 == 0) valid[i] = 0;
  }
  Column k = Column::String(std::move(keys), std::move(valid));
  if (encoded) k = k.DictEncode();
  DataFrame df;
  EXPECT_TRUE(df.SetColumn("k", std::move(k)).ok());
  EXPECT_TRUE(df.SetColumn("v", Column::Int64(std::move(vals))).ok());
  return df;
}

TEST_P(DictDeterminismTest, KernelChecksumsInvariant) {
  ThreadPool pool(GetParam());
  ThreadPool* prev = SetCurrentThreadPool(GetParam() > 1 ? &pool : nullptr);

  std::string gb_fp[2], join_fp[2], filter_fp[2];
  for (int enc = 0; enc < 2; ++enc) {
    DataFrame df = KeyedFrame(enc == 1);
    auto gb = GroupByAgg(df, {"k"},
                         {{"v", AggFunc::kSum, "s"},
                          {"v", AggFunc::kMean, "m"},
                          {"v", AggFunc::kNunique, "u"}});
    ASSERT_TRUE(gb.ok()) << gb.status();
    gb_fp[enc] = Fingerprint(*gb);

    DataFrame right = KeyedFrame(enc == 0);  // cross-encoding join too
    MergeOptions opts;
    opts.on = {"k"};
    opts.how = JoinType::kLeft;
    auto joined = Merge(df.SliceRows(0, 1500), right.SliceRows(0, 800), opts);
    ASSERT_TRUE(joined.ok()) << joined.status();
    join_fp[enc] = Fingerprint(*joined);

    auto mask = StrContains(*df.GetColumn("k").ValueOrDie(), "1");
    ASSERT_TRUE(mask.ok());
    auto filtered = Filter(df, *mask);
    ASSERT_TRUE(filtered.ok());
    filter_fp[enc] = Fingerprint(*filtered);
  }
  // Encoding must be invisible in the results.
  EXPECT_EQ(gb_fp[0], gb_fp[1]);
  EXPECT_EQ(join_fp[0], join_fp[1]);
  EXPECT_EQ(filter_fp[0], filter_fp[1]);

  // And invariant across thread counts (compare against serial reference).
  SetCurrentThreadPool(nullptr);
  DataFrame df = KeyedFrame(true);
  auto gb = GroupByAgg(df, {"k"},
                       {{"v", AggFunc::kSum, "s"},
                        {"v", AggFunc::kMean, "m"},
                        {"v", AggFunc::kNunique, "u"}});
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(Fingerprint(*gb), gb_fp[1]);
  SetCurrentThreadPool(prev);
}

INSTANTIATE_TEST_SUITE_P(Threads, DictDeterminismTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(DictColumnTest, FallbackCounterTicks) {
  Metrics metrics;
  MetricsScope scope(&metrics);
  Column dict = SampleStrings().DictEncode();
  (void)dict.DecodedFallback();
  EXPECT_GT(metrics.Get(CounterId::kDictFallbackDecodes), 0);
}

}  // namespace
}  // namespace xorbits::dataframe
