#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/session.h"
#include "core/xorbits.h"
#include "dataframe/compute.h"
#include "dataframe/kernels.h"
#include "io/csv.h"
#include "io/serialize.h"
#include "io/tpch_gen.h"
#include "io/xparquet.h"
#include "services/chunk_data.h"
#include "workloads/tpch_queries.h"

namespace xorbits::io {
namespace {

using dataframe::Column;
using dataframe::DataFrame;
using dataframe::DType;
using dataframe::Scalar;

std::string TmpPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

DataFrame MixedDf() {
  auto df = DataFrame::Make(
                {"i", "f", "s", "b"},
                {Column::Int64({1, 2, 3}, {1, 0, 1}),
                 Column::Float64({1.5, 2.5, 3.5}),
                 Column::String({"ab", "", "xyz"}),
                 Column::Bool({1, 0, 1}, {1, 1, 0})})
                .MoveValue();
  df.set_index(dataframe::Index::Labels({10, 20, 30}));
  return df;
}

void ExpectFramesEqual(const DataFrame& a, const DataFrame& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column_name(c), b.column_name(c));
    EXPECT_EQ(a.column(c).dtype(), b.column(c).dtype());
    for (int64_t i = 0; i < a.num_rows(); ++i) {
      EXPECT_EQ(a.column(c).GetScalar(i), b.column(c).GetScalar(i))
          << "col " << c << " row " << i;
    }
  }
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.index().Label(i), b.index().Label(i));
  }
}

TEST(SerializeTest, DataFrameRoundTrip) {
  DataFrame df = MixedDf();
  auto buf = SerializeDataFrame(df);
  ASSERT_TRUE(buf.ok());
  auto back = DeserializeDataFrame(*buf);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectFramesEqual(df, *back);
}

TEST(SerializeTest, EmptyDataFrame) {
  auto df = DataFrame::Make({"x"}, {Column::Int64({})}).MoveValue();
  auto buf = SerializeDataFrame(df);
  ASSERT_TRUE(buf.ok());
  auto back = DeserializeDataFrame(*buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0);
}

TEST(SerializeTest, NDArrayRoundTrip) {
  Rng rng(1);
  tensor::NDArray a = tensor::NDArray::RandomNormal({7, 3}, rng);
  auto buf = SerializeNDArray(a);
  ASSERT_TRUE(buf.ok());
  auto back = DeserializeNDArray(*buf);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(*tensor::MaxAbsDiff(a, *back), 0.0);
}

TEST(SerializeTest, GarbageFails) {
  EXPECT_FALSE(DeserializeDataFrame("not a frame").ok());
  EXPECT_FALSE(DeserializeNDArray("junk").ok());
}

TEST(CsvTest, RoundTripAndInference) {
  DataFrame df = MixedDf();
  std::string path = TmpPath("xorbits_csv_test.csv");
  ASSERT_TRUE(WriteCsv(path, df).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 3);
  EXPECT_EQ(back->GetColumn("i").ValueOrDie()->dtype(), DType::kInt64);
  EXPECT_EQ(back->GetColumn("f").ValueOrDie()->dtype(), DType::kFloat64);
  EXPECT_EQ(back->GetColumn("s").ValueOrDie()->dtype(), DType::kString);
  EXPECT_TRUE(back->GetColumn("i").ValueOrDie()->IsNull(1));
  std::remove(path.c_str());
}

TEST(CsvTest, ParseDatesMaxRowsSkipRows) {
  std::string path = TmpPath("xorbits_csv_dates.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("d,v\n1994-01-01,1\n1994-06-15,2\n1995-01-01,3\n", f);
    fclose(f);
  }
  CsvOptions opts;
  opts.parse_dates = {"d"};
  auto df = ReadCsv(path, opts);
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->GetColumn("d").ValueOrDie()->dtype(), DType::kInt64);
  EXPECT_EQ(df->GetColumn("d").ValueOrDie()->int64_data()[0],
            *dataframe::ParseDate("1994-01-01"));
  opts.max_rows = 2;
  EXPECT_EQ(ReadCsv(path, opts)->num_rows(), 2);
  opts.max_rows = -1;
  opts.skip_rows = 2;
  auto tail = ReadCsv(path, opts);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->num_rows(), 1);
  EXPECT_EQ(tail->GetColumn("v").ValueOrDie()->int64_data()[0], 3);
  EXPECT_EQ(*CountCsvRows(path), 3);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_EQ(ReadCsv("/nonexistent/nope.csv").status().code(),
            StatusCode::kIOError);
}

TEST(XpqTest, RoundTrip) {
  DataFrame df = MixedDf();
  std::string path = TmpPath("xorbits_test.xpq");
  ASSERT_TRUE(WriteXpq(path, df).ok());
  auto back = ReadXpq(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), 3);
  for (int c = 0; c < df.num_columns(); ++c) {
    for (int64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(back->column(c).GetScalar(i), df.column(c).GetScalar(i));
    }
  }
  std::remove(path.c_str());
}

TEST(XpqTest, FooterMetadataOnly) {
  DataFrame df = MixedDf();
  std::string path = TmpPath("xorbits_meta.xpq");
  ASSERT_TRUE(WriteXpq(path, df).ok());
  auto info = ReadXpqInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_rows, 3);
  EXPECT_EQ(info->columns.size(), 4u);
  EXPECT_TRUE(info->HasColumn("s"));
  EXPECT_FALSE(info->HasColumn("zzz"));
  EXPECT_EQ(info->columns[0].dtype, DType::kInt64);
  std::remove(path.c_str());
}

TEST(XpqTest, ColumnPruningReadsSubset) {
  DataFrame df = MixedDf();
  std::string path = TmpPath("xorbits_prune.xpq");
  ASSERT_TRUE(WriteXpq(path, df).ok());
  auto back = ReadXpq(path, {"f", "i"});
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_columns(), 2);
  EXPECT_EQ(back->column_name(0), "f");
  EXPECT_FALSE(ReadXpq(path, {"missing"}).ok());
  std::remove(path.c_str());
}

TEST(XpqTest, RowRangeRead) {
  std::vector<int64_t> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto df = DataFrame::Make({"v"}, {Column::Int64(v)}).MoveValue();
  std::string path = TmpPath("xorbits_rows.xpq");
  ASSERT_TRUE(WriteXpq(path, df).ok());
  auto back = ReadXpq(path, {}, 40, 10);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 10);
  EXPECT_EQ(back->GetColumn("v").ValueOrDie()->int64_data()[0], 40);
  EXPECT_EQ(back->index().Label(0), 40);
  // Tail clamp.
  auto tail = ReadXpq(path, {}, 95, 100);
  EXPECT_EQ(tail->num_rows(), 5);
  std::remove(path.c_str());
}

// --- row groups ----------------------------------------------------------

/// `n` rows over every physical encoding, each nullable column with nulls
/// scattered across groups: int, float, bool, plain strings, dictionary
/// strings, and all-distinct strings that are dictionary-encoded in memory
/// but written as plain pages.
DataFrame RowGroupFrame(int64_t n) {
  std::vector<int64_t> ints(n);
  std::vector<double> floats(n);
  std::vector<uint8_t> bools(n), valid(n);
  std::vector<std::string> plain(n), dict(n), unique(n);
  for (int64_t i = 0; i < n; ++i) {
    ints[i] = i * 3 - 7;
    floats[i] = static_cast<double>(i) / 4;
    bools[i] = static_cast<uint8_t>(i % 3 == 0);
    valid[i] = static_cast<uint8_t>(i % 5 != 2);
    plain[i] = std::string(static_cast<size_t>(i % 4), 'a' + i % 26);
    dict[i] = "k" + std::to_string(i % 6);
    unique[i] = "u" + std::to_string(i);
  }
  return DataFrame::Make({"i", "f", "b", "s", "d", "u"},
                         {Column::Int64(ints, valid), Column::Float64(floats),
                          Column::Bool(bools, valid),
                          Column::String(plain, valid),
                          Column::String(dict, valid).DictEncode(),
                          Column::String(unique, valid).DictEncode()})
      .MoveValue();
}

/// Exact comparison: dtype, encoding, every value (nulls compare as null
/// scalars) and index label.
void ExpectSameWindow(const DataFrame& got, const DataFrame& want) {
  ExpectFramesEqual(got, want);
  for (int c = 0; c < got.num_columns() && c < want.num_columns(); ++c) {
    EXPECT_EQ(got.column(c).is_dict(), want.column(c).is_dict()) << c;
  }
}

TEST(XpqRowGroupTest, WindowsMatchWholeReadSliced) {
  const int64_t kRows = 50;
  const std::string path = TmpPath("xorbits_groups.xpq");
  ASSERT_TRUE(WriteXpq(path, RowGroupFrame(kRows), 8).ok());
  auto info = ReadXpqInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_EQ(info->num_groups(), 7);  // six of 8 rows, one of 2
  EXPECT_EQ(info->group_starts.back(), kRows);
  // (offset, count): inside one group, exactly one group, straddling one
  // and several boundaries, the tail group clamped, the whole file, one
  // row, and empty windows.
  const std::vector<std::pair<int64_t, int64_t>> windows = {
      {3, 4},  {8, 8},   {5, 10}, {7, 30}, {45, 100}, {0, kRows},
      {0, -1}, {21, 1},  {49, 1}, {16, 0}, {kRows, 5}};
  EXPECT_EQ(info->columns[3].encoding, XpqEncoding::kPlain);
  EXPECT_EQ(info->columns[4].encoding, XpqEncoding::kDict);
  EXPECT_EQ(info->columns[5].encoding, XpqEncoding::kPlain);
  for (bool dict : {false, true}) {
    auto whole = ReadXpq(path, {}, 0, -1, nullptr, dict);
    ASSERT_TRUE(whole.ok()) << whole.status();
    ExpectFramesEqual(*whole, RowGroupFrame(kRows));
    // Only the dictionary-page column comes back as codes; the windows,
    // empty ones included, must keep to the whole read's encodings.
    EXPECT_FALSE(whole->column(3).is_dict());
    EXPECT_EQ(whole->column(4).is_dict(), dict);
    EXPECT_FALSE(whole->column(5).is_dict());
    for (const auto& [off, count] : windows) {
      SCOPED_TRACE("window " + std::to_string(off) + "+" +
                   std::to_string(count) + " dict=" + std::to_string(dict));
      const DataFrame want = whole->SliceRows(off, count);
      auto eager = ReadXpq(path, {}, off, count, nullptr, dict);
      ASSERT_TRUE(eager.ok()) << eager.status();
      ExpectSameWindow(*eager, want);
      auto lazy = ReadXpqLazy(path, {}, off, count, dict);
      ASSERT_TRUE(lazy.ok()) << lazy.status();
      ExpectSameWindow(*lazy, want);
    }
  }
  std::remove(path.c_str());
}

TEST(XpqRowGroupTest, WindowReadsOnlyItsGroups) {
  const std::string path = TmpPath("xorbits_group_bytes.xpq");
  ASSERT_TRUE(WriteXpq(path, RowGroupFrame(40), 10).ok());
  auto info = ReadXpqInfo(path);
  ASSERT_TRUE(info.ok());
  const XpqColumnInfo& ci = info->columns[0];
  int64_t whole = 0, window = 0;
  ASSERT_TRUE(ReadXpq(path, {"i"}, 0, -1, &whole).ok());
  EXPECT_EQ(whole, ci.nbytes);
  // Rows 15..24 touch groups 1 and 2 only.
  ASSERT_TRUE(ReadXpq(path, {"i"}, 15, 10, &window).ok());
  EXPECT_EQ(window, ci.chunks[1].nbytes + ci.chunks[2].nbytes);
  // Eager decode charges the dense window, not the column.
  Metrics metrics;
  {
    MetricsScope scope(&metrics);
    auto df = ReadXpq(path, {"i"}, 15, 10);
    ASSERT_TRUE(df.ok());
    EXPECT_EQ(metrics.Get(CounterId::kBytesMaterialized),
              df->column(0).nbytes());
  }
  std::remove(path.c_str());
}

TEST(XpqRowGroupTest, EmptyAndOneRowFrames) {
  const std::string path = TmpPath("xorbits_group_small.xpq");
  for (int64_t rows : {0, 1}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const DataFrame df = RowGroupFrame(rows);
    ASSERT_TRUE(WriteXpq(path, df).ok());
    auto info = ReadXpqInfo(path);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(info->num_rows, rows);
    EXPECT_EQ(info->num_groups(), rows);
    for (bool dict : {false, true}) {
      auto back = ReadXpq(path, {}, 0, -1, nullptr, dict);
      ASSERT_TRUE(back.ok()) << back.status();
      ExpectFramesEqual(*back, df);
      for (int c = 0; c < back->num_columns(); ++c) {
        EXPECT_EQ(back->column(c).dtype(), df.column(c).dtype());
      }
      auto lazy = ReadXpqLazy(path, {}, 0, -1, dict);
      ASSERT_TRUE(lazy.ok()) << lazy.status();
      ExpectFramesEqual(*lazy, df);
    }
  }
  std::remove(path.c_str());
}

// --- string page encoding ----------------------------------------------

TEST(XpqEncodingTest, RepeatedValuesWriteDictPages) {
  // Plain in memory; three distinct values over eight rows.
  const Column plain = Column::String({"ca", "ab", "ca", "bd", "ab", "ca",
                                       "ca", "ab"},
                                      {1, 1, 0, 1, 1, 1, 1, 1});
  const auto df = DataFrame::Make({"s"}, {plain}).MoveValue();
  const std::string path = TmpPath("xorbits_enc_repeated.xpq");
  ASSERT_TRUE(WriteXpq(path, df, 3).ok());
  auto info = ReadXpqInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->columns[0].encoding, XpqEncoding::kDict);
  for (bool dict : {false, true}) {
    SCOPED_TRACE("dict=" + std::to_string(dict));
    Metrics metrics;
    MetricsScope scope(&metrics);
    auto back = ReadXpq(path, {}, 0, -1, nullptr, dict);
    ASSERT_TRUE(back.ok()) << back.status();
    ExpectFramesEqual(*back, df);
    EXPECT_EQ(back->column(0).is_dict(), dict);
    EXPECT_EQ(metrics.Get(CounterId::kDictEncodedColumns), dict ? 1 : 0);
    if (dict) {
      // One dictionary unified across the three groups.
      EXPECT_EQ(back->column(0).dict()->size(), 3);
    }
    auto lazy = ReadXpqLazy(path, {}, 1, 5, dict);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    ExpectSameWindow(*lazy, back->SliceRows(1, 5));
  }
  std::remove(path.c_str());
}

TEST(XpqEncodingTest, DistinctValuesWritePlainPages) {
  // Dictionary-encoded in memory, but every value is distinct.
  const Column dict =
      Column::String({"a", "bc", "", "def", "g", "hi"}, {1, 1, 1, 0, 1, 1})
          .DictEncode();
  ASSERT_TRUE(dict.is_dict());
  const auto df = DataFrame::Make({"s"}, {dict}).MoveValue();
  const std::string path = TmpPath("xorbits_enc_distinct.xpq");
  ASSERT_TRUE(WriteXpq(path, df, 4).ok());
  auto info = ReadXpqInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->columns[0].encoding, XpqEncoding::kPlain);
  for (bool dict_encode : {false, true}) {
    SCOPED_TRACE("dict=" + std::to_string(dict_encode));
    Metrics metrics;
    MetricsScope scope(&metrics);
    auto back = ReadXpq(path, {}, 0, -1, nullptr, dict_encode);
    ASSERT_TRUE(back.ok()) << back.status();
    ExpectFramesEqual(*back, df);
    EXPECT_FALSE(back->column(0).is_dict());
    auto lazy = ReadXpqLazy(path, {}, 0, -1, dict_encode);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    ExpectSameWindow(*lazy, *back);
    EXPECT_EQ(metrics.Get(CounterId::kDictEncodedColumns), 0);
  }
  std::remove(path.c_str());
}

/// Overwrites the `T` at `pos` of the file at `path` with `value`.
template <typename T>
void Patch(const std::string& path, int64_t pos, T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(pos);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

int64_t ReadInt64At(const std::string& path, int64_t pos) {
  std::ifstream f(path, std::ios::binary);
  f.seekg(pos);
  int64_t v = 0;
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

TEST(XpqRowGroupTest, FooterRejectsInconsistentGroups) {
  const std::string path = TmpPath("xorbits_group_footer.xpq");
  auto df = DataFrame::Make({"v"}, {Column::Int64({1, 2, 3, 4, 5, 6})})
                .MoveValue();
  // One column "v", three groups of two rows. Footer: num_rows (8),
  // ncols (4), name (4 + 1), dtype (1), encoding (1), ngroups (4), then per
  // group its row count (8), chunk offset (8) and chunk size (8).
  const int64_t kGroups = 8 + 4 + 5 + 1 + 1 + 4;
  auto footer_start = [&] {
    const int64_t size = static_cast<int64_t>(std::filesystem::file_size(path));
    return size - 12 - ReadInt64At(path, size - 12);
  };
  struct Case {
    const char* what;
    int64_t field;  // byte offset of the int64 within the footer
    int64_t delta;
  };
  const std::vector<Case> cases = {
      {"groups overlap", kGroups + 24 + 8, -1},
      {"groups leave a gap", kGroups + 24 + 8, +1},
      {"last group short of the footer", kGroups + 48 + 16, -1},
      {"group outside the file", kGroups + 48 + 16, +1000},
      {"group rows short of num_rows", kGroups, -1},
      {"group rows beyond num_rows", kGroups + 24, +1},
      {"num_rows beyond the groups", 0, +1},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(WriteXpq(path, df, 2).ok());
    ASSERT_TRUE(ReadXpqInfo(path).ok());
    const int64_t pos = footer_start() + c.field;
    Patch<int64_t>(path, pos, ReadInt64At(path, pos) + c.delta);
    EXPECT_FALSE(ReadXpqInfo(path).ok()) << c.what;
  }
  std::remove(path.c_str());
}

/// Row offsets where the tiled chunks of `path` start.
std::vector<int64_t> ChunkStarts(const std::string& path,
                                 int64_t chunk_store_limit) {
  Config cfg = Config::Preset(EngineKind::kXorbits);
  cfg.num_workers = 2;
  cfg.bands_per_worker = 2;
  cfg.chunk_store_limit = chunk_store_limit;
  core::Session session(std::move(cfg));
  auto ref = ReadParquet(&session, path);
  EXPECT_TRUE(ref.ok());
  EXPECT_TRUE(ref->Fetch().ok());
  std::vector<int64_t> starts;
  int64_t row = 0;
  for (const graph::ChunkNode* chunk : ref->node()->chunks) {
    starts.push_back(row);
    row += chunk->meta.rows;
  }
  EXPECT_EQ(row, 1000);
  return starts;
}

TEST(XpqRowGroupTest, TileSplitsOnGroupStarts) {
  std::vector<int64_t> v(1000);
  for (int64_t i = 0; i < 1000; ++i) v[i] = i;
  auto df = DataFrame::Make({"v"}, {Column::Int64(v)}).MoveValue();
  const std::string path = TmpPath("xorbits_group_tile.xpq");
  // 8 KB over a 3 KB limit is three chunks, raised to the four bands:
  // SplitRows cuts at 250, 500 and 750, which move to the group starts
  // 256, 512 and 768.
  ASSERT_TRUE(WriteXpq(path, df, 128).ok());
  EXPECT_EQ(ChunkStarts(path, 3000),
            (std::vector<int64_t>{0, 256, 512, 768}));
  // Groups larger than the chunks: the file still splits to the limit.
  ASSERT_TRUE(WriteXpq(path, df, 1000).ok());
  EXPECT_EQ(ChunkStarts(path, 3000),
            (std::vector<int64_t>{0, 250, 500, 750}));
  std::remove(path.c_str());
}

/// `source_bytes_read` summed over Q1, Q6 and Q12, each on a fresh session
/// of a 2 x 2-band Xorbits cluster with the given chunk limit.
int64_t TpchSourceBytes(const std::string& dir, int64_t chunk_store_limit) {
  int64_t bytes = 0;
  for (int q : {1, 6, 12}) {
    Config cfg = Config::Preset(EngineKind::kXorbits);
    cfg.num_workers = 2;
    cfg.bands_per_worker = 2;
    cfg.chunk_store_limit = chunk_store_limit;
    core::Session session(std::move(cfg));
    auto result = workloads::tpch::RunQuery(q, &session, dir);
    EXPECT_TRUE(result.ok()) << "Q" << q << ": " << result.status();
    bytes += session.metrics().Get(CounterId::kSourceBytesRead);
  }
  return bytes;
}

TEST(XpqRowGroupTest, SmallChunksReadNoMoreThanLargeChunks) {
  const std::string dir = TmpPath("xorbits_group_tpch");
  ASSERT_TRUE(tpch::GenerateFiles(0.01, dir).ok());
  // 1 MiB splits lineitem into several chunks; 64 MiB reads each table in
  // as few chunks as there are bands. Aligned to row groups, the small
  // chunks still read each group about once.
  const int64_t small = TpchSourceBytes(dir, 1LL << 20);
  const int64_t large = TpchSourceBytes(dir, 64LL << 20);
  EXPECT_GT(large, 0);
  EXPECT_LE(small, large * 6 / 5) << "small=" << small << " large=" << large;
  std::filesystem::remove_all(dir);
}

TEST(XpqTest, CorruptFileFails) {
  std::string path = TmpPath("xorbits_corrupt.xpq");
  FILE* f = fopen(path.c_str(), "w");
  fputs("definitely not xpq data, definitely not", f);
  fclose(f);
  EXPECT_FALSE(ReadXpqInfo(path).ok());
  std::remove(path.c_str());
}

// --- corrupt input ------------------------------------------------------
// Every truncation and every byte flip of a serialized frame, tensor or
// chunk, or of an .xpq file, must come back as a Status or a value, never
// an abort (run under ASan via the `sanitize` label).

/// Six rows over every physical encoding: int, float and bool with nulls,
/// plain strings with a null, and dictionary strings with a null.
DataFrame CorruptionFrame() {
  return DataFrame::Make(
             {"i", "f", "b", "s", "d"},
             {Column::Int64({1, -2, 3, 40, 5, 6}, {1, 0, 1, 1, 1, 0}),
              Column::Float64({0.5, 1.5, -2.5, 3.5, 4.5, 5.5}),
              Column::Bool({1, 0, 1, 1, 0, 0}, {1, 1, 0, 1, 1, 1}),
              Column::String({"a", "bc", "", "def", "g", "hi"},
                             {1, 1, 1, 0, 1, 1}),
              Column::String({"x", "yy", "x", "zzz", "yy", "x"},
                             {1, 1, 0, 1, 1, 1})
                  .DictEncode()})
      .MoveValue();
}

/// Reads every cell and index label, so a corrupt buffer that slipped
/// through the reader trips ASan here rather than going unnoticed.
void TouchAll(const DataFrame& df) {
  for (int c = 0; c < df.num_columns(); ++c) {
    const Column& col = df.column(c);
    for (int64_t i = 0; i < col.length(); ++i) (void)col.GetScalar(i);
  }
  for (int64_t i = 0; i < df.index().length(); ++i) {
    (void)df.index().Label(i);
  }
}

/// The byte strings the sweep feeds a reader: every proper prefix, then
/// every single-byte flip (all bits, and the high bit alone).
std::vector<std::string> Corruptions(const std::string& good) {
  std::vector<std::string> out;
  for (size_t len = 0; len < good.size(); ++len) {
    out.push_back(good.substr(0, len));
  }
  for (size_t i = 0; i < good.size(); ++i) {
    for (unsigned char mask : {0xffu, 0x80u}) {
      std::string bad = good;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ mask);
      out.push_back(std::move(bad));
    }
  }
  return out;
}

TEST(CorruptInputTest, SerializedFrameNeverAborts) {
  const auto good = SerializeDataFrame(CorruptionFrame());
  ASSERT_TRUE(good.ok());
  int rejected = 0;
  for (const std::string& bytes : Corruptions(*good)) {
    auto df = DeserializeDataFrame(bytes);
    if (df.ok()) {
      TouchAll(*df);
    } else {
      ++rejected;
    }
  }
  // Every truncation is detectably short.
  EXPECT_GE(rejected, static_cast<int>(good->size()));
}

/// Reads every element, so a corrupt tensor that slipped through the
/// reader trips ASan here.
void TouchAll(const tensor::NDArray& a) {
  double sum = 0;
  for (int64_t i = 0; i < a.size(); ++i) sum += a.data()[i];
  (void)sum;
}

void TouchAll(const services::ChunkData& chunk) {
  if (chunk.is_dataframe()) {
    TouchAll(chunk.dataframe());
  } else if (chunk.is_ndarray()) {
    TouchAll(chunk.ndarray());
  } else {
    (void)chunk.scalar().ToString();
  }
}

TEST(CorruptInputTest, SerializedTensorNeverAborts) {
  const auto good = SerializeNDArray(
      tensor::NDArray::Make({1.5, -2, 3, 4.25, 5, 6}, {3, 2}).MoveValue());
  ASSERT_TRUE(good.ok());
  int rejected = 0;
  for (const std::string& bytes : Corruptions(*good)) {
    auto a = DeserializeNDArray(bytes);
    if (a.ok()) {
      TouchAll(*a);
    } else {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, static_cast<int>(good->size()));
}

TEST(CorruptInputTest, SerializedChunkNeverAborts) {
  // A row-shuffled copy of the corruption frame carries a label index
  // (width-packed) and long runs of dictionary codes (run-length packed).
  const DataFrame runs =
      CorruptionFrame().TakeRows({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2,
                                  2, 2, 2, 2, 5, 5, 5, 5, 5, 5, 5});
  ASSERT_FALSE(runs.index().is_range());
  ASSERT_TRUE(runs.GetColumn("d").ValueOrDie()->is_dict());
  const std::vector<std::pair<char, services::ChunkDataPtr>> chunks = {
      {'D', services::MakeChunk(runs)},
      {'A', services::MakeChunk(
                tensor::NDArray::Make({1, 2, 3, 4}, {2, 2}).MoveValue())},
      {'S', services::MakeChunk(Scalar::Str("scalar"))},
  };
  for (const auto& [tag, chunk] : chunks) {
    SCOPED_TRACE(std::string("tag ") + tag);
    const auto good = services::SerializeChunk(*chunk);
    ASSERT_TRUE(good.ok());
    ASSERT_EQ((*good)[0], tag);
    int rejected = 0;
    for (const std::string& bytes : Corruptions(*good)) {
      auto back = services::DeserializeChunk(bytes);
      if (back.ok()) {
        TouchAll(**back);
      } else {
        ++rejected;
      }
    }
    EXPECT_GE(rejected, static_cast<int>(good->size()));
  }
}

TEST(CorruptInputTest, OlderFrameVersionsAreRejected) {
  // Frames are v4 only; a v2 or v3 magic is as foreign as any other.
  const auto good = SerializeDataFrame(CorruptionFrame());
  ASSERT_TRUE(good.ok());
  ASSERT_EQ((*good)[0], 0x04);  // little-endian magic 0x58444604
  for (char version : {0x02, 0x03}) {
    std::string old = *good;
    old[0] = version;
    auto df = DeserializeDataFrame(old);
    ASSERT_FALSE(df.ok());
    EXPECT_EQ(df.status().code(), StatusCode::kIOError) << df.status();
    auto chunk = services::DeserializeChunk("D" + old);
    ASSERT_FALSE(chunk.ok());
    EXPECT_EQ(chunk.status().code(), StatusCode::kIOError) << chunk.status();
  }
}

TEST(CorruptInputTest, XpqFileNeverAborts) {
  // Two-row groups: the six-row frame spans three groups, so the sweep
  // covers a multi-group footer and reads that cross group boundaries.
  const std::string good_path = TmpPath("xorbits_corrupt_sweep_good.xpq");
  ASSERT_TRUE(WriteXpq(good_path, CorruptionFrame(), 2).ok());
  {
    // The sweep covers both string page layouts: `s` (five distinct of six
    // rows) is plain, `d` (three distinct) is a dictionary column.
    auto info = ReadXpqInfo(good_path);
    ASSERT_TRUE(info.ok()) << info.status();
    ASSERT_EQ(info->num_groups(), 3);
    ASSERT_EQ(info->columns[3].encoding, XpqEncoding::kPlain);
    ASSERT_EQ(info->columns[4].encoding, XpqEncoding::kDict);
  }
  std::string good;
  {
    std::ifstream in(good_path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  std::remove(good_path.c_str());
  ASSERT_GT(good.size(), 20u);
  const std::string path = TmpPath("xorbits_corrupt_sweep.xpq");
  int rejected = 0;
  for (const std::string& bytes : Corruptions(good)) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto read = ReadXpqInfo(path);
    if (!read.ok()) {
      ++rejected;
      continue;
    }
    auto info = std::make_shared<const XpqFileInfo>(read.MoveValue());
    for (bool dict : {true, false}) {
      auto whole = ReadXpq(path, {}, 0, -1, nullptr, dict);
      if (whole.ok()) TouchAll(*whole);
      auto window = ReadXpq(path, {}, 1, 3, nullptr, dict);
      if (window.ok()) TouchAll(*window);
      // The lazy path decodes through each column's source; exercise both
      // the whole-window and the selected-rows decoders directly, since a
      // lazy frame has no error channel on its read path.
      for (int c = 0; c < static_cast<int>(info->columns.size()); ++c) {
        XpqColumnSource src(path, info, c, 0, info->num_rows, dict);
        auto all = src.LoadAll();
        if (all.ok()) {
          for (int64_t i = 0; i < all->length(); ++i) {
            (void)all->GetScalar(i);
          }
        }
        if (info->num_rows >= 2) {
          auto some = src.Load({0, info->num_rows - 1});
          if (some.ok()) {
            for (int64_t i = 0; i < some->length(); ++i) {
              (void)some->GetScalar(i);
            }
          }
        }
      }
    }
  }
  std::remove(path.c_str());
  EXPECT_GE(rejected, static_cast<int>(good.size()));
}

TEST(CorruptInputTest, XpqPageCorruptionsFail) {
  const std::string path = TmpPath("xorbits_corrupt_pages.xpq");
  auto info_of = [&] { return ReadXpqInfo(path).MoveValue(); };
  // Group 0 of `s` holds "a", "bc" with validity: flag (1), validity (2),
  // tag (1), then the end offsets {1, 3} and the bytes "abc".
  auto s_ends = [&] { return info_of().columns[3].chunks[0].offset + 4; };
  // The footer's column entries are one-letter names: name (4 + 1),
  // dtype (1), encoding (1) after num_rows (8) and ncols (4).
  auto footer_encoding = [&](int c) {
    const int64_t size = static_cast<int64_t>(std::filesystem::file_size(path));
    return size - 12 - ReadInt64At(path, size - 12) + 12 + 7 * c + 6;
  };
  struct Case {
    const char* what;
    std::function<void()> corrupt;
    int column;  // the page reader must reject this column; -1: the footer
  };
  const std::vector<Case> cases = {
      {"plain offsets descend",
       [&] { Patch<uint32_t>(path, s_ends() + 4, 0); }, 3},
      {"last plain offset past the chunk",
       [&] { Patch<uint32_t>(path, s_ends() + 4, 1000); }, 3},
      {"plain page tagged as a dictionary page",
       [&] { Patch<uint8_t>(path, s_ends() - 1, 1); }, 3},
      {"dictionary page tagged as a plain page",
       [&] {
         const int64_t d = info_of().columns[4].chunks[0].offset;
         Patch<uint8_t>(path, d + 3, 0);
       },
       4},
      {"unknown footer encoding",
       [&] { Patch<uint8_t>(path, footer_encoding(3), 7); }, -1},
      {"dictionary encoding on an int64 column",
       [&] { Patch<uint8_t>(path, footer_encoding(0), 1); }, -1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    ASSERT_TRUE(WriteXpq(path, CorruptionFrame(), 2).ok());
    c.corrupt();
    auto read = ReadXpqInfo(path);
    if (c.column < 0) {
      ASSERT_FALSE(read.ok());
      EXPECT_EQ(read.status().code(), StatusCode::kIOError);
      continue;
    }
    ASSERT_TRUE(read.ok()) << read.status();
    auto info = std::make_shared<const XpqFileInfo>(read.MoveValue());
    for (bool dict : {true, false}) {
      auto whole = ReadXpq(path, {}, 0, -1, nullptr, dict);
      ASSERT_FALSE(whole.ok());
      EXPECT_EQ(whole.status().code(), StatusCode::kIOError);
      // Row 0 alone: its own offset is intact, but the page is checked
      // whole before any row is copied.
      XpqColumnSource src(path, info, c.column, 0, info->num_rows, dict);
      auto some = src.Load({0});
      ASSERT_FALSE(some.ok());
      EXPECT_EQ(some.status().code(), StatusCode::kIOError);
    }
  }
  std::remove(path.c_str());
}

class TpchGenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tables_ = new tpch::Tables(tpch::Generate(0.001).MoveValue());
  }
  static void TearDownTestSuite() {
    delete tables_;
    tables_ = nullptr;
  }
  static tpch::Tables* tables_;
};
tpch::Tables* TpchGenTest::tables_ = nullptr;

TEST_F(TpchGenTest, Cardinalities) {
  EXPECT_EQ(tables_->region.num_rows(), 5);
  EXPECT_EQ(tables_->nation.num_rows(), 25);
  EXPECT_GE(tables_->supplier.num_rows(), 10);
  EXPECT_GE(tables_->customer.num_rows(), 30);
  EXPECT_EQ(tables_->orders.num_rows(), tables_->customer.num_rows() * 10);
  EXPECT_EQ(tables_->partsupp.num_rows(), tables_->part.num_rows() * 4);
  // 1..7 lines per order, expectation 4.
  EXPECT_GE(tables_->lineitem.num_rows(), tables_->orders.num_rows());
  EXPECT_LE(tables_->lineitem.num_rows(), tables_->orders.num_rows() * 7);
}

TEST_F(TpchGenTest, ForeignKeysInRange) {
  const auto& ck = tables_->orders.GetColumn("o_custkey")
                       .ValueOrDie()
                       ->int64_data();
  const int64_t n_cust = tables_->customer.num_rows();
  for (int64_t v : ck) {
    ASSERT_GE(v, 1);
    ASSERT_LE(v, n_cust);
  }
  const auto& pk = tables_->lineitem.GetColumn("l_partkey")
                       .ValueOrDie()
                       ->int64_data();
  const int64_t n_part = tables_->part.num_rows();
  for (int64_t v : pk) {
    ASSERT_GE(v, 1);
    ASSERT_LE(v, n_part);
  }
}

TEST_F(TpchGenTest, DateOrderingInvariants) {
  const auto& ship = tables_->lineitem.GetColumn("l_shipdate")
                         .ValueOrDie()
                         ->int64_data();
  const auto& receipt = tables_->lineitem.GetColumn("l_receiptdate")
                            .ValueOrDie()
                            ->int64_data();
  for (size_t i = 0; i < ship.size(); ++i) {
    ASSERT_LT(ship[i], receipt[i]);
  }
}

TEST_F(TpchGenTest, PredicateSelectivityNonTrivial) {
  // Q6-style predicates must select a non-empty strict subset.
  auto mask = dataframe::CompareScalar(
      *tables_->lineitem.GetColumn("l_discount").ValueOrDie(),
      Scalar::Float(0.05), dataframe::CmpOp::kGe);
  ASSERT_TRUE(mask.ok());
  int64_t hits = 0;
  for (uint8_t b : mask->bool_data()) hits += b;
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, tables_->lineitem.num_rows());
  // Market segments present.
  auto seg = dataframe::Unique(
      *tables_->customer.GetColumn("c_mktsegment").ValueOrDie());
  EXPECT_EQ(seg->length(), 5);
}

TEST_F(TpchGenTest, Deterministic) {
  auto t2 = tpch::Generate(0.001);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->lineitem.num_rows(), tables_->lineitem.num_rows());
  EXPECT_EQ(t2->lineitem.GetColumn("l_extendedprice")
                .ValueOrDie()
                ->float64_data()[0],
            tables_->lineitem.GetColumn("l_extendedprice")
                .ValueOrDie()
                ->float64_data()[0]);
}

TEST_F(TpchGenTest, GenerateFilesWritesAllTables) {
  std::string dir = TmpPath("xorbits_tpch_dir");
  ASSERT_TRUE(tpch::GenerateFiles(0.001, dir).ok());
  for (const char* name : {"region", "nation", "supplier", "customer",
                           "part", "partsupp", "orders", "lineitem"}) {
    auto info = ReadXpqInfo(dir + "/" + std::string(name) + ".xpq");
    EXPECT_TRUE(info.ok()) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(TpchGenErrorTest, RejectsBadScale) {
  EXPECT_FALSE(tpch::Generate(0).ok());
  EXPECT_FALSE(tpch::Generate(-1).ok());
}

}  // namespace
}  // namespace xorbits::io
