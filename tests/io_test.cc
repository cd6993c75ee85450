#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "dataframe/compute.h"
#include "dataframe/kernels.h"
#include "io/csv.h"
#include "io/serialize.h"
#include "io/tpch_gen.h"
#include "io/xparquet.h"

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

TEST(XpqTest, CorruptFileFails) {
  std::string path = TmpPath("xorbits_corrupt.xpq");
  FILE* f = fopen(path.c_str(), "w");
  fputs("definitely not xpq data, definitely not", f);
  fclose(f);
  EXPECT_FALSE(ReadXpqInfo(path).ok());
  std::remove(path.c_str());
}

// --- corrupt input ------------------------------------------------------
// Every truncation and every byte flip of a serialized frame or an .xpq file
// must come back as a Status or a frame, never an abort (run under ASan via
// the `sanitize` label).

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

TEST(CorruptInputTest, XpqFileNeverAborts) {
  const std::string good_path = TmpPath("xorbits_corrupt_sweep_good.xpq");
  ASSERT_TRUE(WriteXpq(good_path, CorruptionFrame()).ok());
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
    auto info = ReadXpqInfo(path);
    if (!info.ok()) {
      ++rejected;
      continue;
    }
    for (bool dict : {true, false}) {
      auto whole = ReadXpq(path, {}, 0, -1, nullptr, dict);
      if (whole.ok()) TouchAll(*whole);
      // The lazy path decodes through each column's source; exercise both
      // the whole-window and the selected-rows decoders directly, since a
      // lazy frame has no error channel on its read path.
      for (const XpqColumnInfo& ci : info->columns) {
        XpqColumnSource src(path, ci, info->num_rows, 0, info->num_rows,
                            info->version >= 2, dict);
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
