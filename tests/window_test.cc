#include <gtest/gtest.h>

#include "core/xorbits.h"
#include "dataframe/kernels.h"
#include "dataframe/reshape.h"

namespace xorbits {
namespace {

using dataframe::AggFunc;
using dataframe::Column;
using dataframe::DataFrame;

Config SmallChunks() {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  // Tiny: LongFrame(500) tiles to more chunks than the 4-band floor.
  c.chunk_store_limit = 1 << 11;
  return c;
}

DataFrame LongFrame(int64_t n) {
  std::vector<int64_t> k(n), v(n);
  std::vector<double> x(n);
  std::vector<std::string> g(n);
  for (int64_t i = 0; i < n; ++i) {
    k[i] = i % 5;
    v[i] = i;
    x[i] = 0.5 * i;
    g[i] = (i % 3 == 0) ? "u" : "w";
  }
  return DataFrame::Make({"k", "v", "x", "g"},
                         {Column::Int64(k), Column::Int64(v),
                          Column::Float64(x), Column::String(g)})
      .MoveValue();
}

// --- kernels ---

TEST(ReshapeKernelTest, PivotTableBasic) {
  auto df = DataFrame::Make(
                {"r", "c", "v"},
                {Column::String({"a", "a", "b", "b", "a"}),
                 Column::String({"x", "y", "x", "y", "x"}),
                 Column::Int64({1, 2, 3, 4, 10})})
                .MoveValue();
  auto wide = dataframe::PivotTable(df, {"r"}, "c", "v", AggFunc::kSum);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->num_rows(), 2);
  EXPECT_EQ(wide->num_columns(), 3);  // r, x, y
  ASSERT_TRUE(wide->HasColumn("x"));
  ASSERT_TRUE(wide->HasColumn("y"));
  EXPECT_EQ(wide->GetColumn("x").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{11, 3}));
  EXPECT_EQ(wide->GetColumn("y").ValueOrDie()->int64_data(),
            (std::vector<int64_t>{2, 4}));
}

TEST(ReshapeKernelTest, PivotTableMissingCellsAreNull) {
  auto df = DataFrame::Make({"r", "c", "v"},
                            {Column::String({"a", "b"}),
                             Column::String({"x", "y"}),
                             Column::Int64({1, 2})})
                .MoveValue();
  auto wide = dataframe::PivotTable(df, {"r"}, "c", "v", AggFunc::kSum);
  ASSERT_TRUE(wide.ok());
  EXPECT_TRUE(wide->GetColumn("y").ValueOrDie()->IsNull(0));  // (a, y)
  EXPECT_TRUE(wide->GetColumn("x").ValueOrDie()->IsNull(1));  // (b, x)
}

TEST(ReshapeKernelTest, CumSumColIntAndNulls) {
  auto c = dataframe::CumSumCol(Column::Int64({1, 2, 3}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->int64_data(), (std::vector<int64_t>{1, 3, 6}));
  auto f = dataframe::CumSumCol(Column::Float64({1.0, 2.0, 4.0}, {1, 0, 1}));
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->float64_data()[2], 5.0);  // null skipped
  EXPECT_TRUE(f->IsNull(1));
  EXPECT_FALSE(dataframe::CumSumCol(Column::String({"a"})).ok());
}

TEST(ReshapeKernelTest, RollingMeanColWindowAndNulls) {
  auto r = dataframe::RollingMeanCol(Column::Int64({1, 2, 3, 4, 5}), 3);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsNull(0));
  EXPECT_TRUE(r->IsNull(1));
  EXPECT_DOUBLE_EQ(r->float64_data()[2], 2.0);
  EXPECT_DOUBLE_EQ(r->float64_data()[4], 4.0);
  EXPECT_FALSE(dataframe::RollingMeanCol(Column::Int64({1}), 0).ok());
}

// --- distributed ops vs single-node kernels ---

TEST(WindowOpTest, DistributedCumSumMatchesKernel) {
  core::Session session(SmallChunks());
  DataFrame raw = LongFrame(500);
  auto expected = dataframe::CumSumCol(*raw.GetColumn("v").ValueOrDie());
  ASSERT_TRUE(expected.ok());

  auto df = FromPandas(&session, raw);
  auto scanned = df->CumSum("v", "v_cum");
  ASSERT_TRUE(scanned.ok());
  auto out = scanned->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  const auto& got = out->GetColumn("v_cum").ValueOrDie()->int64_data();
  const auto& want = expected->int64_data();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "row " << i;
  }
  // Genuinely multi-chunk, by size rather than by the band floor.
  EXPECT_GT(df->node()->chunks.size(), 4u);
}

class RollingWindowSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(RollingWindowSweep, DistributedMatchesKernel) {
  const int64_t window = GetParam();
  core::Session session(SmallChunks());
  DataFrame raw = LongFrame(400);
  auto expected =
      dataframe::RollingMeanCol(*raw.GetColumn("x").ValueOrDie(), window);
  ASSERT_TRUE(expected.ok());

  auto df = FromPandas(&session, raw);
  auto rolled = df->RollingMean("x", "x_roll", window);
  ASSERT_TRUE(rolled.ok());
  auto out = rolled->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  const dataframe::Column* got = out->GetColumn("x_roll").ValueOrDie();
  for (int64_t i = 0; i < got->length(); ++i) {
    ASSERT_EQ(got->IsNull(i), expected->IsNull(i)) << "row " << i;
    if (!got->IsNull(i)) {
      ASSERT_NEAR(got->float64_data()[i], expected->float64_data()[i], 1e-9)
          << "row " << i;
    }
  }
}

// Window 120 exceeds single chunk sizes: carries must span several chunks.
INSTANTIATE_TEST_SUITE_P(Windows, RollingWindowSweep,
                         ::testing::Values<int64_t>(2, 7, 50, 120));

TEST(WindowOpTest, RollingAfterFilterUsesDynamicTiling) {
  core::Session session(SmallChunks());
  auto df = FromPandas(&session, LongFrame(400));
  auto filtered = df->Filter(operators::CompareExpr(
      operators::Col("k"), dataframe::CmpOp::kNe,
      operators::Lit(int64_t{0})));
  auto rolled = filtered->RollingMean("x", "x_roll", 5);
  ASSERT_TRUE(rolled.ok());
  auto out = rolled->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_rows(), 320);
  EXPECT_GT(session.metrics().Get(CounterId::kDynamicYields), 0);
}

TEST(WindowOpTest, DistributedPivotMatchesKernel) {
  core::Session session(SmallChunks());
  DataFrame raw = LongFrame(300);
  auto expected =
      dataframe::PivotTable(raw, {"k"}, "g", "x", AggFunc::kMean);
  ASSERT_TRUE(expected.ok());

  auto df = FromPandas(&session, raw);
  auto wide = df->PivotTable({"k"}, "g", "x", AggFunc::kMean);
  ASSERT_TRUE(wide.ok()) << wide.status();
  auto out_r = wide->Fetch();
  ASSERT_TRUE(out_r.ok()) << out_r.status();
  auto out = dataframe::SortValues(*out_r, {"k"});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), expected->num_rows());
  ASSERT_EQ(out->num_columns(), expected->num_columns());
  for (int c = 0; c < out->num_columns(); ++c) {
    for (int64_t i = 0; i < out->num_rows(); ++i) {
      if (expected->column(c).IsNull(i)) {
        EXPECT_TRUE(out->column(c).IsNull(i));
      } else {
        EXPECT_NEAR(out->column(c).GetDouble(i),
                    expected->column(c).GetDouble(i), 1e-9);
      }
    }
  }
}

TEST(WindowOpTest, GroupByMedianDistributed) {
  core::Session session(SmallChunks());
  DataFrame raw = LongFrame(300);
  auto expected = dataframe::GroupByAgg(
      raw, {"k"}, {{"x", AggFunc::kMedian, "xm"}});
  ASSERT_TRUE(expected.ok());
  auto df = FromPandas(&session, raw);
  auto g = df->GroupByAgg({"k"}, {{"x", AggFunc::kMedian, "xm"}});
  ASSERT_TRUE(g.ok());
  auto out_r = g->Fetch();
  ASSERT_TRUE(out_r.ok()) << out_r.status();
  auto out = dataframe::SortValues(*out_r, {"k"});
  for (int64_t i = 0; i < out->num_rows(); ++i) {
    EXPECT_NEAR(out->GetColumn("xm").ValueOrDie()->float64_data()[i],
                expected->GetColumn("xm").ValueOrDie()->float64_data()[i],
                1e-9);
  }
}

TEST(WriterTest, ToParquetAndToCsvRoundTrip) {
  core::Session session(SmallChunks());
  auto df = FromPandas(&session, LongFrame(120));
  const std::string pq = "/tmp/xorbits_writer_test.xpq";
  const std::string csv = "/tmp/xorbits_writer_test.csv";
  ASSERT_TRUE(df->ToParquet(pq).ok());
  ASSERT_TRUE(df->ToCsv(csv).ok());
  auto back = ReadParquet(&session, pq);
  ASSERT_TRUE(back.ok());
  auto fetched = back->Fetch();
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->num_rows(), 120);
  auto csv_back = ReadCsv(&session, csv);
  ASSERT_TRUE(csv_back.ok());
  EXPECT_EQ(*csv_back->CountRows(), 120);
  std::remove(pq.c_str());
  std::remove(csv.c_str());
}

TEST(StringExprTest, NewStringAndDateKernels) {
  core::Session session(SmallChunks());
  std::vector<std::string> s{"  Alpha ", "beta", "GAMMA"};
  std::vector<int64_t> d{*dataframe::ParseDate("2024-02-29"),
                         *dataframe::ParseDate("1999-12-31"),
                         *dataframe::ParseDate("1970-01-05")};
  auto raw = DataFrame::Make({"s", "d"},
                             {Column::String(s), Column::Int64(d)})
                 .MoveValue();
  auto df = FromPandas(&session, raw);
  auto out = df->WithColumns(
                   {{"up", operators::StrUpperExpr(operators::Col("s"))},
                    {"low", operators::StrLowerExpr(operators::Col("s"))},
                    {"len", operators::StrLenExpr(operators::Col("s"))},
                    {"stripped",
                     operators::StrStripExpr(operators::Col("s"))},
                    {"rep", operators::StrReplaceExpr(operators::Col("s"),
                                                      "a", "_")},
                    {"day", operators::DayExpr(operators::Col("d"))},
                    {"q", operators::QuarterExpr(operators::Col("d"))},
                    {"wd", operators::WeekDayExpr(operators::Col("d"))}})
                 .ValueOrDie()
                 .Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->GetColumn("up").ValueOrDie()->string_data()[1], "BETA");
  EXPECT_EQ(out->GetColumn("low").ValueOrDie()->string_data()[2], "gamma");
  EXPECT_EQ(out->GetColumn("len").ValueOrDie()->int64_data()[0], 8);
  EXPECT_EQ(out->GetColumn("stripped").ValueOrDie()->string_data()[0],
            "Alpha");
  EXPECT_EQ(out->GetColumn("rep").ValueOrDie()->string_data()[0],
            "  Alph_ ");
  EXPECT_EQ(out->GetColumn("day").ValueOrDie()->int64_data()[0], 29);
  EXPECT_EQ(out->GetColumn("q").ValueOrDie()->int64_data()[1], 4);
  // 1970-01-05 was a Monday.
  EXPECT_EQ(out->GetColumn("wd").ValueOrDie()->int64_data()[2], 0);
}

}  // namespace
}  // namespace xorbits
