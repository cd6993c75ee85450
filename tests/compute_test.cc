#include <gtest/gtest.h>

#include <cmath>

#include "dataframe/compute.h"

namespace xorbits::dataframe {
namespace {

TEST(ComputeTest, IntAddStaysInt) {
  auto r = BinaryOp(Column::Int64({1, 2}), Column::Int64({10, 20}),
                    BinOp::kAdd);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dtype(), DType::kInt64);
  EXPECT_EQ(r->int64_data()[1], 22);
}

TEST(ComputeTest, MixedPromotesToFloat) {
  auto r = BinaryOp(Column::Int64({1}), Column::Float64({0.5}), BinOp::kMul);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dtype(), DType::kFloat64);
  EXPECT_DOUBLE_EQ(r->float64_data()[0], 0.5);
}

TEST(ComputeTest, DivAlwaysFloat) {
  auto r = BinaryOp(Column::Int64({3}), Column::Int64({2}), BinOp::kDiv);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dtype(), DType::kFloat64);
  EXPECT_DOUBLE_EQ(r->float64_data()[0], 1.5);
}

TEST(ComputeTest, NullPropagates) {
  auto r = BinaryOp(Column::Int64({1, 2}, {1, 0}), Column::Int64({1, 1}),
                    BinOp::kAdd);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->IsNull(0));
  EXPECT_TRUE(r->IsNull(1));
}

TEST(ComputeTest, ScalarOpsAndReverse) {
  Column c = Column::Int64({10, 20});
  auto r = BinaryOpScalar(c, Scalar::Int(3), BinOp::kSub);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->int64_data()[0], 7);
  auto rev = BinaryOpScalar(c, Scalar::Int(3), BinOp::kSub, /*reverse=*/true);
  ASSERT_TRUE(rev.ok());
  EXPECT_EQ(rev->int64_data()[0], -7);
  // 1 - discount pattern from TPC-H Q1.
  auto disc = BinaryOpScalar(Column::Float64({0.1}), Scalar::Float(1.0),
                             BinOp::kSub, /*reverse=*/true);
  EXPECT_DOUBLE_EQ(disc->float64_data()[0], 0.9);
}

TEST(ComputeTest, StringOnArithmeticFails) {
  EXPECT_FALSE(
      BinaryOp(Column::String({"a"}), Column::String({"b"}), BinOp::kAdd)
          .ok());
}

TEST(ComputeTest, LengthMismatchFails) {
  EXPECT_FALSE(
      BinaryOp(Column::Int64({1}), Column::Int64({1, 2}), BinOp::kAdd).ok());
}

TEST(ComputeTest, CompareNumericAndString) {
  auto r = CompareScalar(Column::Int64({1, 5, 9}), Scalar::Int(5), CmpOp::kLt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bool_data(), (std::vector<uint8_t>{1, 0, 0}));
  auto s = CompareScalar(Column::String({"ab", "cd"}), Scalar::Str("cd"),
                         CmpOp::kEq);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->bool_data(), (std::vector<uint8_t>{0, 1}));
}

TEST(ComputeTest, CompareColumns) {
  auto r = Compare(Column::Int64({1, 5}), Column::Float64({2.0, 4.0}),
                   CmpOp::kGe);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bool_data(), (std::vector<uint8_t>{0, 1}));
}

TEST(ComputeTest, BooleanCombinators) {
  Column a = Column::Bool({1, 1, 0, 0});
  Column b = Column::Bool({1, 0, 1, 0});
  EXPECT_EQ(And(a, b)->bool_data(), (std::vector<uint8_t>{1, 0, 0, 0}));
  EXPECT_EQ(Or(a, b)->bool_data(), (std::vector<uint8_t>{1, 1, 1, 0}));
  EXPECT_EQ(Not(a)->bool_data(), (std::vector<uint8_t>{0, 0, 1, 1}));
  EXPECT_FALSE(And(a, Column::Int64({1, 2, 3, 4})).ok());
}

TEST(ComputeTest, NullProbes) {
  Column c = Column::Int64({1, 2}, {0, 1});
  EXPECT_EQ(IsNullCol(c).bool_data(), (std::vector<uint8_t>{1, 0}));
  EXPECT_EQ(NotNullCol(c).bool_data(), (std::vector<uint8_t>{0, 1}));
}

TEST(ComputeTest, IsIn) {
  auto r = IsIn(Column::String({"a", "b", "c"}),
                {Scalar::Str("a"), Scalar::Str("c")});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bool_data(), (std::vector<uint8_t>{1, 0, 1}));
  auto n = IsIn(Column::Int64({1, 2, 3}), {Scalar::Int(2)});
  EXPECT_EQ(n->bool_data(), (std::vector<uint8_t>{0, 1, 0}));
}

// int64 membership is exact: 2^53 + 1 and 2^53 share one double, but only
// the listed value matches. Float values match only when integral and in
// int64 range; float columns keep numeric equality (-0.0 matches 0.0, NaN
// matches nothing).
TEST(ComputeTest, IsInInt64IsExactBeyond2To53) {
  const int64_t big = int64_t{1} << 53;
  auto r = IsIn(Column::Int64({big + 1, big, 5}), {Scalar::Int(big)});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->bool_data(), (std::vector<uint8_t>{0, 1, 0}));
  auto f = IsIn(Column::Int64({3, 4, big, 7}, {1, 1, 1, 0}),
                {Scalar::Float(3.0), Scalar::Float(4.5), Scalar::Float(0x1p53),
                 Scalar::Float(std::nan("")), Scalar::Float(0x1p63),
                 Scalar::Int(7)});
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->bool_data(), (std::vector<uint8_t>{1, 0, 1, 0}));
  EXPECT_TRUE(f->IsNull(3));
  auto d = IsIn(Column::Float64({-0.0, 0.0, std::nan(""), 2.0}),
                {Scalar::Float(0.0), Scalar::Float(std::nan("")),
                 Scalar::Int(2)});
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->bool_data(), (std::vector<uint8_t>{1, 1, 0, 1}));
}

TEST(ComputeTest, StringPredicates) {
  Column c = Column::String({"PROMO BRUSHED", "STANDARD", "ECONOMY BRASS"});
  EXPECT_EQ(StrStartsWith(c, "PROMO")->bool_data(),
            (std::vector<uint8_t>{1, 0, 0}));
  EXPECT_EQ(StrEndsWith(c, "BRASS")->bool_data(),
            (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(StrContains(c, "AND")->bool_data(),
            (std::vector<uint8_t>{0, 1, 0}));
  EXPECT_FALSE(StrContains(Column::Int64({1}), "x").ok());
}

TEST(ComputeTest, StrSlice) {
  Column c = Column::String({"abcdef", "ab"});
  auto r = StrSlice(c, 1, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->string_data()[0], "bcd");
  EXPECT_EQ(r->string_data()[1], "b");
}

TEST(ComputeTest, DateRoundTrip) {
  for (const char* d : {"1970-01-01", "1994-03-15", "2000-02-29",
                        "1998-12-01", "2026-07-05"}) {
    auto days = ParseDate(d);
    ASSERT_TRUE(days.ok()) << d;
    EXPECT_EQ(FormatDate(*days), d);
  }
  EXPECT_EQ(*ParseDate("1970-01-01"), 0);
  EXPECT_EQ(*ParseDate("1970-01-02"), 1);
  EXPECT_FALSE(ParseDate("garbage").ok());
}

TEST(ComputeTest, YearMonthExtraction) {
  Column dates = Column::Int64(
      {*ParseDate("1994-01-01"), *ParseDate("1995-12-31")});
  EXPECT_EQ(Year(dates)->int64_data(), (std::vector<int64_t>{1994, 1995}));
  EXPECT_EQ(Month(dates)->int64_data(), (std::vector<int64_t>{1, 12}));
}

TEST(ComputeTest, Reductions) {
  Column c = Column::Int64({1, 2, 3, 4}, {1, 1, 0, 1});
  EXPECT_EQ(SumCol(c)->AsInt(), 7);
  EXPECT_EQ(MinCol(c)->AsInt(), 1);
  EXPECT_EQ(MaxCol(c)->AsInt(), 4);
  EXPECT_DOUBLE_EQ(MeanCol(c)->AsDouble(), 7.0 / 3);
  EXPECT_EQ(CountCol(c), 3);
}

TEST(ComputeTest, ReductionsOnAllNull) {
  Column c = Column::Nulls(DType::kFloat64, 3);
  EXPECT_TRUE(MinCol(c)->is_null());
  EXPECT_TRUE(MaxCol(c)->is_null());
  EXPECT_TRUE(MeanCol(c)->is_null());
  EXPECT_EQ(CountCol(c), 0);
}

class BinOpSweep
    : public ::testing::TestWithParam<std::tuple<BinOp, int64_t, int64_t>> {};

TEST_P(BinOpSweep, IntIdentityProperties) {
  auto [op, a, b] = GetParam();
  auto r = BinaryOp(Column::Int64({a}), Column::Int64({b}), op);
  ASSERT_TRUE(r.ok());
  // Property: op on single-element columns agrees with scalar form.
  auto s = BinaryOpScalar(Column::Int64({a}), Scalar::Int(b), op);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(r->GetScalar(0), s->GetScalar(0));
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BinOpSweep,
    ::testing::Combine(::testing::Values(BinOp::kAdd, BinOp::kSub,
                                         BinOp::kMul, BinOp::kMod),
                       ::testing::Values<int64_t>(-7, 0, 13),
                       ::testing::Values<int64_t>(1, 5)));

}  // namespace
}  // namespace xorbits::dataframe
