#include "operators/expr.h"

#include <sstream>

#include "common/thread_pool.h"

namespace xorbits::operators {

using dataframe::BinOp;
using dataframe::CmpOp;
using dataframe::Column;
using dataframe::DataFrame;
using dataframe::Scalar;

void Expr::CollectColumns(std::set<std::string>* out) const {
  if (kind == Kind::kColumn) out->insert(column);
  for (const auto& c : children) c->CollectColumns(out);
}

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kColumn: os << column; break;
    case Kind::kLiteral: os << literal.ToString(); break;
    case Kind::kBinary:
      os << "(" << children[0]->ToString() << " "
         << dataframe::BinOpName(bin_op) << " " << children[1]->ToString()
         << ")";
      break;
    case Kind::kCompare:
      os << "(" << children[0]->ToString() << " "
         << dataframe::CmpOpName(cmp_op) << " " << children[1]->ToString()
         << ")";
      break;
    case Kind::kAnd:
      os << "(" << children[0]->ToString() << " & " << children[1]->ToString()
         << ")";
      break;
    case Kind::kOr:
      os << "(" << children[0]->ToString() << " | " << children[1]->ToString()
         << ")";
      break;
    case Kind::kNot: os << "~" << children[0]->ToString(); break;
    case Kind::kIsIn: os << children[0]->ToString() << ".isin([...])"; break;
    case Kind::kIsNull: os << children[0]->ToString() << ".isnull()"; break;
    case Kind::kNotNull: os << children[0]->ToString() << ".notnull()"; break;
    case Kind::kStrContains:
      os << children[0]->ToString() << ".str.contains('" << str_arg << "')";
      break;
    case Kind::kStrStartsWith:
      os << children[0]->ToString() << ".str.startswith('" << str_arg << "')";
      break;
    case Kind::kStrEndsWith:
      os << children[0]->ToString() << ".str.endswith('" << str_arg << "')";
      break;
    case Kind::kYear: os << children[0]->ToString() << ".dt.year"; break;
    case Kind::kStrSlice:
      os << children[0]->ToString() << ".str[" << slice_start << ":"
         << slice_stop << "]";
      break;
    case Kind::kMonth: os << children[0]->ToString() << ".dt.month"; break;
    case Kind::kStrUpper: os << children[0]->ToString() << ".str.upper()"; break;
    case Kind::kStrLower: os << children[0]->ToString() << ".str.lower()"; break;
    case Kind::kStrLen: os << children[0]->ToString() << ".str.len()"; break;
    case Kind::kStrStrip: os << children[0]->ToString() << ".str.strip()"; break;
    case Kind::kStrReplace:
      os << children[0]->ToString() << ".str.replace('" << str_arg << "', '"
         << str_arg2 << "')";
      break;
    case Kind::kDay: os << children[0]->ToString() << ".dt.day"; break;
    case Kind::kQuarter:
      os << children[0]->ToString() << ".dt.quarter";
      break;
    case Kind::kWeekDay:
      os << children[0]->ToString() << ".dt.weekday";
      break;
  }
  return os.str();
}

namespace {
std::shared_ptr<Expr> MakeExpr(Expr::Kind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}
}  // namespace

ExprPtr Col(std::string name) {
  auto e = MakeExpr(Expr::Kind::kColumn);
  e->column = std::move(name);
  return e;
}
ExprPtr Lit(Scalar value) {
  auto e = MakeExpr(Expr::Kind::kLiteral);
  e->literal = std::move(value);
  return e;
}
ExprPtr Lit(int64_t value) { return Lit(Scalar::Int(value)); }
ExprPtr Lit(double value) { return Lit(Scalar::Float(value)); }
ExprPtr Lit(const char* value) { return Lit(Scalar::Str(value)); }

ExprPtr BinaryExpr(ExprPtr lhs, BinOp op, ExprPtr rhs) {
  auto e = MakeExpr(Expr::Kind::kBinary);
  e->bin_op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr CompareExpr(ExprPtr lhs, CmpOp op, ExprPtr rhs) {
  auto e = MakeExpr(Expr::Kind::kCompare);
  e->cmp_op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr AndExpr(ExprPtr lhs, ExprPtr rhs) {
  auto e = MakeExpr(Expr::Kind::kAnd);
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr OrExpr(ExprPtr lhs, ExprPtr rhs) {
  auto e = MakeExpr(Expr::Kind::kOr);
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr NotExpr(ExprPtr v) {
  auto e = MakeExpr(Expr::Kind::kNot);
  e->children = {std::move(v)};
  return e;
}
ExprPtr IsInExpr(ExprPtr v, std::vector<Scalar> values) {
  auto e = MakeExpr(Expr::Kind::kIsIn);
  e->children = {std::move(v)};
  e->in_list = std::move(values);
  return e;
}
ExprPtr IsNullExpr(ExprPtr v) {
  auto e = MakeExpr(Expr::Kind::kIsNull);
  e->children = {std::move(v)};
  return e;
}
ExprPtr NotNullExpr(ExprPtr v) {
  auto e = MakeExpr(Expr::Kind::kNotNull);
  e->children = {std::move(v)};
  return e;
}
ExprPtr StrContainsExpr(ExprPtr v, std::string needle) {
  auto e = MakeExpr(Expr::Kind::kStrContains);
  e->children = {std::move(v)};
  e->str_arg = std::move(needle);
  return e;
}
ExprPtr StrStartsWithExpr(ExprPtr v, std::string prefix) {
  auto e = MakeExpr(Expr::Kind::kStrStartsWith);
  e->children = {std::move(v)};
  e->str_arg = std::move(prefix);
  return e;
}
ExprPtr StrEndsWithExpr(ExprPtr v, std::string suffix) {
  auto e = MakeExpr(Expr::Kind::kStrEndsWith);
  e->children = {std::move(v)};
  e->str_arg = std::move(suffix);
  return e;
}
ExprPtr YearExpr(ExprPtr v) {
  auto e = MakeExpr(Expr::Kind::kYear);
  e->children = {std::move(v)};
  return e;
}
ExprPtr MonthExpr(ExprPtr v) {
  auto e = MakeExpr(Expr::Kind::kMonth);
  e->children = {std::move(v)};
  return e;
}
ExprPtr StrSliceExpr(ExprPtr v, int64_t start, int64_t stop) {
  auto e = MakeExpr(Expr::Kind::kStrSlice);
  e->children = {std::move(v)};
  e->slice_start = start;
  e->slice_stop = stop;
  return e;
}
namespace {
ExprPtr Unary(Expr::Kind kind, ExprPtr v) {
  auto e = MakeExpr(kind);
  e->children = {std::move(v)};
  return e;
}
}  // namespace
ExprPtr StrUpperExpr(ExprPtr v) { return Unary(Expr::Kind::kStrUpper, std::move(v)); }
ExprPtr StrLowerExpr(ExprPtr v) { return Unary(Expr::Kind::kStrLower, std::move(v)); }
ExprPtr StrLenExpr(ExprPtr v) { return Unary(Expr::Kind::kStrLen, std::move(v)); }
ExprPtr StrStripExpr(ExprPtr v) { return Unary(Expr::Kind::kStrStrip, std::move(v)); }
ExprPtr StrReplaceExpr(ExprPtr v, std::string from, std::string to) {
  auto e = MakeExpr(Expr::Kind::kStrReplace);
  e->children = {std::move(v)};
  e->str_arg = std::move(from);
  e->str_arg2 = std::move(to);
  return e;
}
ExprPtr DayExpr(ExprPtr v) { return Unary(Expr::Kind::kDay, std::move(v)); }
ExprPtr QuarterExpr(ExprPtr v) { return Unary(Expr::Kind::kQuarter, std::move(v)); }
ExprPtr WeekDayExpr(ExprPtr v) { return Unary(Expr::Kind::kWeekDay, std::move(v)); }

namespace {

/// Whole-column recursive evaluation; every elementwise kernel it calls is
/// itself morsel-parallel (see dataframe/compute.cc).
Result<Column> EvalExprImpl(const DataFrame& df, const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      XORBITS_ASSIGN_OR_RETURN(const Column* c, df.GetColumn(expr.column));
      return *c;
    }
    case Expr::Kind::kLiteral:
      return Column::Full(
          expr.literal.is_string() ? dataframe::DType::kString
          : expr.literal.is_int() ? dataframe::DType::kInt64
          : expr.literal.is_bool() ? dataframe::DType::kBool
                                   : dataframe::DType::kFloat64,
          df.num_rows(), expr.literal);
    case Expr::Kind::kBinary: {
      // Literal operands avoid materializing a constant column.
      const Expr& l = *expr.children[0];
      const Expr& r = *expr.children[1];
      if (r.kind == Expr::Kind::kLiteral) {
        XORBITS_ASSIGN_OR_RETURN(Column lc, EvalExprImpl(df, l));
        return dataframe::BinaryOpScalar(lc, r.literal, expr.bin_op);
      }
      if (l.kind == Expr::Kind::kLiteral) {
        XORBITS_ASSIGN_OR_RETURN(Column rc, EvalExprImpl(df, r));
        return dataframe::BinaryOpScalar(rc, l.literal, expr.bin_op,
                                         /*reverse=*/true);
      }
      XORBITS_ASSIGN_OR_RETURN(Column lc, EvalExprImpl(df, l));
      XORBITS_ASSIGN_OR_RETURN(Column rc, EvalExprImpl(df, r));
      return dataframe::BinaryOp(lc, rc, expr.bin_op);
    }
    case Expr::Kind::kCompare: {
      const Expr& l = *expr.children[0];
      const Expr& r = *expr.children[1];
      if (r.kind == Expr::Kind::kLiteral) {
        XORBITS_ASSIGN_OR_RETURN(Column lc, EvalExprImpl(df, l));
        return dataframe::CompareScalar(lc, r.literal, expr.cmp_op);
      }
      XORBITS_ASSIGN_OR_RETURN(Column lc, EvalExprImpl(df, l));
      XORBITS_ASSIGN_OR_RETURN(Column rc, EvalExprImpl(df, r));
      return dataframe::Compare(lc, rc, expr.cmp_op);
    }
    case Expr::Kind::kAnd: {
      XORBITS_ASSIGN_OR_RETURN(Column l, EvalExprImpl(df, *expr.children[0]));
      XORBITS_ASSIGN_OR_RETURN(Column r, EvalExprImpl(df, *expr.children[1]));
      return dataframe::And(l, r);
    }
    case Expr::Kind::kOr: {
      XORBITS_ASSIGN_OR_RETURN(Column l, EvalExprImpl(df, *expr.children[0]));
      XORBITS_ASSIGN_OR_RETURN(Column r, EvalExprImpl(df, *expr.children[1]));
      return dataframe::Or(l, r);
    }
    case Expr::Kind::kNot: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::Not(v);
    }
    case Expr::Kind::kIsIn: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::IsIn(v, expr.in_list);
    }
    case Expr::Kind::kIsNull: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::IsNullCol(v);
    }
    case Expr::Kind::kNotNull: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::NotNullCol(v);
    }
    case Expr::Kind::kStrContains: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrContains(v, expr.str_arg);
    }
    case Expr::Kind::kStrStartsWith: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrStartsWith(v, expr.str_arg);
    }
    case Expr::Kind::kStrEndsWith: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrEndsWith(v, expr.str_arg);
    }
    case Expr::Kind::kYear: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::Year(v);
    }
    case Expr::Kind::kMonth: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::Month(v);
    }
    case Expr::Kind::kStrSlice: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrSlice(v, expr.slice_start, expr.slice_stop);
    }
    case Expr::Kind::kStrUpper: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrUpper(v);
    }
    case Expr::Kind::kStrLower: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrLower(v);
    }
    case Expr::Kind::kStrLen: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrLen(v);
    }
    case Expr::Kind::kStrStrip: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrStrip(v);
    }
    case Expr::Kind::kStrReplace: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::StrReplace(v, expr.str_arg, expr.str_arg2);
    }
    case Expr::Kind::kDay: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::Day(v);
    }
    case Expr::Kind::kQuarter: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::Quarter(v);
    }
    case Expr::Kind::kWeekDay: {
      XORBITS_ASSIGN_OR_RETURN(Column v, EvalExprImpl(df, *expr.children[0]));
      return dataframe::WeekDay(v);
    }
  }
  return Status::Invalid("unreachable expr kind");
}

}  // namespace

Result<Column> EvalExpr(const DataFrame& df, const Expr& expr) {
  const int64_t n = df.num_rows();
  const int64_t grain = GrainForMorsels(n, 16384, 8);
  const int64_t morsels = NumMorsels(0, n, grain);
  if (morsels < 2 || expr.kind == Expr::Kind::kColumn ||
      expr.kind == Expr::Kind::kLiteral) {
    return EvalExprImpl(df, expr);
  }
  // Morsel-driven tree evaluation: project the referenced columns once,
  // then each morsel evaluates the whole expression over its row slice so
  // intermediates stay cache-sized. Slices are row-local computations and
  // concatenate in morsel order, so the result is byte-identical to the
  // whole-column path at any thread count. (Kernels invoked inside a
  // morsel run their own ParallelFor inline — no nested fan-out.)
  std::set<std::string> used;
  expr.CollectColumns(&used);
  DataFrame projected;
  for (const auto& name : used) {
    XORBITS_ASSIGN_OR_RETURN(const Column* c, df.GetColumn(name));
    XORBITS_RETURN_NOT_OK(projected.SetColumn(name, *c));
  }
  if (projected.num_columns() == 0) return EvalExprImpl(df, expr);

  std::vector<Column> parts(morsels);
  std::vector<Status> statuses(morsels, Status::OK());
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    const int64_t m = lo / grain;
    DataFrame slice = projected.SliceRows(lo, hi - lo);
    Result<Column> r = EvalExprImpl(slice, expr);
    if (r.ok()) {
      parts[m] = std::move(*r);
    } else {
      statuses[m] = r.status();
    }
  });
  for (const Status& st : statuses) {
    XORBITS_RETURN_NOT_OK(st);
  }
  std::vector<const Column*> piece_ptrs;
  piece_ptrs.reserve(morsels);
  for (const Column& c : parts) piece_ptrs.push_back(&c);
  return Column::Concat(piece_ptrs);
}

namespace {

/// Deferred transform: an expression plus a snapshot of the columns it
/// reads. Load(rows) rebinds the snapshot's selection to exactly the rows
/// the consumer still wants and evaluates the tree there — row-wise
/// expressions commute with row selection, so this equals evaluating
/// eagerly at assignment time and gathering afterwards. The snapshot shares
/// the source frame's lazy state (sources, resolution cells), so deferring
/// an expression over a lazy read keeps the whole chain lazy.
class ExprSource : public dataframe::ColumnSource {
 public:
  ExprSource(DataFrame snapshot, ExprPtr expr, dataframe::DType dtype,
             int64_t base_rows)
      : snapshot_(std::move(snapshot)),
        expr_(std::move(expr)),
        dtype_(dtype),
        base_rows_(base_rows) {}

  dataframe::DType dtype() const override { return dtype_; }
  int64_t length() const override { return base_rows_; }
  int64_t nbytes_hint() const override {
    // Dense estimate at 8 bytes/row — exact for numeric outputs, order-of-
    // magnitude for strings; only nbytes() estimates consume this.
    return base_rows_ * 8;
  }
  std::string describe() const override {
    return "expr:" + expr_->ToString();
  }

  Result<Column> Load(const std::vector<int64_t>& rows) const override {
    return EvalExpr(snapshot_.WithSelectionRows(rows), *expr_);
  }
  Result<Column> LoadAll() const override {
    // Only reachable when the consumer frame has no pending selection,
    // which implies the snapshot has none either (selections only narrow).
    return EvalExpr(snapshot_, *expr_);
  }

 private:
  DataFrame snapshot_;
  ExprPtr expr_;
  dataframe::DType dtype_;
  int64_t base_rows_;
};

}  // namespace

Result<dataframe::ColumnSourcePtr> MakeDeferredExprSource(
    const DataFrame& df, ExprPtr expr) {
  if (!expr) return Status::Invalid("MakeDeferredExprSource: null expr");
  // Snapshot only what the expression reads; Select shares lazy state, so
  // this costs a few shared_ptr copies regardless of frame width.
  std::set<std::string> used;
  expr->CollectColumns(&used);
  std::vector<std::string> present;
  for (const auto& name : used) {
    if (!df.HasColumn(name)) {
      return Status::KeyError("MakeDeferredExprSource: no column '" + name +
                              "'");
    }
    present.push_back(name);
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame snapshot, df.Select(present));
  // Probe the output dtype on a zero-row frame — no decode, no compute.
  XORBITS_ASSIGN_OR_RETURN(Column probe,
                           EvalExpr(DataFrame::EmptyLike(snapshot), *expr));
  ChargeScoped(CounterId::kDeferredTransforms);
  // Base length comes from the consumer frame, not the snapshot: a
  // column-less snapshot (constant expression) has no base of its own.
  return dataframe::ColumnSourcePtr(std::make_shared<ExprSource>(
      std::move(snapshot), std::move(expr), probe.dtype(), df.base_rows()));
}

}  // namespace xorbits::operators
