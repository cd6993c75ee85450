#include "dataframe/compute.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_set>

#include "common/thread_pool.h"

namespace xorbits::dataframe {

namespace {

/// Rows per morsel for elementwise kernels; disjoint writes make parallel
/// output byte-identical to serial at any thread count.
constexpr int64_t kElemGrain = 16384;

/// Partial-reduction decomposition: bounded partial count, fixed grain as a
/// pure function of n so float merge order never depends on thread count.
inline int64_t ReduceGrain(int64_t n) { return GrainForMorsels(n, kElemGrain, 16); }

std::vector<uint8_t> MergeValidity(const Column& a, const Column& b) {
  if (!a.has_validity() && !b.has_validity()) return {};
  const int64_t n = a.length();
  std::vector<uint8_t> out(n, 1);
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] = (a.IsValid(i) && b.IsValid(i)) ? 1 : 0;
    }
  });
  return out;
}

Status CheckSameLength(const Column& a, const Column& b, const char* what) {
  if (a.length() != b.length()) {
    return Status::Invalid(std::string(what) + ": length mismatch");
  }
  return Status::OK();
}

Status CheckNumeric(const Column& c, const char* what) {
  if (!IsNumeric(c.dtype())) {
    return Status::TypeError(std::string(what) + ": non-numeric dtype " +
                             DTypeName(c.dtype()));
  }
  return Status::OK();
}

double ApplyBinOpDouble(double a, double b, BinOp op) {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kMul: return a * b;
    case BinOp::kDiv: return b == 0.0 ? std::numeric_limits<double>::quiet_NaN()
                                      : a / b;
    case BinOp::kMod: return std::fmod(a, b);
  }
  return 0.0;
}

int64_t ApplyBinOpInt(int64_t a, int64_t b, BinOp op) {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kMul: return a * b;
    case BinOp::kDiv: return b == 0 ? 0 : a / b;
    case BinOp::kMod: return b == 0 ? 0 : a % b;
  }
  return 0;
}

bool ApplyCmpDouble(double a, double b, CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

bool ApplyCmpString(const std::string& a, const std::string& b, CmpOp op) {
  int c = a.compare(b);
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

using StrPred = bool (*)(const std::string&, const std::string&);

Result<Column> StrPredicate(const Column& v, const std::string& arg,
                            StrPred pred, const char* what) {
  if (v.dtype() != DType::kString) {
    return Status::TypeError(std::string(what) + " requires string column");
  }
  const int64_t n = v.length();
  std::vector<uint8_t> out(n, 0);
  common::BufferView<uint8_t> validity = v.validity();
  const uint8_t* valid = v.has_validity() ? validity.data() : nullptr;
  if (v.is_dict()) {
    // Evaluate the predicate once per distinct value, then gather by code:
    // O(nunique) string work instead of O(n).
    const StringDict& d = *v.dict();
    std::vector<uint8_t> per_code(d.size());
    for (int64_t c = 0; c < d.size(); ++c) {
      per_code[c] = pred(d.value(static_cast<int32_t>(c)), arg) ? 1 : 0;
    }
    const int32_t* codes = v.dict_codes().data();
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        out[i] = (valid == nullptr || valid[i]) ? per_code[codes[i]] : 0;
      }
    });
    return Column::Bool(std::move(out), std::move(validity));
  }
  const std::string* data = v.string_data().data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (valid == nullptr || valid[i]) out[i] = pred(data[i], arg) ? 1 : 0;
    }
  });
  return Column::Bool(std::move(out), std::move(validity));
}

/// Resolves a numeric/bool column's dtype once and hands `fn` a tight typed
/// `double(int64_t)` getter, so elementwise inner loops stay branch-light
/// (no per-row dtype dispatch through GetDouble).
template <typename Fn>
void WithDoubleGetter(const Column& c, Fn&& fn) {
  switch (c.dtype()) {
    case DType::kFloat64: {
      const double* p = c.float64_data().data();
      fn([p](int64_t i) { return p[i]; });
      return;
    }
    case DType::kInt64: {
      const int64_t* p = c.int64_data().data();
      fn([p](int64_t i) { return static_cast<double>(p[i]); });
      return;
    }
    default: {
      const uint8_t* p = c.bool_data().data();
      fn([p](int64_t i) { return p[i] ? 1.0 : 0.0; });
      return;
    }
  }
}

}  // namespace

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kDiv: return "div";
    case BinOp::kMod: return "mod";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "eq";
    case CmpOp::kNe: return "ne";
    case CmpOp::kLt: return "lt";
    case CmpOp::kLe: return "le";
    case CmpOp::kGt: return "gt";
    case CmpOp::kGe: return "ge";
  }
  return "?";
}

Result<Column> BinaryOp(const Column& lhs, const Column& rhs, BinOp op) {
  XORBITS_RETURN_NOT_OK(CheckSameLength(lhs, rhs, "BinaryOp"));
  XORBITS_RETURN_NOT_OK(CheckNumeric(lhs, "BinaryOp"));
  XORBITS_RETURN_NOT_OK(CheckNumeric(rhs, "BinaryOp"));
  const int64_t n = lhs.length();
  std::vector<uint8_t> validity = MergeValidity(lhs, rhs);
  const bool as_double = op == BinOp::kDiv ||
                         PromoteNumeric(lhs.dtype(), rhs.dtype()) ==
                             DType::kFloat64;
  if (as_double) {
    std::vector<double> out(n);
    WithDoubleGetter(lhs, [&](auto ga) {
      WithDoubleGetter(rhs, [&](auto gb) {
        ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            out[i] = ApplyBinOpDouble(ga(i), gb(i), op);
          }
        });
      });
    });
    return Column::Float64(std::move(out), std::move(validity));
  }
  const auto& a = lhs.int64_data();
  const auto& b = rhs.int64_data();
  std::vector<int64_t> out(n);
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = ApplyBinOpInt(a[i], b[i], op);
  });
  return Column::Int64(std::move(out), std::move(validity));
}

Result<Column> BinaryOpScalar(const Column& lhs, const Scalar& rhs, BinOp op,
                              bool reverse) {
  XORBITS_RETURN_NOT_OK(CheckNumeric(lhs, "BinaryOpScalar"));
  if (rhs.is_null()) return Column::Nulls(DType::kFloat64, lhs.length());
  if (!rhs.is_numeric()) {
    return Status::TypeError("BinaryOpScalar: non-numeric scalar");
  }
  const int64_t n = lhs.length();
  common::BufferView<uint8_t> validity = lhs.validity();
  const bool as_double =
      op == BinOp::kDiv || lhs.dtype() == DType::kFloat64 || rhs.is_float();
  if (as_double) {
    const double s = rhs.AsDouble();
    std::vector<double> out(n);
    WithDoubleGetter(lhs, [&](auto ga) {
      ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const double v = ga(i);
          out[i] = reverse ? ApplyBinOpDouble(s, v, op)
                           : ApplyBinOpDouble(v, s, op);
        }
      });
    });
    return Column::Float64(std::move(out), std::move(validity));
  }
  const int64_t s = rhs.AsInt();
  const auto& a = lhs.int64_data();
  std::vector<int64_t> out(n);
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] =
          reverse ? ApplyBinOpInt(s, a[i], op) : ApplyBinOpInt(a[i], s, op);
    }
  });
  return Column::Int64(std::move(out), std::move(validity));
}

Result<Column> Compare(const Column& lhs, const Column& rhs, CmpOp op) {
  XORBITS_RETURN_NOT_OK(CheckSameLength(lhs, rhs, "Compare"));
  const int64_t n = lhs.length();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint8_t> validity = MergeValidity(lhs, rhs);
  if (lhs.dtype() == DType::kString && rhs.dtype() == DType::kString) {
    // Equality over one shared dictionary is a pure int32 compare (codes
    // are unique per value). Ordering ops can't use codes — first-seen
    // order is not sorted — so they go through string_at.
    if (lhs.is_dict() && rhs.is_dict() && lhs.dict()->SameAs(*rhs.dict()) &&
        (op == CmpOp::kEq || op == CmpOp::kNe)) {
      const int32_t* a = lhs.dict_codes().data();
      const int32_t* b = rhs.dict_codes().data();
      const uint8_t eq = op == CmpOp::kEq ? 1 : 0;
      ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (lhs.IsValid(i) && rhs.IsValid(i)) {
            out[i] = (a[i] == b[i]) ? eq : 1 - eq;
          }
        }
      });
      return Column::Bool(std::move(out), std::move(validity));
    }
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (lhs.IsValid(i) && rhs.IsValid(i)) {
          out[i] = ApplyCmpString(lhs.string_at(i), rhs.string_at(i), op)
                       ? 1 : 0;
        }
      }
    });
    return Column::Bool(std::move(out), std::move(validity));
  }
  XORBITS_RETURN_NOT_OK(CheckNumeric(lhs, "Compare"));
  XORBITS_RETURN_NOT_OK(CheckNumeric(rhs, "Compare"));
  WithDoubleGetter(lhs, [&](auto ga) {
    WithDoubleGetter(rhs, [&](auto gb) {
      ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (lhs.IsValid(i) && rhs.IsValid(i)) {
            out[i] = ApplyCmpDouble(ga(i), gb(i), op) ? 1 : 0;
          }
        }
      });
    });
  });
  return Column::Bool(std::move(out), std::move(validity));
}

Result<Column> CompareScalar(const Column& lhs, const Scalar& rhs, CmpOp op) {
  const int64_t n = lhs.length();
  std::vector<uint8_t> out(n, 0);
  common::BufferView<uint8_t> validity = lhs.validity();
  if (rhs.is_null()) {
    return Column::Bool(std::vector<uint8_t>(n, 0),
                        std::vector<uint8_t>(n, 0));
  }
  if (lhs.dtype() == DType::kString) {
    if (!rhs.is_string()) {
      return Status::TypeError("CompareScalar: string column vs non-string");
    }
    const std::string& s = rhs.AsString();
    if (lhs.is_dict()) {
      // One string compare per distinct value, then a gather by code.
      const StringDict& d = *lhs.dict();
      std::vector<uint8_t> per_code(d.size());
      for (int64_t c = 0; c < d.size(); ++c) {
        per_code[c] =
            ApplyCmpString(d.value(static_cast<int32_t>(c)), s, op) ? 1 : 0;
      }
      const int32_t* codes = lhs.dict_codes().data();
      ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (lhs.IsValid(i)) out[i] = per_code[codes[i]];
        }
      });
      return Column::Bool(std::move(out), std::move(validity));
    }
    const std::string* a = lhs.string_data().data();
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (lhs.IsValid(i)) out[i] = ApplyCmpString(a[i], s, op) ? 1 : 0;
      }
    });
    return Column::Bool(std::move(out), std::move(validity));
  }
  if (lhs.dtype() == DType::kBool) {
    if (!rhs.is_bool()) {
      return Status::TypeError("CompareScalar: bool column vs non-bool");
    }
    const double s = rhs.AsBool() ? 1.0 : 0.0;
    const auto& a = lhs.bool_data();
    for (int64_t i = 0; i < n; ++i) {
      if (lhs.IsValid(i)) {
        out[i] = ApplyCmpDouble(a[i] ? 1.0 : 0.0, s, op) ? 1 : 0;
      }
    }
    return Column::Bool(std::move(out), std::move(validity));
  }
  XORBITS_RETURN_NOT_OK(CheckNumeric(lhs, "CompareScalar"));
  if (!rhs.is_numeric()) {
    return Status::TypeError("CompareScalar: numeric column vs non-numeric");
  }
  const double s = rhs.AsDouble();
  WithDoubleGetter(lhs, [&](auto ga) {
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (lhs.IsValid(i)) {
          out[i] = ApplyCmpDouble(ga(i), s, op) ? 1 : 0;
        }
      }
    });
  });
  return Column::Bool(std::move(out), std::move(validity));
}

Result<Column> And(const Column& lhs, const Column& rhs) {
  XORBITS_RETURN_NOT_OK(CheckSameLength(lhs, rhs, "And"));
  if (lhs.dtype() != DType::kBool || rhs.dtype() != DType::kBool) {
    return Status::TypeError("And requires bool columns");
  }
  const int64_t n = lhs.length();
  std::vector<uint8_t> out(n);
  std::vector<uint8_t> validity = MergeValidity(lhs, rhs);
  const auto& a = lhs.bool_data();
  const auto& b = rhs.bool_data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = (a[i] && b[i]) ? 1 : 0;
  });
  return Column::Bool(std::move(out), std::move(validity));
}

Result<Column> Or(const Column& lhs, const Column& rhs) {
  XORBITS_RETURN_NOT_OK(CheckSameLength(lhs, rhs, "Or"));
  if (lhs.dtype() != DType::kBool || rhs.dtype() != DType::kBool) {
    return Status::TypeError("Or requires bool columns");
  }
  const int64_t n = lhs.length();
  std::vector<uint8_t> out(n);
  std::vector<uint8_t> validity = MergeValidity(lhs, rhs);
  const auto& a = lhs.bool_data();
  const auto& b = rhs.bool_data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = (a[i] || b[i]) ? 1 : 0;
  });
  return Column::Bool(std::move(out), std::move(validity));
}

Result<Column> Not(const Column& v) {
  if (v.dtype() != DType::kBool) {
    return Status::TypeError("Not requires bool column");
  }
  const int64_t n = v.length();
  std::vector<uint8_t> out(n);
  common::BufferView<uint8_t> validity = v.validity();
  const auto& a = v.bool_data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = a[i] ? 0 : 1;
  });
  return Column::Bool(std::move(out), std::move(validity));
}

Column IsNullCol(const Column& v) {
  const int64_t n = v.length();
  std::vector<uint8_t> out(n, 0);
  for (int64_t i = 0; i < n; ++i) out[i] = v.IsNull(i) ? 1 : 0;
  return Column::Bool(std::move(out));
}

Column NotNullCol(const Column& v) {
  const int64_t n = v.length();
  std::vector<uint8_t> out(n, 0);
  for (int64_t i = 0; i < n; ++i) out[i] = v.IsValid(i) ? 1 : 0;
  return Column::Bool(std::move(out));
}

// IsIn stays off the key index: its float equality is numeric (-0.0
// matches 0.0), not bitwise.
Result<Column> IsIn(const Column& v, const std::vector<Scalar>& values) {
  const int64_t n = v.length();
  std::vector<uint8_t> out(n, 0);
  common::BufferView<uint8_t> validity = v.validity();
  if (v.dtype() == DType::kString) {
    std::unordered_set<std::string> set;
    for (const auto& s : values) {
      if (s.is_string()) set.insert(s.AsString());
    }
    if (v.is_dict()) {
      // One set probe per distinct value, then a gather by code.
      const StringDict& d = *v.dict();
      std::vector<uint8_t> per_code(d.size());
      for (int64_t c = 0; c < d.size(); ++c) {
        per_code[c] = set.count(d.value(static_cast<int32_t>(c))) ? 1 : 0;
      }
      const int32_t* codes = v.dict_codes().data();
      ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (v.IsValid(i)) out[i] = per_code[codes[i]];
        }
      });
      return Column::Bool(std::move(out), std::move(validity));
    }
    const std::string* data = v.string_data().data();
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (v.IsValid(i)) out[i] = set.count(data[i]) ? 1 : 0;
      }
    });
    return Column::Bool(std::move(out), std::move(validity));
  }
  if (v.dtype() == DType::kInt64) {
    // Exact: a float value matches only when it is integral and in range,
    // so 2^53 + 1 never matches 2^53 through a double.
    std::unordered_set<int64_t> set;
    for (const auto& s : values) {
      if (s.is_int()) {
        set.insert(s.AsInt());
      } else if (s.is_float()) {
        const double d = s.AsDouble();
        if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
          set.insert(static_cast<int64_t>(d));
        }
      }
    }
    const int64_t* data = v.int64_data().data();
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (v.IsValid(i)) out[i] = set.count(data[i]) ? 1 : 0;
      }
    });
    return Column::Bool(std::move(out), std::move(validity));
  }
  if (v.dtype() == DType::kFloat64) {
    std::unordered_set<double> set;
    for (const auto& s : values) {
      if (s.is_numeric()) set.insert(s.AsDouble());
    }
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (v.IsValid(i)) out[i] = set.count(v.GetDouble(i)) ? 1 : 0;
      }
    });
    return Column::Bool(std::move(out), std::move(validity));
  }
  return Status::TypeError("IsIn: unsupported dtype");
}

Result<Column> Negate(const Column& v) {
  XORBITS_RETURN_NOT_OK(CheckNumeric(v, "Negate"));
  return BinaryOpScalar(v, Scalar::Int(-1), BinOp::kMul);
}

Result<Column> StrContains(const Column& v, const std::string& needle) {
  return StrPredicate(
      v, needle,
      [](const std::string& s, const std::string& a) {
        return s.find(a) != std::string::npos;
      },
      "StrContains");
}

Result<Column> StrStartsWith(const Column& v, const std::string& prefix) {
  return StrPredicate(
      v, prefix,
      [](const std::string& s, const std::string& a) {
        return s.size() >= a.size() && s.compare(0, a.size(), a) == 0;
      },
      "StrStartsWith");
}

Result<Column> StrEndsWith(const Column& v, const std::string& suffix) {
  return StrPredicate(
      v, suffix,
      [](const std::string& s, const std::string& a) {
        return s.size() >= a.size() &&
               s.compare(s.size() - a.size(), a.size(), a) == 0;
      },
      "StrEndsWith");
}

namespace {
template <typename F>
Result<Column> StrMapString(const Column& v, F f, const char* what) {
  if (v.dtype() != DType::kString) {
    return Status::TypeError(std::string(what) + " requires string column");
  }
  const int64_t n = v.length();
  common::BufferView<uint8_t> validity = v.validity();
  if (v.is_dict()) {
    // Map each distinct value once; the mapped values may collide (e.g.
    // lower-casing), so re-dedup through a DictBuilder and remap codes.
    const StringDict& d = *v.dict();
    DictBuilder builder;
    std::vector<int32_t> remap(d.size());
    for (int64_t c = 0; c < d.size(); ++c) {
      remap[c] = builder.GetOrAdd(f(d.value(static_cast<int32_t>(c))));
    }
    const int32_t* codes = v.dict_codes().data();
    const uint8_t* valid = v.has_validity() ? validity.data() : nullptr;
    std::vector<int32_t> out_codes(n, 0);
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (valid == nullptr || valid[i]) out_codes[i] = remap[codes[i]];
      }
    });
    return Column::Dictionary(
        common::BufferView<int32_t>(std::move(out_codes)), builder.Finish(),
        std::move(validity));
  }
  std::vector<std::string> out(n);
  const std::string* data = v.string_data().data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (v.IsValid(i)) out[i] = f(data[i]);
    }
  });
  return Column::String(std::move(out), std::move(validity));
}

template <typename F>
Result<Column> DateMapInt(const Column& dates, F f, const char* what) {
  if (dates.dtype() != DType::kInt64) {
    return Status::TypeError(std::string(what) +
                             " requires int64 date column");
  }
  const int64_t n = dates.length();
  std::vector<int64_t> out(n);
  common::BufferView<uint8_t> validity = dates.validity();
  const auto& data = dates.int64_data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = f(data[i]);
  });
  return Column::Int64(std::move(out), std::move(validity));
}
}  // namespace

Result<Column> StrSlice(const Column& v, int64_t start, int64_t stop) {
  return StrMapString(v, [&](const std::string& s) {
    int64_t b = std::min<int64_t>(start, s.size());
    int64_t e = std::min<int64_t>(stop, s.size());
    return e > b ? s.substr(b, e - b) : std::string();
  }, "StrSlice");
}

Result<Column> StrUpper(const Column& v) {
  return StrMapString(v, [](const std::string& s) {
    std::string o = s;
    for (char& ch : o) ch = static_cast<char>(toupper(ch));
    return o;
  }, "StrUpper");
}

Result<Column> StrLower(const Column& v) {
  return StrMapString(v, [](const std::string& s) {
    std::string o = s;
    for (char& ch : o) ch = static_cast<char>(tolower(ch));
    return o;
  }, "StrLower");
}

Result<Column> StrStrip(const Column& v) {
  return StrMapString(v, [](const std::string& s) {
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) return std::string();
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
  }, "StrStrip");
}

Result<Column> StrReplace(const Column& v, const std::string& from,
                          const std::string& to) {
  if (from.empty()) return v;
  return StrMapString(v, [&](const std::string& s) {
    std::string o;
    size_t pos = 0;
    for (;;) {
      size_t hit = s.find(from, pos);
      if (hit == std::string::npos) {
        o.append(s, pos, std::string::npos);
        return o;
      }
      o.append(s, pos, hit - pos);
      o.append(to);
      pos = hit + from.size();
    }
  }, "StrReplace");
}

Result<Column> StrLen(const Column& v) {
  if (v.dtype() != DType::kString) {
    return Status::TypeError("StrLen requires string column");
  }
  const int64_t n = v.length();
  std::vector<int64_t> out(n, 0);
  common::BufferView<uint8_t> validity = v.validity();
  if (v.is_dict()) {
    // Lengths computed once per distinct value, gathered by code.
    const StringDict& d = *v.dict();
    std::vector<int64_t> per_code(d.size());
    for (int64_t c = 0; c < d.size(); ++c) {
      per_code[c] =
          static_cast<int64_t>(d.value(static_cast<int32_t>(c)).size());
    }
    const int32_t* codes = v.dict_codes().data();
    ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (v.IsValid(i)) out[i] = per_code[codes[i]];
      }
    });
    return Column::Int64(std::move(out), std::move(validity));
  }
  const std::string* data = v.string_data().data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (v.IsValid(i)) out[i] = static_cast<int64_t>(data[i].size());
    }
  });
  return Column::Int64(std::move(out), std::move(validity));
}

// Howard Hinnant's civil date algorithms.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* year, int* month, int* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

Result<int64_t> ParseDate(const std::string& text) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3 || m < 1 ||
      m > 12 || d < 1 || d > 31) {
    return Status::Invalid("bad date: " + text);
  }
  return DaysFromCivil(y, m, d);
}

std::string FormatDate(int64_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

Result<Column> Year(const Column& dates) {
  if (dates.dtype() != DType::kInt64) {
    return Status::TypeError("Year requires int64 date column");
  }
  const int64_t n = dates.length();
  std::vector<int64_t> out(n);
  common::BufferView<uint8_t> validity = dates.validity();
  const auto& data = dates.int64_data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      int y, m, d;
      CivilFromDays(data[i], &y, &m, &d);
      out[i] = y;
    }
  });
  return Column::Int64(std::move(out), std::move(validity));
}

Result<Column> Month(const Column& dates) {
  if (dates.dtype() != DType::kInt64) {
    return Status::TypeError("Month requires int64 date column");
  }
  const int64_t n = dates.length();
  std::vector<int64_t> out(n);
  common::BufferView<uint8_t> validity = dates.validity();
  const auto& data = dates.int64_data();
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      int y, m, d;
      CivilFromDays(data[i], &y, &m, &d);
      out[i] = m;
    }
  });
  return Column::Int64(std::move(out), std::move(validity));
}

Result<Column> Day(const Column& dates) {
  return DateMapInt(dates, [](int64_t days) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    return static_cast<int64_t>(d);
  }, "Day");
}

Result<Column> Quarter(const Column& dates) {
  return DateMapInt(dates, [](int64_t days) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    return static_cast<int64_t>((m - 1) / 3 + 1);
  }, "Quarter");
}

Result<Column> WeekDay(const Column& dates) {
  return DateMapInt(dates, [](int64_t days) {
    // 1970-01-01 was a Thursday (weekday 3, Monday = 0).
    int64_t wd = (days + 3) % 7;
    if (wd < 0) wd += 7;
    return wd;
  }, "WeekDay");
}

Result<Scalar> SumCol(const Column& v) {
  if (v.dtype() == DType::kInt64 && !v.has_validity()) {
    int64_t s = 0;
    for (int64_t x : v.int64_data()) s += x;
    return Scalar::Int(s);
  }
  if (!IsNumeric(v.dtype()) && v.dtype() != DType::kBool) {
    return Status::TypeError("SumCol: non-numeric");
  }
  double s = 0;
  bool is_int = v.dtype() == DType::kInt64;
  const int64_t n = v.length();
  const uint8_t* valid = v.has_validity() ? v.validity().data() : nullptr;
  WithDoubleGetter(v, [&](auto ga) {
    for (int64_t i = 0; i < n; ++i) {
      if (valid == nullptr || valid[i]) s += ga(i);
    }
  });
  if (is_int) return Scalar::Int(static_cast<int64_t>(s));
  return Scalar::Float(s);
}

Result<Scalar> MinCol(const Column& v) {
  Scalar best = Scalar::Null();
  for (int64_t i = 0; i < v.length(); ++i) {
    if (!v.IsValid(i)) continue;
    Scalar s = v.GetScalar(i);
    if (best.is_null() || s < best) best = s;
  }
  return best;
}

Result<Scalar> MaxCol(const Column& v) {
  Scalar best = Scalar::Null();
  for (int64_t i = 0; i < v.length(); ++i) {
    if (!v.IsValid(i)) continue;
    Scalar s = v.GetScalar(i);
    if (best.is_null() || best < s) best = s;
  }
  return best;
}

Result<Scalar> MeanCol(const Column& v) {
  if (!IsNumeric(v.dtype()) && v.dtype() != DType::kBool) {
    return Status::TypeError("MeanCol: non-numeric");
  }
  double s = 0;
  int64_t cnt = 0;
  const int64_t n = v.length();
  const uint8_t* valid = v.has_validity() ? v.validity().data() : nullptr;
  WithDoubleGetter(v, [&](auto ga) {
    for (int64_t i = 0; i < n; ++i) {
      if (valid == nullptr || valid[i]) {
        s += ga(i);
        ++cnt;
      }
    }
  });
  if (cnt == 0) return Scalar::Null();
  return Scalar::Float(s / cnt);
}

int64_t CountCol(const Column& v) {
  return v.length() - v.null_count();
}

}  // namespace xorbits::dataframe
