#include "dataframe/reshape.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dataframe/key_hash.h"

namespace xorbits::dataframe {

Result<DataFrame> SpreadToWide(const DataFrame& aggregated,
                               const std::vector<std::string>& index,
                               const std::string& columns,
                               const std::string& value) {
  if (index.empty()) return Status::Invalid("pivot_table: empty index");
  XORBITS_ASSIGN_OR_RETURN(const Column* col_col,
                           aggregated.GetColumn(columns));
  XORBITS_ASSIGN_OR_RETURN(const Column* val_col,
                           aggregated.GetColumn(value));
  std::vector<const Column*> index_cols;
  for (const auto& k : index) {
    XORBITS_ASSIGN_OR_RETURN(const Column* c, aggregated.GetColumn(k));
    index_cols.push_back(c);
  }
  // The cell-fill loop below reads value rows through string_data, which a
  // dictionary column doesn't have — decode up front (counted fallback).
  Column decoded_val;
  if (val_col->dtype() == DType::kString && val_col->is_dict()) {
    decoded_val = val_col->DecodedFallback();
    val_col = &decoded_val;
  }
  const int64_t n = aggregated.num_rows();

  // One output column per distinct `columns` key, ordered by value (pandas
  // sorts them; NaN goes last); each row fills the column of its own key,
  // so distinct keys that Scalar order ties (+0.0 and -0.0, NaN payloads)
  // keep their own rows.
  std::vector<int64_t> col_ids, col_rep;
  const int64_t num_cols = BuildGroups({col_col}, &col_ids, &col_rep);
  std::vector<int64_t> col_order(num_cols);
  std::iota(col_order.begin(), col_order.end(), 0);
  std::vector<Scalar> col_value(num_cols);
  for (int64_t c = 0; c < num_cols; ++c) {
    col_value[c] = col_col->GetScalar(col_rep[c]);
  }
  const auto is_nan = [](const Scalar& s) {
    return s.is_float() && std::isnan(s.AsDouble());
  };
  std::stable_sort(col_order.begin(), col_order.end(),
                   [&](int64_t a, int64_t b) {
                     const bool na = is_nan(col_value[a]);
                     const bool nb = is_nan(col_value[b]);
                     if (na || nb) return !na && nb;
                     return col_value[a] < col_value[b];
                   });

  // Distinct index tuples in first-seen order (input is sorted by the
  // upstream groupby).
  std::vector<int64_t> row_ids, rep_row;
  const int64_t rows = BuildGroups(index_cols, &row_ids, &rep_row);

  std::vector<Column> cells(num_cols, Column::Nulls(val_col->dtype(), rows));
  for (int64_t i = 0; i < n; ++i) {
    if (val_col->IsNull(i)) continue;
    Column& cell = cells[col_ids[i]];
    const int64_t r = row_ids[i];
    switch (cell.dtype()) {
      case DType::kInt64:
        cell.mutable_int64_data()[r] = val_col->int64_data()[i];
        break;
      case DType::kFloat64:
        cell.mutable_float64_data()[r] = val_col->float64_data()[i];
        break;
      case DType::kString:
        cell.mutable_string_data()[r] = val_col->string_data()[i];
        break;
      case DType::kBool:
        cell.mutable_bool_data()[r] = val_col->bool_data()[i];
        break;
    }
    cell.mutable_validity()[r] = 1;
  }

  DataFrame out;
  for (size_t k = 0; k < index.size(); ++k) {
    XORBITS_RETURN_NOT_OK(out.SetColumn(index[k], index_cols[k]->Take(rep_row)));
  }
  for (const int64_t c : col_order) {
    XORBITS_RETURN_NOT_OK(
        out.SetColumn(col_value[c].ToString(), std::move(cells[c])));
  }
  return out;
}

Result<DataFrame> PivotTable(const DataFrame& df,
                             const std::vector<std::string>& index,
                             const std::string& columns,
                             const std::string& values, AggFunc func) {
  std::vector<std::string> keys = index;
  keys.push_back(columns);
  XORBITS_ASSIGN_OR_RETURN(
      DataFrame aggregated,
      GroupByAgg(df, keys, {{values, func, "__pivot_value__"}}));
  return SpreadToWide(aggregated, index, columns, "__pivot_value__");
}

Result<Column> CumSumCol(const Column& col) {
  if (!IsNumeric(col.dtype())) {
    return Status::TypeError("cumsum on non-numeric column");
  }
  const int64_t n = col.length();
  common::BufferView<uint8_t> validity = col.validity();
  if (col.dtype() == DType::kInt64 && !col.has_validity()) {
    std::vector<int64_t> out(n);
    int64_t acc = 0;
    const auto& data = col.int64_data();
    for (int64_t i = 0; i < n; ++i) {
      acc += data[i];
      out[i] = acc;
    }
    return Column::Int64(std::move(out));
  }
  std::vector<double> out(n, 0.0);
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    if (col.IsValid(i)) acc += col.GetDouble(i);
    out[i] = acc;
  }
  return Column::Float64(std::move(out), std::move(validity));
}

Result<Column> RollingMeanCol(const Column& col, int64_t window) {
  if (!IsNumeric(col.dtype())) {
    return Status::TypeError("rolling mean on non-numeric column");
  }
  if (window <= 0) return Status::Invalid("rolling window must be positive");
  const int64_t n = col.length();
  std::vector<double> out(n, 0.0);
  std::vector<uint8_t> validity(n, 0);
  double acc = 0.0;
  int64_t valid_in_window = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (col.IsValid(i)) {
      acc += col.GetDouble(i);
      ++valid_in_window;
    }
    if (i >= window) {
      if (col.IsValid(i - window)) {
        acc -= col.GetDouble(i - window);
        --valid_in_window;
      }
    }
    if (i >= window - 1 && valid_in_window == window) {
      out[i] = acc / window;
      validity[i] = 1;
    }
  }
  return Column::Float64(std::move(out), std::move(validity));
}

}  // namespace xorbits::dataframe
