#ifndef XORBITS_DATAFRAME_RESHAPE_H_
#define XORBITS_DATAFRAME_RESHAPE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dataframe/dataframe.h"
#include "dataframe/groupby.h"

namespace xorbits::dataframe {

/// pandas.pivot_table: groups by `index` + `columns`, aggregates `values`
/// with `func`, then spreads the distinct `columns` values into output
/// columns (named by their string form, sorted). Missing cells are null.
Result<DataFrame> PivotTable(const DataFrame& df,
                             const std::vector<std::string>& index,
                             const std::string& columns,
                             const std::string& values, AggFunc func);

/// Spreads an already-aggregated long table (index..., columns, value) into
/// wide form — the reshape half of pivot_table, used by the distributed
/// operator after a distributed groupby. `index` must not be empty. Each
/// row fills the cell of its own index tuple and `columns` key, under the
/// key index's equality (key_hash.h).
Result<DataFrame> SpreadToWide(const DataFrame& aggregated,
                               const std::vector<std::string>& index,
                               const std::string& columns,
                               const std::string& value);

/// Series.cumsum over one column (null-skipping: nulls stay null and do not
/// advance the running sum).
Result<Column> CumSumCol(const Column& col);

/// Series.rolling(window).mean() with min_periods == window: the first
/// window-1 outputs are null.
Result<Column> RollingMeanCol(const Column& col, int64_t window);

}  // namespace xorbits::dataframe

#endif  // XORBITS_DATAFRAME_RESHAPE_H_
