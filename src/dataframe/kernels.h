#ifndef XORBITS_DATAFRAME_KERNELS_H_
#define XORBITS_DATAFRAME_KERNELS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dataframe/compute.h"
#include "dataframe/dataframe.h"

namespace xorbits::dataframe {

/// Keeps rows where `mask` (a kBool column of equal length) is true; null
/// mask entries drop the row (pandas boolean indexing).
Result<DataFrame> Filter(const DataFrame& df, const Column& mask);

/// Filter that stays late even on an eager frame: the result carries a
/// pending Selection over the input's columns instead of compacted copies
/// (DESIGN.md §10). Same rows as Filter; only the representation differs.
Result<DataFrame> FilterLate(const DataFrame& df, const Column& mask);

/// Stable multi-key sort; `ascending` must match `by` in length (or be
/// empty for all-ascending). Per key, whatever the direction: nulls sort
/// last and NaN just before them (pandas puts both last); -0.0 ties with
/// 0.0; int64 compares exactly (also beyond 2^53); strings compare
/// byte-wise, in either encoding.
Result<DataFrame> SortValues(const DataFrame& df,
                             const std::vector<std::string>& by,
                             const std::vector<bool>& ascending = {});

/// The permutation SortValues applies: row positions of `df` in sorted
/// order.
Result<std::vector<int64_t>> SortIndices(
    const DataFrame& df, const std::vector<std::string>& by,
    const std::vector<bool>& ascending = {});

/// Range-partition routing for a sample sort. `bounds` holds boundary
/// values in SortValues order for `ascending`; each row of `key` gets the
/// position of the first boundary it does not sort after, or
/// bounds.length() when it sorts after them all. A row equal to a boundary
/// goes left of it, so ties never straddle two partitions.
Result<std::vector<int32_t>> RangePartitionIds(const Column& key,
                                               const Column& bounds,
                                               bool ascending);

/// Row-wise concatenation; schemas must match by name (column order of the
/// first frame wins); indexes are preserved like pandas.concat.
Result<DataFrame> Concat(const std::vector<const DataFrame*>& frames);
Result<DataFrame> Concat(const std::vector<DataFrame>& frames);

/// Removes duplicate rows judged on `subset` (all columns when empty),
/// keeping the first occurrence.
Result<DataFrame> DropDuplicates(const DataFrame& df,
                                 const std::vector<std::string>& subset = {});

/// First `n` rows.
DataFrame Head(const DataFrame& df, int64_t n);

/// Drops rows that have a null in any of `subset` (all columns when empty).
Result<DataFrame> DropNa(const DataFrame& df,
                         const std::vector<std::string>& subset = {});

/// Replaces nulls in `column` with `value`.
Result<DataFrame> FillNa(const DataFrame& df, const std::string& column,
                         const Scalar& value);

/// Distinct values of one column, in first-seen order.
Result<Column> Unique(const Column& col);

/// Row count per distinct value, sorted descending by count.
Result<DataFrame> ValueCounts(const Column& col, const std::string& name);

/// n-th row (positional) of the frame as a single-row frame.
Result<DataFrame> IlocRow(const DataFrame& df, int64_t pos);

}  // namespace xorbits::dataframe

#endif  // XORBITS_DATAFRAME_KERNELS_H_
