#ifndef XORBITS_DATAFRAME_DATAFRAME_H_
#define XORBITS_DATAFRAME_DATAFRAME_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataframe/column.h"
#include "dataframe/column_source.h"
#include "dataframe/index.h"
#include "dataframe/selection.h"

namespace xorbits::dataframe {

namespace lazy_detail {
struct LazyCell;
}

/// Single-node dataframe: named typed columns of equal length plus a row
/// index, following the (A, R, C, T) formalization cited by the paper. This
/// is the "pandas backend" the distributed engine executes chunk kernels on.
///
/// A frame can be *lazy* (DESIGN.md §10): column slots may be backed by a
/// `ColumnSource` thunk instead of decoded payload, and a pending
/// `Selection` of visible base rows may ride alongside instead of being
/// eagerly compacted into every column. All read APIs (`column`,
/// `GetColumn`, `num_rows`, serialization) behave exactly as if the frame
/// were dense — resolution happens on demand, per column, through the
/// selection, and is cached in cells shared by all copies of the frame. An
/// untouched column is never decoded; an unread slot never pays the gather.
/// Consumers that genuinely need every column dense call `Compact()` /
/// `Compacted()`, which is metered as a forced materialization. Eager
/// frames (the default, and anything built by Make/SetColumn) take none of
/// these code paths.
class DataFrame {
 public:
  DataFrame() = default;

  /// Builds a frame from parallel name/column vectors; all columns must have
  /// equal length and names must be unique. Index defaults to RangeIndex.
  static Result<DataFrame> Make(std::vector<std::string> names,
                                std::vector<Column> columns);

  /// An empty frame with the given schema (zero rows).
  static DataFrame EmptyLike(const DataFrame& schema_source);

  int64_t num_rows() const {
    if (selection_.active()) return selection_.length();
    if (base_rows_ >= 0) return base_rows_;
    return columns_.empty() ? index_.length() : columns_[0].length();
  }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const std::vector<std::string>& column_names() const { return names_; }
  std::vector<DType> dtypes() const;

  bool HasColumn(const std::string& name) const;
  /// Position of a named column or KeyError.
  Result<int> ColumnIndex(const std::string& name) const;

  /// Column `i`, resolved on demand when the frame is lazy (decode through
  /// the pending selection, cached; shared across copies of the frame).
  const Column& column(int i) const {
    if (cells_.empty()) return columns_[i];
    return ResolveColumn(i);
  }
  /// Mutable access compacts a lazy frame first: mutation through a
  /// selection would corrupt unselected base rows.
  Column& mutable_column(int i) {
    if (!cells_.empty()) Compact();
    return columns_[i];
  }
  const std::string& column_name(int i) const { return names_[i]; }
  Result<const Column*> GetColumn(const std::string& name) const;

  /// Adds or replaces a column; length must match existing rows. On a lazy
  /// frame with no pending selection the column joins as a plain base slot;
  /// with a selection pending the frame compacts first (the new column is
  /// visible-row aligned, the lazy slots are base-aligned).
  Status SetColumn(const std::string& name, Column column);
  /// Adds or replaces a column slot backed by a lazy source; the source's
  /// base length must match the frame's base rows. Makes the frame lazy.
  Status SetColumnSource(const std::string& name, ColumnSourcePtr source);
  Status RemoveColumn(const std::string& name);

  /// Projection onto a subset of columns (order given by `names`). Lazy
  /// state (sources, selection, resolution cache) is carried over — a
  /// projection never forces anything.
  Result<DataFrame> Select(const std::vector<std::string>& names) const;
  Result<DataFrame> Rename(
      const std::map<std::string, std::string>& mapping) const;

  DataFrame TakeRows(const std::vector<int64_t>& indices) const;
  /// Row filter. Lazy frames compose the mask into their selection (no
  /// payload is touched); eager frames compact and the compacted output
  /// bytes are metered as `bytes_materialized`.
  DataFrame FilterRows(const std::vector<uint8_t>& mask) const;
  /// Row filter that *stays* late even on an eager frame: the result
  /// carries a Selection over this frame's columns instead of compacted
  /// copies. Used by selection-aware chunk ops; plain FilterRows preserves
  /// whatever representation the input already has.
  DataFrame FilterRowsLate(const std::vector<uint8_t>& mask) const;
  /// Installs `rows` (strictly ascending base-row positions) as the pending
  /// selection, *replacing* any active one. This is the re-binding primitive
  /// deferred transforms use: a snapshot taken at deferral time is re-read
  /// at resolution time through whatever rows the consumer still needs,
  /// which must be a subset of the snapshot's own selection when one was
  /// active (rows that were never visible have unspecified values). The
  /// result's index is RangeIndex — label bookkeeping is the caller's.
  DataFrame WithSelectionRows(std::vector<int64_t> rows) const;
  DataFrame SliceRows(int64_t offset, int64_t count) const;

  // --- late materialization state ---
  bool is_lazy() const { return !cells_.empty(); }
  const Selection& selection() const { return selection_; }
  /// True when slot `i` is an unresolved source (no payload in memory yet).
  bool IsSlotPending(int i) const;
  /// Base (pre-selection) row count of a lazy frame; num_rows() for eager.
  int64_t base_rows() const {
    return base_rows_ >= 0 ? base_rows_ : num_rows();
  }
  /// Resolves every slot through the selection and drops the lazy state;
  /// metered as one `selections_forced` event. No-op on eager frames.
  void Compact();
  /// Const variant: returns a compacted copy. Resolution cells are shared,
  /// so work done here also benefits the original frame.
  DataFrame Compacted() const;

  const Index& index() const { return index_; }
  void set_index(Index index) { index_ = std::move(index); }
  /// Replaces the index with RangeIndex(0, num_rows).
  DataFrame ResetIndex() const;

  /// Total in-memory payload bytes (columns + index). Counts every column's
  /// window independently; use AppendBufferRefs for shared-aware accounting.
  /// Pending lazy slots contribute their source's dense-size hint.
  int64_t nbytes() const;

  /// Appends every underlying buffer of every column (values + validity);
  /// index labels are not buffer-backed and count as overhead. For lazy
  /// frames only what is actually resident counts: resolved cells, eager
  /// base columns, and the selection index buffer — never pending sources.
  void AppendBufferRefs(std::vector<common::BufferRef>* out) const;

  /// Pretty-prints up to `max_rows` rows (pandas-style head/tail ellipsis).
  std::string ToString(int64_t max_rows = 10) const;

 private:
  const Column& ResolveColumn(int i) const;
  /// Installs lazy bookkeeping (base row count, per-slot resolution cells)
  /// on an eager frame.
  void EnsureLazy();

  std::vector<std::string> names_;
  /// Base-aligned columns. When `sources_[i]` is set the slot here is an
  /// empty placeholder; when a selection is pending these still hold the
  /// full unfiltered payload.
  std::vector<Column> columns_;
  /// Lazy thunks, parallel to columns_ (empty vector when the frame has
  /// never been lazy; nullptr entries are plain base-column slots).
  std::vector<ColumnSourcePtr> sources_;
  /// Per-slot resolution cache, parallel to columns_. Non-empty <=> lazy.
  /// Shared by copies of the frame so a column is resolved at most once;
  /// never resized by const methods (thread-safe demand resolution).
  std::vector<std::shared_ptr<lazy_detail::LazyCell>> cells_;
  /// Pending row selection over base rows (inactive = all visible).
  Selection selection_;
  /// Base row count while lazy; -1 for eager frames.
  int64_t base_rows_ = -1;
  /// Always visible-row aligned (the index is tiny; filtering it eagerly
  /// keeps num_rows/labels cheap and selection-free).
  Index index_ = Index::Range(0, 0);
};

/// Content fingerprint of `df`, the result cache's key for an in-memory
/// source (DESIGN.md §9). It folds in everything the v4 codec writes: the
/// column count; each column's name, dtype, length and validity; its
/// encoding (plain values, or dictionary codes plus dictionary values);
/// and the index (range start and length, or the labels). Column payloads
/// contribute their buffers' memoized hashes, so fingerprinting the same
/// buffers again costs O(columns), while equal content in other buffers
/// still fingerprints equal. Lazy slots resolve through `column(i)`. Adds
/// the bytes actually hashed (memo misses and index labels) to
/// `*bytes_hashed` when given.
common::Hash128 ContentFingerprint(const DataFrame& df,
                                   int64_t* bytes_hashed = nullptr);

}  // namespace xorbits::dataframe

#endif  // XORBITS_DATAFRAME_DATAFRAME_H_
