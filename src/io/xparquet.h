#ifndef XORBITS_IO_XPARQUET_H_
#define XORBITS_IO_XPARQUET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataframe/column_source.h"
#include "dataframe/dataframe.h"

namespace xorbits::io {

/// One column's bytes within one row group.
struct XpqColumnChunk {
  int64_t offset = 0;  // byte offset in the file
  int64_t nbytes = 0;  // encoded size
};

/// How a column's pages store its values. Fixed-width columns are always
/// plain; `WriteXpq` picks a string column's encoding from its values.
enum class XpqEncoding : uint8_t {
  kPlain = 0,  // fixed-width payloads, or uint32 end offsets + string bytes
  kDict = 1,   // the group's distinct strings + one int32 code per row
};

/// Column metadata from an xparquet footer.
struct XpqColumnInfo {
  std::string name;
  dataframe::DType dtype;
  XpqEncoding encoding = XpqEncoding::kPlain;
  int64_t nbytes = 0;  // encoded size summed over every row group
  std::vector<XpqColumnChunk> chunks;  // one per row group
};

/// File-level metadata (cheap to read: footer only).
struct XpqFileInfo {
  int64_t num_rows = 0;
  /// First row of each row group, then `num_rows`: group g holds rows
  /// [group_starts[g], group_starts[g + 1]). An empty file has no groups.
  std::vector<int64_t> group_starts = {0};
  std::vector<XpqColumnInfo> columns;

  int64_t num_groups() const {
    return static_cast<int64_t>(group_starts.size()) - 1;
  }
  /// Index into `columns` of the column called `name`, or -1.
  int ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const {
    return ColumnIndex(name) >= 0;
  }
};

/// Rows per row group `WriteXpq` writes unless a test asks for another size.
extern const int64_t kXpqRowsPerGroup;

/// "xparquet": this repo's columnar file format standing in for Parquet.
/// Layout: [magic][row group 0][row group 1]...[footer][footer_size][magic].
/// A row group holds `rows_per_group` consecutive rows (the last one may
/// hold fewer) as one independently encoded chunk per column, in column
/// order. The footer lists the column names, dtypes and encodings, then
/// each group's row count and the offset and size of each of its column
/// chunks. A reader therefore fetches only the columns it needs (column
/// pruning) and, within them, only the groups its row window overlaps.
///
/// A string column whose distinct non-null values number at most half its
/// rows is written as dictionary pages, any other as plain pages, whatever
/// its in-memory encoding. Returns Invalid when one group's plain string
/// bytes overflow the uint32 offsets.
Status WriteXpq(const std::string& path, const dataframe::DataFrame& df,
                int64_t rows_per_group = kXpqRowsPerGroup);

/// Reads footer metadata only. Rejects a footer whose column chunks
/// overlap, leave a gap, fall outside the file, or whose group row counts
/// do not sum to the file's.
Result<XpqFileInfo> ReadXpqInfo(const std::string& path);

/// Reads the whole file, or only `columns` when non-empty (column pruning),
/// or only rows [row_offset, row_offset+row_count) of those columns when
/// row_count >= 0; only the row groups the window overlaps are fetched and
/// decoded. When `bytes_read` is non-null it is incremented by the encoded
/// size of every column chunk fetched — the I/O denominator that column
/// pruning and predicate pushdown shrink. When `dict_encode` is true, a
/// dictionary-page column comes back as codes over one dictionary unified
/// across the fetched groups; plain-page columns, and every column when
/// `dict_encode` is false, come back as plain strings. No row is hashed.
Result<dataframe::DataFrame> ReadXpq(const std::string& path,
                                     const std::vector<std::string>& columns = {},
                                     int64_t row_offset = 0,
                                     int64_t row_count = -1,
                                     int64_t* bytes_read = nullptr,
                                     bool dict_encode = false);

/// Lazy per-column thunk over one xparquet column (DESIGN.md §10). Nothing
/// is read at construction; `Load(rows)` fetches only the row groups that
/// hold a selected row of the op's window and decodes only those rows —
/// fixed-width payloads gather directly from the raw bytes, plain string
/// pages copy only the selected strings through their offsets, dictionary
/// pages unify the group's values and gather codes. The column's footer
/// encoding fixes the output encoding, so every window agrees. Every
/// fetched group is charged to `source_bytes_read` on the calling thread's
/// MetricsScope.
class XpqColumnSource : public dataframe::ColumnSource {
 public:
  /// `column` indexes `info->columns` of `path`; [row_offset, row_offset +
  /// row_count) is the window of the file this source exposes as rows
  /// 0..row_count-1 (the chunk split).
  XpqColumnSource(std::string path, std::shared_ptr<const XpqFileInfo> info,
                  int column, int64_t row_offset, int64_t row_count,
                  bool dict_encode)
      : path_(std::move(path)),
        info_(std::move(info)),
        column_(column),
        row_offset_(row_offset),
        row_count_(row_count),
        dict_encode_(dict_encode) {}

  dataframe::DType dtype() const override;
  int64_t length() const override { return row_count_; }
  int64_t nbytes_hint() const override;
  std::string describe() const override;
  Result<dataframe::Column> Load(
      const std::vector<int64_t>& rows) const override;
  Result<dataframe::Column> LoadAll() const override;

 private:
  Result<dataframe::Column> LoadRows(const std::vector<int64_t>* rows) const;

  std::string path_;
  std::shared_ptr<const XpqFileInfo> info_;
  int column_;
  int64_t row_offset_;
  int64_t row_count_;
  bool dict_encode_;
};

/// Like ReadXpq but returns a frame whose columns are XpqColumnSource
/// thunks: only the footer is read here, and a column's row groups are
/// fetched and decoded the first time something reads it — through the
/// frame's pending selection, so a filtered consumer decodes only matching
/// rows.
Result<dataframe::DataFrame> ReadXpqLazy(
    const std::string& path, const std::vector<std::string>& columns = {},
    int64_t row_offset = 0, int64_t row_count = -1, bool dict_encode = false);

}  // namespace xorbits::io

#endif  // XORBITS_IO_XPARQUET_H_
