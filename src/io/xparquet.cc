#include "io/xparquet.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "dataframe/dict.h"
#include "io/byte_cursor.h"

namespace xorbits::io {

const int64_t kXpqRowsPerGroup = 8192;

namespace {

using dataframe::Column;
using dataframe::DataFrame;
using dataframe::DType;
// "XPQ4": row groups of independently encoded column chunks. The footer
// records each column's encoding; a string chunk repeats it as a tag byte
// after its validity prefix.
constexpr uint32_t kMagic = 0x58505134;  // "XPQ4"

/// A string column is written as dictionary pages when its distinct
/// non-null values number at most 1 / kDictRowsPerValue of its rows.
constexpr int64_t kDictRowsPerValue = 2;

template <typename T>
void PutRaw(std::string* out, const T* data, int64_t n) {
  out->append(reinterpret_cast<const char*>(data), n * sizeof(T));
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// The encoding `WriteXpq` gives column `c`: dictionary pages for a string
/// column with few distinct non-null values, plain pages otherwise.
XpqEncoding ChooseEncoding(const Column& c) {
  if (c.dtype() != DType::kString) return XpqEncoding::kPlain;
  const int64_t n = c.length();
  const int64_t max_distinct = n / kDictRowsPerValue;
  std::unordered_set<std::string_view> seen;
  for (int64_t i = 0; i < n; ++i) {
    if (c.IsValid(i) && seen.insert(c.string_at(i)).second &&
        static_cast<int64_t>(seen.size()) > max_distinct) {
      return XpqEncoding::kPlain;
    }
  }
  return XpqEncoding::kDict;
}

/// Dictionary page: the group's distinct values in first-use order, so the
/// group decodes without the rest of the file, then one int32 code per row.
/// Null rows keep code 0.
void PutDictPage(const Column& c, std::string* out) {
  const int64_t n = c.length();
  std::vector<int32_t> codes(n, 0);
  std::vector<std::string_view> used;
  std::unordered_map<std::string_view, int32_t> local;
  for (int64_t i = 0; i < n; ++i) {
    if (!c.IsValid(i)) continue;
    auto [it, fresh] = local.emplace(c.string_at(i),
                                     static_cast<int32_t>(used.size()));
    if (fresh) used.push_back(it->first);
    codes[i] = it->second;
  }
  PutPod<uint32_t>(out, static_cast<uint32_t>(used.size()));
  for (std::string_view v : used) PutStr(out, v);
  PutRaw(out, codes.data(), n);
}

/// Plain page: each row's uint32 end offset, then every row's bytes back
/// to back. Null rows store an empty string.
Status PutPlainPage(const Column& c, std::string* out) {
  const int64_t n = c.length();
  auto value = [&](int64_t i) {
    return c.IsValid(i) ? std::string_view(c.string_at(i))
                        : std::string_view();
  };
  std::vector<uint32_t> ends(n);
  uint64_t total = 0;
  for (int64_t i = 0; i < n; ++i) {
    total += value(i).size();
    if (total > UINT32_MAX) {
      return Status::Invalid(
          "WriteXpq: a row group's strings overflow 4 GiB; use smaller "
          "row groups");
    }
    ends[i] = static_cast<uint32_t>(total);
  }
  PutRaw(out, ends.data(), n);
  for (int64_t i = 0; i < n; ++i) out->append(value(i));
  return Status::OK();
}

/// Appends one row group's slice of a column as a standalone chunk.
Status EncodeColumn(const Column& c, XpqEncoding encoding, std::string* out) {
  const int64_t n = c.length();
  PutPod<uint8_t>(out, c.has_validity() ? 1 : 0);
  if (c.has_validity()) PutRaw(out, c.validity().data(), n);
  switch (c.dtype()) {
    case DType::kInt64:
      PutRaw(out, c.int64_data().data(), n);
      break;
    case DType::kFloat64:
      PutRaw(out, c.float64_data().data(), n);
      break;
    case DType::kBool:
      PutRaw(out, c.bool_data().data(), n);
      break;
    case DType::kString:
      PutPod<uint8_t>(out, static_cast<uint8_t>(encoding));
      if (encoding == XpqEncoding::kDict) {
        PutDictPage(c, out);
      } else {
        XORBITS_RETURN_NOT_OK(PutPlainPage(c, out));
      }
      break;
  }
  return Status::OK();
}

/// The rows of one row group to decode: the group-local range [lo, hi)
/// when `rows` is null, else the `m` ascending rows `rows[k] + shift`.
struct GroupRows {
  int64_t lo = 0;
  int64_t hi = 0;
  const int64_t* rows = nullptr;
  int64_t m = 0;
  int64_t shift = 0;

  int64_t count() const { return rows != nullptr ? m : hi - lo; }
  int64_t row(int64_t k) const {
    return rows != nullptr ? rows[k] + shift : lo + k;
  }
};

/// Copies the selected `W`-byte values of a raw payload to `out`: one
/// memcpy for a range, one per row for a row list (the payload is
/// unaligned behind the validity prefix).
template <size_t W>
void Gather(const char* src, const GroupRows& sel, void* out) {
  char* dst = static_cast<char*>(out);
  if (sel.rows == nullptr) {
    std::memcpy(dst, src + sel.lo * W, (sel.hi - sel.lo) * W);
    return;
  }
  for (int64_t k = 0; k < sel.m; ++k) {
    std::memcpy(dst + k * W, src + sel.row(k) * W, W);
  }
}

/// Decodes the selected rows of consecutive row groups straight into one
/// preallocated output column, so a multi-group read costs no per-group
/// column and no concatenation copy. A dictionary-page column read with
/// `dict_encode` comes back as codes over one dictionary unified across
/// the groups, in first-seen order; every other string column comes back
/// plain. Either way no row is hashed.
class ColumnAssembler {
 public:
  ColumnAssembler(DType dtype, XpqEncoding encoding, int64_t n,
                  bool dict_encode)
      : dtype_(dtype),
        encoding_(encoding),
        n_(n),
        codes_out_(dict_encode && encoding == XpqEncoding::kDict) {
    switch (dtype) {
      case DType::kInt64:
        int64_.resize(n);
        break;
      case DType::kFloat64:
        float64_.resize(n);
        break;
      case DType::kBool:
        bool_.resize(n);
        break;
      case DType::kString:
        if (codes_out_) {
          codes_.resize(n, 0);
        } else {
          strings_.resize(n);
        }
        break;
    }
  }

  /// Decodes `sel` of a chunk holding `group_rows` rows into output rows
  /// [at, at + sel.count()).
  Status Add(const std::string& chunk, int64_t group_rows,
             const GroupRows& sel, int64_t at) {
    Cursor in(chunk);
    uint8_t has_validity = 0;
    XORBITS_RETURN_NOT_OK(in.Pod(&has_validity));
    const uint8_t* valid = nullptr;
    if (has_validity) {
      XORBITS_ASSIGN_OR_RETURN(const char* v,
                               in.Take(group_rows, 1, "truncated validity"));
      valid = reinterpret_cast<const uint8_t*>(v);
      // Groups without a validity prefix leave their rows valid.
      if (validity_.empty()) validity_.assign(n_, 1);
      Gather<1>(v, sel, validity_.data() + at);
    }
    switch (dtype_) {
      case DType::kInt64: {
        XORBITS_ASSIGN_OR_RETURN(
            const char* p, in.Take(group_rows, 8, "truncated int64 chunk"));
        Gather<8>(p, sel, int64_.data() + at);
        return Status::OK();
      }
      case DType::kFloat64: {
        XORBITS_ASSIGN_OR_RETURN(
            const char* p, in.Take(group_rows, 8, "truncated float64 chunk"));
        Gather<8>(p, sel, float64_.data() + at);
        return Status::OK();
      }
      case DType::kBool: {
        XORBITS_ASSIGN_OR_RETURN(
            const char* p, in.Take(group_rows, 1, "truncated bool chunk"));
        Gather<1>(p, sel, bool_.data() + at);
        return Status::OK();
      }
      case DType::kString:
        return AddStrings(&in, group_rows, sel, at, valid);
    }
    return Status::IOError("bad dtype");
  }

  Column Finish() {
    switch (dtype_) {
      case DType::kInt64:
        return Column::Int64(std::move(int64_), std::move(validity_));
      case DType::kFloat64:
        return Column::Float64(std::move(float64_), std::move(validity_));
      case DType::kBool:
        return Column::Bool(std::move(bool_), std::move(validity_));
      case DType::kString:
        if (!codes_out_) {
          return Column::String(std::move(strings_), std::move(validity_));
        }
        ChargeScoped(CounterId::kDictEncodedColumns);
        return Column::Dictionary(
            common::BufferView<int32_t>(std::move(codes_)), dict_.Finish(),
            common::BufferView<uint8_t>(std::move(validity_)));
    }
    return Column::Int64({});
  }

 private:
  Status AddStrings(Cursor* in, int64_t group_rows, const GroupRows& sel,
                    int64_t at, const uint8_t* valid) {
    uint8_t tag = 0;
    XORBITS_RETURN_NOT_OK(in->Pod(&tag));
    if (tag != static_cast<uint8_t>(encoding_)) {
      return Status::IOError("xparquet string page disagrees with the footer");
    }
    if (encoding_ == XpqEncoding::kDict) {
      return AddDictPage(in, group_rows, sel, at, valid);
    }
    return AddPlainPage(in, group_rows, sel, at);
  }

  /// Dictionary page: one GetOrAdd per group value (codes output), then a
  /// range-checked code per selected row.
  Status AddDictPage(Cursor* in, int64_t group_rows, const GroupRows& sel,
                     int64_t at, const uint8_t* valid) {
    uint32_t dict_size = 0;
    XORBITS_RETURN_NOT_OK(in->Pod(&dict_size));
    if (!in->Fits(dict_size, sizeof(uint32_t))) {
      return Status::IOError("truncated dict values");
    }
    values_.clear();
    for (uint32_t v = 0; v < dict_size; ++v) {
      XORBITS_ASSIGN_OR_RETURN(std::string_view value, in->Str());
      values_.push_back(value);
    }
    XORBITS_ASSIGN_OR_RETURN(
        const char* p, in->Take(group_rows, 4, "truncated dict codes"));
    if (codes_out_) {
      remap_.resize(dict_size);
      for (uint32_t v = 0; v < dict_size; ++v) {
        remap_[v] = dict_.GetOrAdd(values_[v]);
      }
    }
    const int64_t m = sel.count();
    for (int64_t k = 0; k < m; ++k) {
      const int64_t r = sel.row(k);
      if (valid != nullptr && valid[r] == 0) continue;  // null: never read
      int32_t code = 0;
      std::memcpy(&code, p + r * 4, 4);
      if (code < 0 || code >= static_cast<int64_t>(dict_size)) {
        return Status::IOError("dictionary code out of range");
      }
      if (codes_out_) {
        codes_[at + k] = remap_[code];
      } else {
        strings_[at + k].assign(values_[code]);
      }
    }
    return Status::OK();
  }

  /// Plain page: the end offsets are checked once, then only the selected
  /// rows are copied.
  Status AddPlainPage(Cursor* in, int64_t group_rows, const GroupRows& sel,
                      int64_t at) {
    XORBITS_ASSIGN_OR_RETURN(
        const char* ends, in->Take(group_rows, 4, "truncated string offsets"));
    uint32_t last = 0;
    for (int64_t r = 0; r < group_rows; ++r) {
      const uint32_t end = LoadU32(ends + r * 4);
      if (end < last) {
        return Status::IOError("xparquet string offsets descend");
      }
      last = end;
    }
    if (!in->Fits(last, 1)) {
      return Status::IOError("xparquet string offsets overrun the page");
    }
    const char* bytes = in->p;
    const int64_t m = sel.count();
    for (int64_t k = 0; k < m; ++k) {
      const int64_t r = sel.row(k);
      const uint32_t begin = r == 0 ? 0 : LoadU32(ends + (r - 1) * 4);
      strings_[at + k].assign(bytes + begin, LoadU32(ends + r * 4) - begin);
    }
    return Status::OK();
  }

  DType dtype_;
  XpqEncoding encoding_;
  int64_t n_;
  bool codes_out_;  // string output is dictionary codes
  std::vector<uint8_t> validity_;  // empty until a group carries validity
  std::vector<int64_t> int64_;
  std::vector<double> float64_;
  std::vector<uint8_t> bool_;
  std::vector<std::string> strings_;
  std::vector<int32_t> codes_;
  dataframe::DictBuilder dict_;
  std::vector<std::string_view> values_;  // current dict page, in the chunk
  std::vector<int32_t> remap_;            // dict page code -> output code
};

/// Reads one column's file rows [begin, end) when `rows` is null, else the
/// rows `begin + (*rows)[k]` (ascending, below `end`). Fetches only the row
/// groups that hold a wanted row, adding each fetched chunk's size to
/// `*bytes_read`, and decodes them into one output column.
Result<Column> ReadColumn(std::ifstream& in, const XpqFileInfo& info,
                          const XpqColumnInfo& ci, int64_t begin, int64_t end,
                          const std::vector<int64_t>* rows, bool dict_encode,
                          int64_t* bytes_read) {
  // A window planned against an older version of the file may overhang it.
  if (begin < 0 || begin > end || end > info.num_rows) {
    return Status::Invalid("xparquet row window outside the file");
  }
  const int64_t n =
      rows != nullptr ? static_cast<int64_t>(rows->size()) : end - begin;
  ColumnAssembler out(ci.dtype, ci.encoding, n, dict_encode);
  std::string chunk;
  for (int64_t at = 0; at < n;) {
    const int64_t first = begin + (rows != nullptr ? (*rows)[at] : at);
    const int64_t g =
        std::upper_bound(info.group_starts.begin(), info.group_starts.end(),
                         first) -
        info.group_starts.begin() - 1;
    const int64_t group_start = info.group_starts[g];
    const int64_t group_end = info.group_starts[g + 1];
    GroupRows sel;
    if (rows != nullptr) {
      int64_t stop = at;
      while (stop < n && begin + (*rows)[stop] < group_end) ++stop;
      sel.rows = rows->data() + at;
      sel.m = stop - at;
      sel.shift = begin - group_start;
    } else {
      sel.lo = first - group_start;
      sel.hi = std::min(end, group_end) - group_start;
    }
    const XpqColumnChunk& loc = ci.chunks[g];
    chunk.resize(loc.nbytes);
    in.seekg(loc.offset);
    in.read(chunk.data(), loc.nbytes);
    if (!in) return Status::IOError("truncated column chunk: " + ci.name);
    *bytes_read += loc.nbytes;
    XORBITS_RETURN_NOT_OK(
        out.Add(chunk, group_end - group_start, sel, at));
    at += sel.count();
  }
  return out.Finish();
}

/// Indices into `info.columns` of `names`, or of every column when empty.
Result<std::vector<int>> ResolveColumns(const XpqFileInfo& info,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  if (names.empty()) {
    for (size_t c = 0; c < info.columns.size(); ++c) {
      out.push_back(static_cast<int>(c));
    }
    return out;
  }
  for (const auto& name : names) {
    const int c = info.ColumnIndex(name);
    if (c < 0) return Status::KeyError("xparquet column not found: " + name);
    out.push_back(c);
  }
  return out;
}

}  // namespace

int XpqFileInfo::ColumnIndex(const std::string& name) const {
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].name == name) return static_cast<int>(c);
  }
  return -1;
}

Status WriteXpq(const std::string& path, const DataFrame& df,
                int64_t rows_per_group) {
  if (rows_per_group < 1) {
    return Status::Invalid("WriteXpq: rows_per_group must be positive");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  const int ncols = df.num_columns();
  const int64_t num_rows = ncols > 0 ? df.num_rows() : 0;
  std::string footer;
  PutPod<int64_t>(&footer, num_rows);
  PutPod<uint32_t>(&footer, static_cast<uint32_t>(ncols));
  std::vector<XpqEncoding> encodings;
  for (int c = 0; c < ncols; ++c) {
    encodings.push_back(ChooseEncoding(df.column(c)));
    PutStr(&footer, df.column_name(c));
    PutPod<uint8_t>(&footer, static_cast<uint8_t>(df.column(c).dtype()));
    PutPod<uint8_t>(&footer, static_cast<uint8_t>(encodings[c]));
  }
  const int64_t num_groups = (num_rows + rows_per_group - 1) / rows_per_group;
  PutPod<uint32_t>(&footer, static_cast<uint32_t>(num_groups));
  std::string chunk;
  PutPod(&chunk, kMagic);
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  int64_t offset = static_cast<int64_t>(chunk.size());
  for (int64_t start = 0; start < num_rows; start += rows_per_group) {
    const int64_t rows = std::min(rows_per_group, num_rows - start);
    PutPod<int64_t>(&footer, rows);
    for (int c = 0; c < ncols; ++c) {
      chunk.clear();
      XORBITS_RETURN_NOT_OK(
          EncodeColumn(df.column(c).Slice(start, rows), encodings[c], &chunk));
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      PutPod<int64_t>(&footer, offset);
      PutPod<int64_t>(&footer, static_cast<int64_t>(chunk.size()));
      offset += static_cast<int64_t>(chunk.size());
    }
  }
  PutPod<int64_t>(&footer, static_cast<int64_t>(footer.size()));
  PutPod(&footer, kMagic);
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<XpqFileInfo> ReadXpqInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const int64_t file_size = static_cast<int64_t>(in.tellg());
  if (file_size < 20) return Status::IOError("file too small: " + path);
  in.seekg(file_size - 12);
  int64_t footer_size = 0;
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&footer_size), sizeof(footer_size));
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in) return Status::IOError("truncated xparquet trailer: " + path);
  if (magic != kMagic) return Status::IOError("bad xparquet magic: " + path);
  // Layout: leading magic, row groups, footer, footer size, magic. The
  // footer holds at least the row, column and group counts.
  if (footer_size < 16 || footer_size > file_size - 16) {
    return Status::IOError("bad xparquet footer size: " + path);
  }
  const int64_t footer_start = file_size - 12 - footer_size;
  std::string footer(footer_size, '\0');
  in.seekg(footer_start);
  in.read(footer.data(), footer_size);
  if (!in) return Status::IOError("truncated xparquet footer: " + path);
  Cursor c(footer);
  XpqFileInfo info;
  XORBITS_RETURN_NOT_OK(c.Pod(&info.num_rows));
  uint32_t ncols = 0;
  XORBITS_RETURN_NOT_OK(c.Pod(&ncols));
  // Each column entry: name length, dtype, encoding. A file without
  // columns has no rows (nothing could bound the count).
  if (info.num_rows < 0 || !c.Fits(ncols, 4 + 1 + 1) ||
      (ncols == 0 && info.num_rows != 0)) {
    return Status::IOError("bad xparquet footer: " + path);
  }
  for (uint32_t k = 0; k < ncols; ++k) {
    XpqColumnInfo ci;
    XORBITS_ASSIGN_OR_RETURN(std::string_view name, c.Str());
    ci.name = name;
    uint8_t dt = 0;
    XORBITS_RETURN_NOT_OK(c.Pod(&dt));
    if (dt > static_cast<uint8_t>(DType::kBool)) {
      return Status::IOError("bad xparquet dtype: " + path);
    }
    ci.dtype = static_cast<DType>(dt);
    uint8_t encoding = 0;
    XORBITS_RETURN_NOT_OK(c.Pod(&encoding));
    if (encoding > static_cast<uint8_t>(XpqEncoding::kDict) ||
        (encoding == static_cast<uint8_t>(XpqEncoding::kDict) &&
         ci.dtype != DType::kString)) {
      return Status::IOError("bad xparquet encoding: " + path);
    }
    ci.encoding = static_cast<XpqEncoding>(encoding);
    info.columns.push_back(std::move(ci));
  }
  uint32_t ngroups = 0;
  XORBITS_RETURN_NOT_OK(c.Pod(&ngroups));
  // Each group entry: row count, then offset and size per column.
  if (!c.Fits(ngroups, 8 + 16 * static_cast<int64_t>(ncols))) {
    return Status::IOError("bad xparquet footer: " + path);
  }
  info.group_starts.reserve(ngroups + 1);
  for (auto& ci : info.columns) ci.chunks.reserve(ngroups);
  // Column chunks tile the bytes between the leading magic and the footer
  // exactly, in group-then-column order: anything else overlaps, leaves a
  // gap or falls outside the file.
  int64_t next_offset = sizeof(kMagic);
  for (uint32_t g = 0; g < ngroups; ++g) {
    int64_t rows = 0;
    XORBITS_RETURN_NOT_OK(c.Pod(&rows));
    if (rows < 1 || rows > info.num_rows - info.group_starts.back()) {
      return Status::IOError("xparquet row groups exceed the row count: " +
                             path);
    }
    info.group_starts.push_back(info.group_starts.back() + rows);
    for (auto& ci : info.columns) {
      XpqColumnChunk chunk;
      XORBITS_RETURN_NOT_OK(c.Pod(&chunk.offset));
      XORBITS_RETURN_NOT_OK(c.Pod(&chunk.nbytes));
      if (chunk.offset != next_offset || chunk.nbytes < 1 ||
          chunk.nbytes > footer_start - chunk.offset) {
        return Status::IOError("xparquet column chunks do not tile the file: " +
                               path);
      }
      // Every encoding spends at least one byte per row past the chunk's
      // validity flag, so a row count the chunk cannot hold is corrupt.
      if (rows >= chunk.nbytes) {
        return Status::IOError("xparquet row count exceeds column chunk: " +
                               path);
      }
      next_offset += chunk.nbytes;
      ci.nbytes += chunk.nbytes;
      ci.chunks.push_back(chunk);
    }
  }
  if (info.group_starts.back() != info.num_rows) {
    return Status::IOError("xparquet row groups do not sum to the row count: " +
                           path);
  }
  if (next_offset != footer_start || c.p != c.end) {
    return Status::IOError("xparquet column chunks do not tile the file: " +
                           path);
  }
  return info;
}

Result<DataFrame> ReadXpq(const std::string& path,
                          const std::vector<std::string>& columns,
                          int64_t row_offset, int64_t row_count,
                          int64_t* bytes_read, bool dict_encode) {
  XORBITS_ASSIGN_OR_RETURN(XpqFileInfo info, ReadXpqInfo(path));
  XORBITS_ASSIGN_OR_RETURN(std::vector<int> wanted,
                           ResolveColumns(info, columns));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  const int64_t begin = std::clamp<int64_t>(row_offset, 0, info.num_rows);
  const int64_t end = row_count < 0 || row_count > info.num_rows - begin
                          ? info.num_rows
                          : begin + row_count;
  int64_t fetched = 0;
  std::vector<std::string> names;
  std::vector<Column> cols;
  for (int c : wanted) {
    const XpqColumnInfo& ci = info.columns[c];
    XORBITS_ASSIGN_OR_RETURN(Column col,
                             ReadColumn(in, info, ci, begin, end, nullptr,
                                        dict_encode, &fetched));
    // Eager decode makes the window dense regardless of what the query
    // later touches — the denominator the lazy path is measured against
    // (DESIGN.md §10).
    ChargeScoped(CounterId::kBytesMaterialized, col.nbytes());
    names.push_back(ci.name);
    cols.push_back(std::move(col));
  }
  if (bytes_read != nullptr) *bytes_read += fetched;
  XORBITS_ASSIGN_OR_RETURN(DataFrame df,
                           DataFrame::Make(std::move(names), std::move(cols)));
  df.set_index(dataframe::Index::Range(begin, begin + df.num_rows()));
  return df;
}

dataframe::DType XpqColumnSource::dtype() const {
  return info_->columns[column_].dtype;
}

int64_t XpqColumnSource::nbytes_hint() const {
  if (info_->num_rows <= 0) return 0;
  // Encoded column size scaled to the window. Payloads are stored
  // uncompressed, so this is close for fixed-width and plain-page columns,
  // and for a dictionary-page column read back as codes. It undercounts a
  // dictionary-page column decoded to plain strings.
  return info_->columns[column_].nbytes * row_count_ / info_->num_rows;
}

std::string XpqColumnSource::describe() const {
  return "xpq:" + path_ + ":" + info_->columns[column_].name;
}

Result<Column> XpqColumnSource::LoadRows(
    const std::vector<int64_t>* rows) const {
  if (rows != nullptr) {
    const int64_t m = static_cast<int64_t>(rows->size());
    for (int64_t i = 0; i < m; ++i) {
      if ((*rows)[i] < 0 || (*rows)[i] >= row_count_ ||
          (i > 0 && (*rows)[i] <= (*rows)[i - 1])) {
        return Status::Invalid("XpqColumnSource: rows not ascending/in range");
      }
    }
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path_);
  int64_t fetched = 0;
  Result<Column> col =
      ReadColumn(in, *info_, info_->columns[column_], row_offset_,
                 row_offset_ + row_count_, rows, dict_encode_, &fetched);
  ChargeScoped(CounterId::kSourceBytesRead, fetched);
  return col;
}

Result<Column> XpqColumnSource::Load(const std::vector<int64_t>& rows) const {
  return LoadRows(&rows);
}

Result<Column> XpqColumnSource::LoadAll() const { return LoadRows(nullptr); }

Result<DataFrame> ReadXpqLazy(const std::string& path,
                              const std::vector<std::string>& columns,
                              int64_t row_offset, int64_t row_count,
                              bool dict_encode) {
  XORBITS_ASSIGN_OR_RETURN(XpqFileInfo read, ReadXpqInfo(path));
  auto info = std::make_shared<const XpqFileInfo>(std::move(read));
  XORBITS_ASSIGN_OR_RETURN(std::vector<int> wanted,
                           ResolveColumns(*info, columns));
  if (row_offset < 0 || row_offset > info->num_rows) {
    return Status::Invalid("ReadXpqLazy: row_offset out of range");
  }
  const int64_t count = row_count < 0 ? info->num_rows - row_offset
                                      : std::min(row_count,
                                                 info->num_rows - row_offset);
  DataFrame df;
  for (int c : wanted) {
    XORBITS_RETURN_NOT_OK(df.SetColumnSource(
        info->columns[c].name,
        std::make_shared<XpqColumnSource>(path, info, c, row_offset, count,
                                          dict_encode)));
  }
  df.set_index(dataframe::Index::Range(row_offset, row_offset + count));
  return df;
}

}  // namespace xorbits::io
