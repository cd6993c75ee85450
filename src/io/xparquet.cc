#include "io/xparquet.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "dataframe/dict.h"

namespace xorbits::io {

namespace {

using dataframe::Column;
using dataframe::DataFrame;
using dataframe::DType;

// "XPQ2": string column blocks carry a physical-encoding byte — 0 for
// plain length-prefixed strings, 1 for a dictionary page (deduplicated
// values + int32 codes). "XPQ1" files (no encoding byte) remain readable.
constexpr uint32_t kMagicV1 = 0x58505131;  // "XPQ1"
constexpr uint32_t kMagic = 0x58505132;    // "XPQ2"

constexpr uint8_t kEncodingPlain = 0;
constexpr uint8_t kEncodingDict = 1;

template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteStr(std::ostream& os, const std::string& s) {
  WritePod<uint32_t>(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Bounds-checked reader over an in-memory block or footer: every length
/// prefix and row count is checked against the bytes left before anything
/// is allocated or copied, so corrupt files fail with IOError.
struct Cursor {
  const char* p;
  const char* end;

  explicit Cursor(const std::string& bytes)
      : p(bytes.data()), end(bytes.data() + bytes.size()) {}

  /// True when `count` items of `width` bytes each fit in the bytes left.
  bool Fits(int64_t count, int64_t width) const {
    return count >= 0 && count <= (end - p) / width;
  }

  /// Start of the next `count` items of `width` bytes; skips past them.
  Result<const char*> Take(int64_t count, int64_t width, const char* what) {
    if (!Fits(count, width)) return Status::IOError(what);
    const char* at = p;
    p += count * width;
    return at;
  }

  template <typename T>
  Status Pod(T* v) {
    XORBITS_ASSIGN_OR_RETURN(const char* at,
                             Take(1, sizeof(T), "truncated xparquet data"));
    std::memcpy(v, at, sizeof(T));
    return Status::OK();
  }

  /// `n` fixed-width values, allocated only once they are known to fit.
  template <typename T>
  Result<std::vector<T>> Vec(int64_t n, const char* what) {
    XORBITS_ASSIGN_OR_RETURN(const char* at, Take(n, sizeof(T), what));
    std::vector<T> out(n);
    if (n > 0) std::memcpy(out.data(), at, n * sizeof(T));
    return out;
  }

  Result<std::string> Str() {
    uint32_t len = 0;
    XORBITS_RETURN_NOT_OK(Pod(&len));
    XORBITS_ASSIGN_OR_RETURN(const char* at, Take(len, 1, "truncated string"));
    return std::string(at, len);
  }

  /// A dictionary page's values: a count, then length-prefixed strings.
  Result<std::vector<std::string>> DictValues() {
    uint32_t dict_size = 0;
    XORBITS_RETURN_NOT_OK(Pod(&dict_size));
    if (!Fits(dict_size, sizeof(uint32_t))) {
      return Status::IOError("truncated dict values");
    }
    std::vector<std::string> values;
    values.reserve(dict_size);
    for (uint32_t k = 0; k < dict_size; ++k) {
      XORBITS_ASSIGN_OR_RETURN(std::string s, Str());
      values.push_back(std::move(s));
    }
    return values;
  }
};

/// Encodes one column into a standalone block.
std::string EncodeColumn(const Column& c) {
  std::ostringstream os;
  const int64_t n = c.length();
  WritePod<uint8_t>(os, c.has_validity() ? 1 : 0);
  if (c.has_validity()) {
    os.write(reinterpret_cast<const char*>(c.validity().data()), n);
  }
  switch (c.dtype()) {
    case DType::kInt64:
      os.write(reinterpret_cast<const char*>(c.int64_data().data()), n * 8);
      break;
    case DType::kFloat64:
      os.write(reinterpret_cast<const char*>(c.float64_data().data()), n * 8);
      break;
    case DType::kBool:
      os.write(reinterpret_cast<const char*>(c.bool_data().data()), n);
      break;
    case DType::kString:
      if (c.is_dict()) {
        // Dictionary page: the values are already deduplicated (StringDict
        // invariant), so they round-trip without a rebuild.
        WritePod<uint8_t>(os, kEncodingDict);
        const dataframe::StringDict& d = *c.dict();
        WritePod<uint32_t>(os, static_cast<uint32_t>(d.size()));
        for (int64_t k = 0; k < d.size(); ++k) {
          WriteStr(os, d.value(static_cast<int32_t>(k)));
        }
        os.write(reinterpret_cast<const char*>(c.dict_codes().data()), n * 4);
      } else {
        WritePod<uint8_t>(os, kEncodingPlain);
        for (const auto& s : c.string_data()) WriteStr(os, s);
      }
      break;
  }
  return os.str();
}

Result<Column> DecodeColumn(const std::string& block, DType dtype, int64_t n,
                            bool has_encoding_byte, bool dict_encode) {
  Cursor in(block);
  uint8_t has_validity = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&has_validity));
  std::vector<uint8_t> validity;
  if (has_validity) {
    XORBITS_ASSIGN_OR_RETURN(validity,
                             in.Vec<uint8_t>(n, "truncated validity"));
  }
  switch (dtype) {
    case DType::kInt64: {
      XORBITS_ASSIGN_OR_RETURN(auto data,
                               in.Vec<int64_t>(n, "truncated int64 block"));
      return Column::Int64(std::move(data), std::move(validity));
    }
    case DType::kFloat64: {
      XORBITS_ASSIGN_OR_RETURN(auto data,
                               in.Vec<double>(n, "truncated float64 block"));
      return Column::Float64(std::move(data), std::move(validity));
    }
    case DType::kBool: {
      XORBITS_ASSIGN_OR_RETURN(auto data,
                               in.Vec<uint8_t>(n, "truncated bool block"));
      return Column::Bool(std::move(data), std::move(validity));
    }
    case DType::kString: {
      uint8_t encoding = kEncodingPlain;
      if (has_encoding_byte) XORBITS_RETURN_NOT_OK(in.Pod(&encoding));
      if (encoding == kEncodingDict) {
        XORBITS_ASSIGN_OR_RETURN(auto values, in.DictValues());
        XORBITS_ASSIGN_OR_RETURN(auto codes,
                                 in.Vec<int32_t>(n, "truncated dict codes"));
        if (!dataframe::DictCodesInRange(
                codes.data(), n, validity.empty() ? nullptr : validity.data(),
                static_cast<int64_t>(values.size()))) {
          return Status::IOError("dictionary code out of range");
        }
        Column col = Column::Dictionary(
            common::BufferView<int32_t>(std::move(codes)),
            dataframe::StringDict::Make(std::move(values)),
            common::BufferView<uint8_t>(std::move(validity)));
        if (!dict_encode) return col.DictDecode();
        ChargeScoped(CounterId::kDictEncodedColumns);
        return col;
      }
      if (encoding != kEncodingPlain) {
        return Status::IOError("bad string encoding tag");
      }
      if (!in.Fits(n, sizeof(uint32_t))) {
        return Status::IOError("truncated string block");
      }
      std::vector<std::string> data;
      data.reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        XORBITS_ASSIGN_OR_RETURN(std::string s, in.Str());
        data.push_back(std::move(s));
      }
      Column col = Column::String(std::move(data), std::move(validity));
      return dict_encode ? col.DictEncode() : col;
    }
  }
  return Status::IOError("bad dtype");
}

/// Selective decode: produces only `rows` (strictly ascending positions in
/// [0, n)) of a column block, without materializing the rest. Fixed-width
/// payloads gather straight out of the raw bytes (memcpy per value — the
/// payload is unaligned behind the validity prefix); plain string blocks
/// walk the length prefixes once and copy only selected strings; dictionary
/// pages decode the dictionary fully (it is shared and deduplicated) and
/// gather the int32 codes. Value-identical to DecodeColumn + row gather.
Result<Column> DecodeColumnRows(const std::string& block, DType dtype,
                                int64_t n, bool has_encoding_byte,
                                bool dict_encode,
                                const std::vector<int64_t>& rows) {
  Cursor in(block);
  uint8_t has_validity = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&has_validity));
  const char* validity_base = nullptr;
  if (has_validity) {
    XORBITS_ASSIGN_OR_RETURN(validity_base,
                             in.Take(n, 1, "truncated validity"));
  }
  const int64_t m = static_cast<int64_t>(rows.size());
  for (int64_t i = 0; i < m; ++i) {
    if (rows[i] < 0 || rows[i] >= n || (i > 0 && rows[i] <= rows[i - 1])) {
      return Status::Invalid("DecodeColumnRows: rows not ascending/in range");
    }
  }
  std::vector<uint8_t> validity;
  if (has_validity) {
    validity.resize(m);
    for (int64_t i = 0; i < m; ++i) {
      validity[i] = static_cast<uint8_t>(validity_base[rows[i]]);
    }
  }
  switch (dtype) {
    case DType::kInt64: {
      XORBITS_ASSIGN_OR_RETURN(const char* p,
                               in.Take(n, 8, "truncated int64 block"));
      std::vector<int64_t> data(m);
      for (int64_t i = 0; i < m; ++i) {
        std::memcpy(&data[i], p + rows[i] * 8, 8);
      }
      return Column::Int64(std::move(data), std::move(validity));
    }
    case DType::kFloat64: {
      XORBITS_ASSIGN_OR_RETURN(const char* p,
                               in.Take(n, 8, "truncated float64 block"));
      std::vector<double> data(m);
      for (int64_t i = 0; i < m; ++i) {
        std::memcpy(&data[i], p + rows[i] * 8, 8);
      }
      return Column::Float64(std::move(data), std::move(validity));
    }
    case DType::kBool: {
      XORBITS_ASSIGN_OR_RETURN(const char* p,
                               in.Take(n, 1, "truncated bool block"));
      std::vector<uint8_t> data(m);
      for (int64_t i = 0; i < m; ++i) {
        data[i] = static_cast<uint8_t>(p[rows[i]]);
      }
      return Column::Bool(std::move(data), std::move(validity));
    }
    case DType::kString: {
      uint8_t encoding = kEncodingPlain;
      if (has_encoding_byte) XORBITS_RETURN_NOT_OK(in.Pod(&encoding));
      if (encoding == kEncodingDict) {
        XORBITS_ASSIGN_OR_RETURN(auto values, in.DictValues());
        XORBITS_ASSIGN_OR_RETURN(const char* p,
                                 in.Take(n, 4, "truncated dict codes"));
        const int64_t dict_size = static_cast<int64_t>(values.size());
        std::vector<int32_t> codes(m);
        uint32_t max_code = 0;  // as unsigned: a negative code reads huge
        for (int64_t i = 0; i < m; ++i) {
          std::memcpy(&codes[i], p + rows[i] * 4, 4);
          max_code = std::max(max_code, static_cast<uint32_t>(codes[i]));
        }
        if (max_code >= dict_size &&
            !dataframe::DictCodesInRange(
                codes.data(), m, validity.empty() ? nullptr : validity.data(),
                dict_size)) {
          return Status::IOError("dictionary code out of range");
        }
        if (dict_encode) {
          ChargeScoped(CounterId::kDictEncodedColumns);
          return Column::Dictionary(
              common::BufferView<int32_t>(std::move(codes)),
              dataframe::StringDict::Make(std::move(values)),
              common::BufferView<uint8_t>(std::move(validity)));
        }
        std::vector<std::string> data(m);
        for (int64_t i = 0; i < m; ++i) {
          if (validity.empty() || validity[i]) data[i] = values[codes[i]];
        }
        return Column::String(std::move(data), std::move(validity));
      }
      if (encoding != kEncodingPlain) {
        return Status::IOError("bad string encoding tag");
      }
      std::vector<std::string> data(m);
      int64_t next = 0;
      for (int64_t r = 0; r < n && next < m; ++r) {
        uint32_t len = 0;
        XORBITS_RETURN_NOT_OK(in.Pod(&len));
        XORBITS_ASSIGN_OR_RETURN(const char* s,
                                 in.Take(len, 1, "truncated string block"));
        if (rows[next] == r) data[next++].assign(s, len);
      }
      if (next < m) return Status::IOError("string block shorter than rows");
      Column col = Column::String(std::move(data), std::move(validity));
      return dict_encode ? col.DictEncode() : col;
    }
  }
  return Status::IOError("bad dtype");
}

}  // namespace

bool XpqFileInfo::HasColumn(const std::string& name) const {
  for (const auto& c : columns) {
    if (c.name == name) return true;
  }
  return false;
}

Status WriteXpq(const std::string& path, const DataFrame& df) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  WritePod(out, kMagic);
  std::vector<XpqColumnInfo> infos;
  for (int c = 0; c < df.num_columns(); ++c) {
    XpqColumnInfo info;
    info.name = df.column_name(c);
    info.dtype = df.column(c).dtype();
    info.offset = static_cast<int64_t>(out.tellp());
    std::string block = EncodeColumn(df.column(c));
    info.nbytes = static_cast<int64_t>(block.size());
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
    infos.push_back(std::move(info));
  }
  const int64_t footer_start = static_cast<int64_t>(out.tellp());
  WritePod<int64_t>(out, df.num_rows());
  WritePod<uint32_t>(out, static_cast<uint32_t>(infos.size()));
  for (const auto& info : infos) {
    WriteStr(out, info.name);
    WritePod<uint8_t>(out, static_cast<uint8_t>(info.dtype));
    WritePod<int64_t>(out, info.offset);
    WritePod<int64_t>(out, info.nbytes);
  }
  const int64_t footer_size =
      static_cast<int64_t>(out.tellp()) - footer_start;
  WritePod<int64_t>(out, footer_size);
  WritePod(out, kMagic);
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
  if (magic != kMagic && magic != kMagicV1) {
    return Status::IOError("bad xparquet magic: " + path);
  }
  // Layout: leading magic, column blocks, footer, footer size, magic. The
  // footer holds at least the row and column counts.
  if (footer_size < 12 || footer_size > file_size - 16) {
    return Status::IOError("bad xparquet footer size: " + path);
  }
  const int64_t footer_start = file_size - 12 - footer_size;
  std::string footer(footer_size, '\0');
  in.seekg(footer_start);
  in.read(footer.data(), footer_size);
  if (!in) return Status::IOError("truncated xparquet footer: " + path);
  Cursor c(footer);
  XpqFileInfo info;
  info.version = magic == kMagic ? 2 : 1;
  XORBITS_RETURN_NOT_OK(c.Pod(&info.num_rows));
  uint32_t ncols = 0;
  XORBITS_RETURN_NOT_OK(c.Pod(&ncols));
  // Each entry: name length, dtype, offset, nbytes.
  if (info.num_rows < 0 || !c.Fits(ncols, 4 + 1 + 8 + 8)) {
    return Status::IOError("bad xparquet footer: " + path);
  }
  for (uint32_t k = 0; k < ncols; ++k) {
    XpqColumnInfo ci;
    XORBITS_ASSIGN_OR_RETURN(ci.name, c.Str());
    uint8_t dt = 0;
    XORBITS_RETURN_NOT_OK(c.Pod(&dt));
    if (dt > static_cast<uint8_t>(DType::kBool)) {
      return Status::IOError("bad xparquet dtype: " + path);
    }
    ci.dtype = static_cast<DType>(dt);
    XORBITS_RETURN_NOT_OK(c.Pod(&ci.offset));
    XORBITS_RETURN_NOT_OK(c.Pod(&ci.nbytes));
    if (ci.offset < 4 || ci.nbytes < 1 ||
        ci.offset > footer_start - ci.nbytes) {
      return Status::IOError("xparquet column block outside the file: " +
                             path);
    }
    // Every encoding spends at least one byte per row past the block's
    // validity flag, so a row count the block cannot hold is corrupt.
    if (info.num_rows >= ci.nbytes) {
      return Status::IOError("xparquet row count exceeds column block: " +
                             path);
    }
    info.columns.push_back(std::move(ci));
  }
  return info;
}

Result<DataFrame> ReadXpq(const std::string& path,
                          const std::vector<std::string>& columns,
                          int64_t row_offset, int64_t row_count,
                          int64_t* bytes_read, bool dict_encode) {
  XORBITS_ASSIGN_OR_RETURN(XpqFileInfo info, ReadXpqInfo(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);

  std::vector<const XpqColumnInfo*> wanted;
  if (columns.empty()) {
    for (const auto& c : info.columns) wanted.push_back(&c);
  } else {
    for (const auto& name : columns) {
      const XpqColumnInfo* found = nullptr;
      for (const auto& c : info.columns) {
        if (c.name == name) {
          found = &c;
          break;
        }
      }
      if (!found) {
        return Status::KeyError("xparquet column not found: " + name);
      }
      wanted.push_back(found);
    }
  }
  std::vector<std::string> names;
  std::vector<Column> cols;
  for (const XpqColumnInfo* ci : wanted) {
    in.seekg(ci->offset);
    std::string block(ci->nbytes, '\0');
    in.read(block.data(), ci->nbytes);
    if (!in) return Status::IOError("truncated column block: " + ci->name);
    if (bytes_read != nullptr) *bytes_read += ci->nbytes;
    XORBITS_ASSIGN_OR_RETURN(
        Column col, DecodeColumn(block, ci->dtype, info.num_rows,
                                 info.version >= 2, dict_encode));
    // Eager decode makes the full column dense regardless of what the
    // query later touches — the denominator the lazy path is measured
    // against (DESIGN.md §10).
    ChargeScoped(CounterId::kBytesMaterialized, col.nbytes());
    names.push_back(ci->name);
    cols.push_back(std::move(col));
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame df,
                           DataFrame::Make(std::move(names), std::move(cols)));
  if (row_offset != 0 || row_count >= 0) {
    const int64_t count = row_count < 0 ? info.num_rows - row_offset
                                        : row_count;
    df = df.SliceRows(row_offset, count);
    df.set_index(dataframe::Index::Range(row_offset,
                                         row_offset + df.num_rows()));
  }
  return df;
}

int64_t XpqColumnSource::nbytes_hint() const {
  if (file_rows_ <= 0) return 0;
  // Encoded block size scaled to the window — a fine estimate: payloads
  // are stored uncompressed, so encoded ~= dense.
  return info_.nbytes * row_count_ / file_rows_;
}

std::string XpqColumnSource::describe() const {
  return "xpq:" + path_ + ":" + info_.name;
}

Result<Column> XpqColumnSource::LoadRows(
    const std::vector<int64_t>* rows) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path_);
  in.seekg(info_.offset);
  std::string block(info_.nbytes, '\0');
  in.read(block.data(), info_.nbytes);
  if (!in) return Status::IOError("truncated column block: " + info_.name);
  if (rows == nullptr && row_offset_ == 0 && row_count_ == file_rows_) {
    return DecodeColumn(block, info_.dtype, file_rows_, has_encoding_byte_,
                        dict_encode_);
  }
  std::vector<int64_t> abs;
  if (rows != nullptr) {
    abs.reserve(rows->size());
    for (int64_t r : *rows) abs.push_back(row_offset_ + r);
  } else {
    abs.reserve(row_count_);
    for (int64_t r = 0; r < row_count_; ++r) abs.push_back(row_offset_ + r);
  }
  return DecodeColumnRows(block, info_.dtype, file_rows_, has_encoding_byte_,
                          dict_encode_, abs);
}

Result<Column> XpqColumnSource::Load(const std::vector<int64_t>& rows) const {
  return LoadRows(&rows);
}

Result<Column> XpqColumnSource::LoadAll() const { return LoadRows(nullptr); }

Result<DataFrame> ReadXpqLazy(const std::string& path,
                              const std::vector<std::string>& columns,
                              int64_t row_offset, int64_t row_count,
                              bool dict_encode) {
  XORBITS_ASSIGN_OR_RETURN(XpqFileInfo info, ReadXpqInfo(path));
  std::vector<const XpqColumnInfo*> wanted;
  if (columns.empty()) {
    for (const auto& c : info.columns) wanted.push_back(&c);
  } else {
    for (const auto& name : columns) {
      const XpqColumnInfo* found = nullptr;
      for (const auto& c : info.columns) {
        if (c.name == name) {
          found = &c;
          break;
        }
      }
      if (!found) {
        return Status::KeyError("xparquet column not found: " + name);
      }
      wanted.push_back(found);
    }
  }
  if (row_offset < 0 || row_offset > info.num_rows) {
    return Status::Invalid("ReadXpqLazy: row_offset out of range");
  }
  const int64_t count = row_count < 0 ? info.num_rows - row_offset
                                      : std::min(row_count,
                                                 info.num_rows - row_offset);
  DataFrame df;
  for (const XpqColumnInfo* ci : wanted) {
    XORBITS_RETURN_NOT_OK(df.SetColumnSource(
        ci->name,
        std::make_shared<XpqColumnSource>(path, *ci, info.num_rows,
                                          row_offset, count,
                                          info.version >= 2, dict_encode)));
  }
  df.set_index(dataframe::Index::Range(row_offset, row_offset + count));
  return df;
}

}  // namespace xorbits::io
