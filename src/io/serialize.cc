#include "io/serialize.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <variant>

#include "dataframe/dict.h"

namespace xorbits::io {

namespace {

using common::BufferView;
using dataframe::Column;
using dataframe::DataFrame;
using dataframe::DType;
using dataframe::Index;
using tensor::NDArray;

// "XDF" v3: column payloads are tagged (inline vs back-reference) so that
// views sharing one buffer window within a frame are written once and the
// sharing is reconstructed on read (spill/restore keeps memory accounting
// honest). A frame without internal sharing has exactly one inline payload
// per column, so its bytes do not depend on how the columns were built.
// v3 adds a physical-encoding byte to string columns: dictionary-encoded
// columns persist their int32 codes plus the dictionary values (both as
// payloads, so a dictionary shared across columns is written once and the
// sharing — including the StringDict object — survives the round trip).
// v2 frames (no encoding byte) remain readable.
// v4 packs dictionary-code payloads to the narrowest of 1/2/4 bytes that
// covers the code range and RLE-compresses runs when that is smaller —
// the lightweight wire compression the pipelined exchange meters as
// `shuffle_wire_bytes` (DESIGN.md §11). v2/v3 frames remain readable.
constexpr uint32_t kDfMagicV2 = 0x58444602;
constexpr uint32_t kDfMagicV3 = 0x58444603;
constexpr uint32_t kDfMagic = 0x58444604;
constexpr uint32_t kArrMagic = 0x58415201;  // "XAR" v1

constexpr uint8_t kPayloadInline = 0;
constexpr uint8_t kPayloadBackref = 1;
constexpr uint8_t kPayloadPackedCodes = 2;  // v4, int32 dict codes only

constexpr uint8_t kEncodingPlain = 0;
constexpr uint8_t kEncodingDict = 1;

template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// A stream being decoded plus the count of bytes left in it. Every length
/// prefix and element count is checked against `left` before anything is
/// allocated, so corrupt input fails with IOError instead of attempting a
/// huge allocation.
struct Reader {
  std::istream& is;
  uint64_t left;

  explicit Reader(std::istream& stream) : is(stream), left(0) {
    const std::streampos pos = is.tellg();
    if (pos < 0) return;  // unseekable: every sized read fails cleanly
    is.seekg(0, std::ios::end);
    const std::streampos end = is.tellg();
    is.seekg(pos);
    if (end > pos) left = static_cast<uint64_t>(end - pos);
  }

  /// Reads `n` raw bytes into `dst`.
  Status Read(void* dst, uint64_t n) {
    if (n > left) return Status::IOError("truncated stream");
    is.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is) return Status::IOError("truncated stream");
    left -= n;
    return Status::OK();
  }

  /// Fails unless `count` items of at least `min_bytes` each fit in the
  /// bytes left.
  Status CheckFits(uint64_t count, uint64_t min_bytes) const {
    if (count > left / min_bytes) {
      return Status::IOError("length prefix exceeds the bytes left");
    }
    return Status::OK();
  }
};

template <typename T>
Status ReadPod(Reader& in, T* v) {
  return in.Read(v, sizeof(*v));
}

void WriteString(std::ostream& os, const std::string& s) {
  WritePod<uint64_t>(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

Result<std::string> ReadString(Reader& in) {
  uint64_t len = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &len));
  XORBITS_RETURN_NOT_OK(in.CheckFits(len, 1));
  std::string s(len, '\0');
  XORBITS_RETURN_NOT_OK(in.Read(s.data(), len));
  return s;
}

/// Writes a length-prefixed POD span directly from view memory — no
/// intermediate vector materialization for sliced views.
template <typename T>
void WriteSpan(std::ostream& os, const T* data, uint64_t n) {
  WritePod<uint64_t>(os, n);
  os.write(reinterpret_cast<const char*>(data),
           static_cast<std::streamsize>(n * sizeof(T)));
}

void WriteSpan(std::ostream& os, const std::string* data, uint64_t n) {
  WritePod<uint64_t>(os, n);
  for (uint64_t i = 0; i < n; ++i) WriteString(os, data[i]);
}

template <typename T>
void WriteVec(std::ostream& os, const std::vector<T>& v) {
  WriteSpan(os, v.data(), v.size());
}

template <typename T>
Result<std::vector<T>> ReadVec(Reader& in) {
  uint64_t n = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &n));
  XORBITS_RETURN_NOT_OK(in.CheckFits(n, sizeof(T)));
  std::vector<T> v(n);
  XORBITS_RETURN_NOT_OK(in.Read(v.data(), n * sizeof(T)));
  return v;
}

/// Tracks each buffer window already written to (or read from) one frame,
/// keyed by (buffer id, offset, length). Identical views become
/// back-references so intra-chunk sharing survives a spill round-trip.
struct WriteRegistry {
  struct Key {
    uint64_t id;
    int64_t offset;
    int64_t length;
  };
  std::vector<Key> seen;

  int64_t Find(const Key& k) const {
    for (size_t i = 0; i < seen.size(); ++i) {
      if (seen[i].id == k.id && seen[i].offset == k.offset &&
          seen[i].length == k.length) {
        return static_cast<int64_t>(i);
      }
    }
    return -1;
  }
};

using ReadPayloadVariant =
    std::variant<BufferView<int64_t>, BufferView<double>,
                 BufferView<std::string>, BufferView<uint8_t>,
                 BufferView<int32_t>>;

struct ReadRegistry {
  std::vector<ReadPayloadVariant> payloads;
  /// StringDict objects already rebuilt in this frame, so columns that
  /// shared one dictionary before the round trip share one after it too.
  std::vector<dataframe::StringDictPtr> dicts;

  dataframe::StringDictPtr DictFor(const BufferView<std::string>& values) {
    for (const auto& d : dicts) {
      if (d->values().IdenticalTo(values)) return d;
    }
    auto d = std::make_shared<const dataframe::StringDict>(values);
    dicts.push_back(d);
    return d;
  }
};

template <typename T>
Status WritePayload(std::ostream& os, const BufferView<T>& v,
                    WriteRegistry* reg) {
  if (v.has_buffer() && !v.empty()) {
    WriteRegistry::Key key{v.buffer_id(), v.offset(), v.ssize()};
    const int64_t idx = reg->Find(key);
    if (idx >= 0) {
      WritePod<uint8_t>(os, kPayloadBackref);
      WritePod<uint32_t>(os, static_cast<uint32_t>(idx));
      return os ? Status::OK() : Status::IOError("write failed");
    }
    reg->seen.push_back(key);
    WritePod<uint8_t>(os, kPayloadInline);
    WriteSpan(os, v.data(), v.size());
    return os ? Status::OK() : Status::IOError("write failed");
  }
  WritePod<uint8_t>(os, kPayloadInline);
  WriteSpan(os, v.data(), v.size());
  return os ? Status::OK() : Status::IOError("write failed");
}

template <typename T>
Result<BufferView<T>> ReadInlinePayload(Reader& in) {
  XORBITS_ASSIGN_OR_RETURN(auto data, ReadVec<T>(in));
  return BufferView<T>(std::move(data));
}

template <>
Result<BufferView<std::string>> ReadInlinePayload<std::string>(Reader& in) {
  uint64_t n = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &n));
  XORBITS_RETURN_NOT_OK(in.CheckFits(n, sizeof(uint64_t)));
  std::vector<std::string> data;
  data.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    XORBITS_ASSIGN_OR_RETURN(std::string s, ReadString(in));
    data.push_back(std::move(s));
  }
  return BufferView<std::string>(std::move(data));
}

template <typename T>
Result<BufferView<T>> ReadPayload(Reader& in, ReadRegistry* reg) {
  uint8_t tag = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &tag));
  if (tag == kPayloadBackref) {
    uint32_t idx = 0;
    XORBITS_RETURN_NOT_OK(ReadPod(in, &idx));
    if (idx >= reg->payloads.size()) {
      return Status::IOError("payload back-reference out of range");
    }
    const auto* v = std::get_if<BufferView<T>>(&reg->payloads[idx]);
    if (v == nullptr) {
      return Status::IOError("payload back-reference type mismatch");
    }
    return *v;
  }
  if (tag != kPayloadInline) return Status::IOError("bad payload tag");
  XORBITS_ASSIGN_OR_RETURN(BufferView<T> v, ReadInlinePayload<T>(in));
  if (!v.empty()) reg->payloads.push_back(v);
  return v;
}

/// v4 dictionary-code payload: codes pack to the narrowest of 1/2/4 bytes
/// covering their range, plus RLE when `runs * (width + 4)` beats raw
/// packing. Shares the back-reference registry with WritePayload, so a
/// code buffer reused across columns is still written once. Negative codes
/// (no current producer emits them) fall back to raw 4-byte packing so the
/// format stays total.
Status WritePackedCodes(std::ostream& os, const BufferView<int32_t>& v,
                        WriteRegistry* reg) {
  if (v.has_buffer() && !v.empty()) {
    WriteRegistry::Key key{v.buffer_id(), v.offset(), v.ssize()};
    const int64_t idx = reg->Find(key);
    if (idx >= 0) {
      WritePod<uint8_t>(os, kPayloadBackref);
      WritePod<uint32_t>(os, static_cast<uint32_t>(idx));
      return os ? Status::OK() : Status::IOError("write failed");
    }
    reg->seen.push_back(key);
  }
  WritePod<uint8_t>(os, kPayloadPackedCodes);
  const int64_t n = v.ssize();
  WritePod<uint64_t>(os, static_cast<uint64_t>(n));
  int32_t max_code = 0;
  bool negative = false;
  int64_t run_count = n > 0 ? 1 : 0;
  for (int64_t i = 0; i < n; ++i) {
    if (v[i] < 0) negative = true;
    if (v[i] > max_code) max_code = v[i];
    if (i > 0 && v[i] != v[i - 1]) ++run_count;
  }
  uint8_t width = 4;
  if (!negative) {
    if (max_code <= 0xff) {
      width = 1;
    } else if (max_code <= 0xffff) {
      width = 2;
    }
  }
  const bool rle =
      n > 0 && run_count * (width + 4) < n * static_cast<int64_t>(width);
  WritePod<uint8_t>(os, width);
  WritePod<uint8_t>(os, rle ? 1 : 0);
  auto write_code = [&](int32_t c) {
    if (width == 1) {
      WritePod<uint8_t>(os, static_cast<uint8_t>(c));
    } else if (width == 2) {
      WritePod<uint16_t>(os, static_cast<uint16_t>(c));
    } else {
      WritePod<int32_t>(os, c);
    }
  };
  if (rle) {
    WritePod<uint64_t>(os, static_cast<uint64_t>(run_count));
    int64_t i = 0;
    while (i < n) {
      int64_t j = i;
      while (j < n && v[j] == v[i]) ++j;
      write_code(v[i]);
      WritePod<uint32_t>(os, static_cast<uint32_t>(j - i));
      i = j;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) write_code(v[i]);
  }
  return os ? Status::OK() : Status::IOError("write failed");
}

/// Reads a dictionary-code payload. `max_code` receives the largest code
/// read as unsigned (a negative code reads as huge), so the caller can
/// range-check the codes against their dictionary without another pass;
/// back-references and inline payloads report UINT32_MAX (unknown).
Result<BufferView<int32_t>> ReadPackedCodes(Reader& in, ReadRegistry* reg,
                                            uint32_t* max_code) {
  *max_code = std::numeric_limits<uint32_t>::max();
  uint8_t tag = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &tag));
  if (tag == kPayloadBackref) {
    uint32_t idx = 0;
    XORBITS_RETURN_NOT_OK(ReadPod(in, &idx));
    if (idx >= reg->payloads.size()) {
      return Status::IOError("payload back-reference out of range");
    }
    const auto* v = std::get_if<BufferView<int32_t>>(&reg->payloads[idx]);
    if (v == nullptr) {
      return Status::IOError("payload back-reference type mismatch");
    }
    return *v;
  }
  if (tag == kPayloadInline) {  // not emitted by the v4 writer; accepted
    XORBITS_ASSIGN_OR_RETURN(auto v, ReadInlinePayload<int32_t>(in));
    if (!v.empty()) reg->payloads.push_back(v);
    return v;
  }
  if (tag != kPayloadPackedCodes) return Status::IOError("bad payload tag");
  uint64_t n = 0;
  uint8_t width = 0, rle = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &n));
  XORBITS_RETURN_NOT_OK(ReadPod(in, &width));
  XORBITS_RETURN_NOT_OK(ReadPod(in, &rle));
  if (width != 1 && width != 2 && width != 4) {
    return Status::IOError("bad packed-code width");
  }
  auto read_code = [&](int32_t* c) -> Status {
    if (width == 1) {
      uint8_t b = 0;
      XORBITS_RETURN_NOT_OK(ReadPod(in, &b));
      *c = b;
    } else if (width == 2) {
      uint16_t b = 0;
      XORBITS_RETURN_NOT_OK(ReadPod(in, &b));
      *c = b;
    } else {
      XORBITS_RETURN_NOT_OK(ReadPod(in, c));
    }
    return Status::OK();
  };
  uint32_t hi = 0;
  BufferView<int32_t> out;
  if (rle) {
    // Run headers are read (and their lengths summed against `n`) before
    // the expansion is allocated: RLE output may legitimately exceed the
    // bytes left, so `n` cannot be checked against them.
    uint64_t runs = 0;
    XORBITS_RETURN_NOT_OK(ReadPod(in, &runs));
    XORBITS_RETURN_NOT_OK(in.CheckFits(runs, width + sizeof(uint32_t)));
    std::vector<std::pair<int32_t, uint32_t>> run_list(runs);
    uint64_t total = 0;
    for (auto& [c, len] : run_list) {
      XORBITS_RETURN_NOT_OK(read_code(&c));
      XORBITS_RETURN_NOT_OK(ReadPod(in, &len));
      total += len;
      if (total > n) return Status::IOError("packed-code run overflow");
      hi = std::max(hi, static_cast<uint32_t>(c));
    }
    if (total != n) return Status::IOError("packed-code run underflow");
    out.Reserve(static_cast<int64_t>(n));
    for (const auto& [c, len] : run_list) {
      for (uint32_t k = 0; k < len; ++k) out.AppendValue(c);
    }
  } else {
    XORBITS_RETURN_NOT_OK(in.CheckFits(n, width));
    out.Reserve(static_cast<int64_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      int32_t c = 0;
      XORBITS_RETURN_NOT_OK(read_code(&c));
      hi = std::max(hi, static_cast<uint32_t>(c));
      out.AppendValue(c);
    }
  }
  if (n > 0) *max_code = hi;
  if (!out.empty()) reg->payloads.push_back(out);
  return out;
}

Status WriteColumn(std::ostream& os, const Column& c, WriteRegistry* reg) {
  WritePod<uint8_t>(os, static_cast<uint8_t>(c.dtype()));
  WritePod<uint8_t>(os, c.has_validity() ? 1 : 0);
  if (c.has_validity()) {
    XORBITS_RETURN_NOT_OK(WritePayload(os, c.validity(), reg));
  }
  switch (c.dtype()) {
    case DType::kInt64:
      XORBITS_RETURN_NOT_OK(WritePayload(os, c.int64_data(), reg));
      break;
    case DType::kFloat64:
      XORBITS_RETURN_NOT_OK(WritePayload(os, c.float64_data(), reg));
      break;
    case DType::kBool:
      XORBITS_RETURN_NOT_OK(WritePayload(os, c.bool_data(), reg));
      break;
    case DType::kString:
      if (c.is_dict()) {
        WritePod<uint8_t>(os, kEncodingDict);
        XORBITS_RETURN_NOT_OK(WritePackedCodes(os, c.dict_codes(), reg));
        XORBITS_RETURN_NOT_OK(WritePayload(os, c.dict()->values(), reg));
      } else {
        WritePod<uint8_t>(os, kEncodingPlain);
        XORBITS_RETURN_NOT_OK(WritePayload(os, c.string_data(), reg));
      }
      break;
  }
  if (!os) return Status::IOError("write failed");
  return Status::OK();
}

Result<Column> ReadColumn(Reader& in, ReadRegistry* reg, uint32_t version) {
  uint8_t dtype_raw = 0, has_validity = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &dtype_raw));
  XORBITS_RETURN_NOT_OK(ReadPod(in, &has_validity));
  if (dtype_raw > static_cast<uint8_t>(DType::kBool)) {
    return Status::IOError("bad dtype tag");
  }
  const DType dtype = static_cast<DType>(dtype_raw);
  BufferView<uint8_t> validity;
  if (has_validity) {
    XORBITS_ASSIGN_OR_RETURN(validity, ReadPayload<uint8_t>(in, reg));
  }
  Column col;
  // Largest dictionary code read, as unsigned; UINT32_MAX = not tracked.
  uint32_t max_code = std::numeric_limits<uint32_t>::max();
  switch (dtype) {
    case DType::kInt64: {
      XORBITS_ASSIGN_OR_RETURN(auto data, ReadPayload<int64_t>(in, reg));
      col = Column::FromView(std::move(data), std::move(validity));
      break;
    }
    case DType::kFloat64: {
      XORBITS_ASSIGN_OR_RETURN(auto data, ReadPayload<double>(in, reg));
      col = Column::FromView(std::move(data), std::move(validity));
      break;
    }
    case DType::kBool: {
      XORBITS_ASSIGN_OR_RETURN(auto data, ReadPayload<uint8_t>(in, reg));
      col = Column::BoolFromView(std::move(data), std::move(validity));
      break;
    }
    case DType::kString: {
      uint8_t encoding = kEncodingPlain;
      if (version >= 3) XORBITS_RETURN_NOT_OK(ReadPod(in, &encoding));
      if (encoding == kEncodingDict) {
        BufferView<int32_t> codes;
        if (version >= 4) {
          XORBITS_ASSIGN_OR_RETURN(codes, ReadPackedCodes(in, reg, &max_code));
        } else {
          XORBITS_ASSIGN_OR_RETURN(codes, ReadPayload<int32_t>(in, reg));
        }
        XORBITS_ASSIGN_OR_RETURN(auto values,
                                 ReadPayload<std::string>(in, reg));
        col = Column::Dictionary(std::move(codes), reg->DictFor(values),
                                 std::move(validity));
      } else if (encoding == kEncodingPlain) {
        XORBITS_ASSIGN_OR_RETURN(auto data,
                                 ReadPayload<std::string>(in, reg));
        col = Column::FromView(std::move(data), std::move(validity));
      } else {
        return Status::IOError("bad string encoding tag");
      }
      break;
    }
  }
  if (col.has_validity() && col.validity().ssize() != col.length()) {
    return Status::IOError("validity length does not match the column");
  }
  if (col.is_dict() && max_code >= col.dict()->size() &&
      !dataframe::DictCodesInRange(
          col.dict_codes().data(), col.length(),
          col.has_validity() ? col.validity().data() : nullptr,
          col.dict()->size())) {
    return Status::IOError("dictionary code out of range");
  }
  return col;
}

}  // namespace

Status WriteDataFrame(std::ostream& os, const DataFrame& df) {
  // Serialization is a forcing point (DESIGN.md §10): the stream format is
  // dense, so every lazy slot resolves through the frame's selection below
  // (the per-column reads) — meter the event. The frame itself stays lazy;
  // resolved cells are cached for other consumers.
  if (df.is_lazy()) {
    ChargeScoped(CounterId::kSelectionsForced);
  }
  WritePod(os, kDfMagic);
  WritePod<uint32_t>(os, static_cast<uint32_t>(df.num_columns()));
  WriteRegistry reg;
  for (int i = 0; i < df.num_columns(); ++i) {
    WriteString(os, df.column_name(i));
    XORBITS_RETURN_NOT_OK(WriteColumn(os, df.column(i), &reg));
  }
  // Index: 0 = range(start), 1 = raw int64 labels, 2 = width-packed labels
  // (v4). Shuffle partitions carry row-position labels whose span is far
  // narrower than int64, so pack them as offsets from their minimum in the
  // narrowest of 1/2/4 bytes — this is most of the `shuffle_wire_bytes`
  // saving on frames whose columns are already dictionary-packed.
  const Index& idx = df.index();
  if (idx.is_range()) {
    WritePod<uint8_t>(os, 0);
    WritePod<int64_t>(os, idx.range_start());
    WritePod<int64_t>(os, idx.range_start() + idx.length());
  } else {
    std::vector<int64_t> labels(idx.length());
    for (int64_t i = 0; i < idx.length(); ++i) labels[i] = idx.Label(i);
    int64_t lo = 0;
    uint64_t span = 0;
    if (!labels.empty()) {
      auto [mn, mx] = std::minmax_element(labels.begin(), labels.end());
      lo = *mn;
      span = static_cast<uint64_t>(*mx) - static_cast<uint64_t>(lo);
    }
    const uint8_t width = span < (1ull << 8)    ? 1
                          : span < (1ull << 16) ? 2
                          : span < (1ull << 32) ? 4
                                                : 8;
    if (labels.empty() || width == 8) {
      WritePod<uint8_t>(os, 1);
      WriteVec(os, labels);
    } else {
      WritePod<uint8_t>(os, 2);
      WritePod<int64_t>(os, lo);
      WritePod<uint64_t>(os, labels.size());
      WritePod<uint8_t>(os, width);
      for (int64_t v : labels) {
        const uint64_t d = static_cast<uint64_t>(v) - static_cast<uint64_t>(lo);
        os.write(reinterpret_cast<const char*>(&d), width);
      }
    }
  }
  if (!os) return Status::IOError("write failed");
  return Status::OK();
}

Result<DataFrame> ReadDataFrame(std::istream& is) {
  Reader in(is);
  uint32_t magic = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &magic));
  if (magic != kDfMagic && magic != kDfMagicV3 && magic != kDfMagicV2) {
    return Status::IOError("bad dataframe magic");
  }
  const uint32_t version = magic & 0xff;
  uint32_t ncols = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &ncols));
  XORBITS_RETURN_NOT_OK(in.CheckFits(ncols, sizeof(uint64_t)));
  ReadRegistry reg;
  std::vector<std::string> names;
  std::vector<Column> cols;
  for (uint32_t i = 0; i < ncols; ++i) {
    XORBITS_ASSIGN_OR_RETURN(std::string name, ReadString(in));
    XORBITS_ASSIGN_OR_RETURN(Column c, ReadColumn(in, &reg, version));
    names.push_back(std::move(name));
    cols.push_back(std::move(c));
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame df,
                           DataFrame::Make(std::move(names), std::move(cols)));
  uint8_t index_kind = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &index_kind));
  Index index;
  if (index_kind == 0) {
    int64_t start = 0, stop = 0;
    XORBITS_RETURN_NOT_OK(ReadPod(in, &start));
    XORBITS_RETURN_NOT_OK(ReadPod(in, &stop));
    int64_t length = 0;
    if (__builtin_sub_overflow(stop, start, &length) || length < 0) {
      return Status::IOError("bad range index");
    }
    index = Index::Range(start, stop);
  } else if (index_kind == 1) {
    XORBITS_ASSIGN_OR_RETURN(auto labels, ReadVec<int64_t>(in));
    index = Index::Labels(std::move(labels));
  } else if (index_kind == 2 && version >= 4) {
    int64_t lo = 0;
    uint64_t n = 0;
    uint8_t width = 0;
    XORBITS_RETURN_NOT_OK(ReadPod(in, &lo));
    XORBITS_RETURN_NOT_OK(ReadPod(in, &n));
    XORBITS_RETURN_NOT_OK(ReadPod(in, &width));
    if (width != 1 && width != 2 && width != 4) {
      return Status::IOError("bad packed-index width");
    }
    XORBITS_RETURN_NOT_OK(in.CheckFits(n, width));
    std::vector<int64_t> labels(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t d = 0;
      XORBITS_RETURN_NOT_OK(in.Read(&d, width));
      labels[i] = static_cast<int64_t>(static_cast<uint64_t>(lo) + d);
    }
    index = Index::Labels(std::move(labels));
  } else {
    return Status::IOError("bad index kind");
  }
  if (ncols > 0 && index.length() != df.num_rows()) {
    return Status::IOError("index length does not match the columns");
  }
  df.set_index(std::move(index));
  return df;
}

Status WriteNDArray(std::ostream& os, const NDArray& a) {
  WritePod(os, kArrMagic);
  WritePod<uint32_t>(os, static_cast<uint32_t>(a.ndim()));
  for (int64_t d : a.shape()) WritePod<int64_t>(os, d);
  WriteSpan(os, a.data().data(), a.data().size());
  if (!os) return Status::IOError("write failed");
  return Status::OK();
}

Result<NDArray> ReadNDArray(std::istream& is) {
  Reader in(is);
  uint32_t magic = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &magic));
  if (magic != kArrMagic) return Status::IOError("bad ndarray magic");
  uint32_t ndim = 0;
  XORBITS_RETURN_NOT_OK(ReadPod(in, &ndim));
  XORBITS_RETURN_NOT_OK(in.CheckFits(ndim, sizeof(int64_t)));
  std::vector<int64_t> shape(ndim);
  for (uint32_t i = 0; i < ndim; ++i) {
    XORBITS_RETURN_NOT_OK(ReadPod(in, &shape[i]));
  }
  XORBITS_ASSIGN_OR_RETURN(auto data, ReadVec<double>(in));
  return NDArray::Make(std::move(data), std::move(shape));
}

Result<std::string> SerializeDataFrame(const DataFrame& df) {
  std::ostringstream os;
  XORBITS_RETURN_NOT_OK(WriteDataFrame(os, df));
  return os.str();
}

Result<DataFrame> DeserializeDataFrame(const std::string& buf) {
  std::istringstream is(buf);
  return ReadDataFrame(is);
}

Result<std::string> SerializeNDArray(const NDArray& a) {
  std::ostringstream os;
  XORBITS_RETURN_NOT_OK(WriteNDArray(os, a));
  return os.str();
}

Result<NDArray> DeserializeNDArray(const std::string& buf) {
  std::istringstream is(buf);
  return ReadNDArray(is);
}

}  // namespace xorbits::io
