#include "io/serialize.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <variant>

#include "dataframe/dict.h"
#include "io/byte_cursor.h"

namespace xorbits::io {

namespace {

using common::BufferView;
using dataframe::Column;
using dataframe::DataFrame;
using dataframe::DType;
using dataframe::Index;
using tensor::NDArray;

// "XDF" v4, the only version written or read: frames live as long as the
// process that spills them or the run that exchanges them, so no older
// version is ever on disk or on the wire. Column payloads are tagged
// (inline vs back-reference) so that views sharing one buffer window
// within a frame are written once and the sharing is reconstructed on read
// (spill/restore keeps memory accounting honest). A frame without internal
// sharing has exactly one inline payload per column, so its bytes do not
// depend on how the columns were built. String columns carry a
// physical-encoding byte: dictionary-encoded columns persist their codes
// plus the dictionary values (the values as a payload, so a dictionary
// shared across columns is written once and the sharing — including the
// StringDict object — survives the round trip). Code payloads pack to the
// narrowest of 1/2/4 bytes that covers the code range and RLE-compress
// runs when that is smaller — the lightweight wire compression the
// pipelined exchange meters as `shuffle_wire_bytes` (DESIGN.md §11).
constexpr uint32_t kDfMagic = 0x58444604;
constexpr uint32_t kArrMagic = 0x58415201;  // "XAR" v1

constexpr uint8_t kPayloadInline = 0;
constexpr uint8_t kPayloadBackref = 1;
constexpr uint8_t kPayloadPackedCodes = 2;  // int32 dict codes only

constexpr uint8_t kEncodingPlain = 0;
constexpr uint8_t kEncodingDict = 1;

constexpr char kOverrun[] = "length prefix exceeds the bytes left";

/// Fails unless `count` items of at least `width` bytes each fit in the
/// bytes left, so a corrupt length prefix fails with IOError instead of
/// attempting a huge allocation.
Status CheckFits(const Cursor& in, uint64_t count, uint64_t width) {
  if (in.Fits(count, width)) return Status::OK();
  return Status::IOError(kOverrun);
}

void WriteString(std::string* out, const std::string& s) {
  PutPod<uint64_t>(out, s.size());
  out->append(s);
}

Result<std::string> ReadString(Cursor& in) {
  uint64_t len = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&len));
  XORBITS_ASSIGN_OR_RETURN(const char* at, in.Take(len, 1, kOverrun));
  return std::string(at, len);
}

/// Writes a length-prefixed POD span directly from view memory — no
/// intermediate vector materialization for sliced views.
template <typename T>
void WriteSpan(std::string* out, const T* data, uint64_t n) {
  PutPod<uint64_t>(out, n);
  out->append(reinterpret_cast<const char*>(data), n * sizeof(T));
}

void WriteSpan(std::string* out, const std::string* data, uint64_t n) {
  PutPod<uint64_t>(out, n);
  for (uint64_t i = 0; i < n; ++i) WriteString(out, data[i]);
}

template <typename T>
Result<std::vector<T>> ReadVec(Cursor& in) {
  uint64_t n = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&n));
  XORBITS_ASSIGN_OR_RETURN(const char* at, in.Take(n, sizeof(T), kOverrun));
  std::vector<T> v(n);
  if (n > 0) std::memcpy(v.data(), at, n * sizeof(T));
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

/// Writes a back-reference when `v`'s buffer window is already in this
/// frame (and returns true); otherwise registers the window.
template <typename T>
bool WriteBackref(std::string* out, const BufferView<T>& v,
                  WriteRegistry* reg) {
  if (!v.has_buffer() || v.empty()) return false;
  WriteRegistry::Key key{v.buffer_id(), v.offset(), v.ssize()};
  const int64_t idx = reg->Find(key);
  if (idx < 0) {
    reg->seen.push_back(key);
    return false;
  }
  PutPod<uint8_t>(out, kPayloadBackref);
  PutPod<uint32_t>(out, static_cast<uint32_t>(idx));
  return true;
}

template <typename T>
void WritePayload(std::string* out, const BufferView<T>& v,
                  WriteRegistry* reg) {
  if (WriteBackref(out, v, reg)) return;
  PutPod<uint8_t>(out, kPayloadInline);
  WriteSpan(out, v.data(), v.size());
}

template <typename T>
Result<BufferView<T>> ReadInlinePayload(Cursor& in) {
  XORBITS_ASSIGN_OR_RETURN(auto data, ReadVec<T>(in));
  return BufferView<T>(std::move(data));
}

template <>
Result<BufferView<std::string>> ReadInlinePayload<std::string>(Cursor& in) {
  uint64_t n = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&n));
  XORBITS_RETURN_NOT_OK(CheckFits(in, n, sizeof(uint64_t)));
  std::vector<std::string> data;
  data.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    XORBITS_ASSIGN_OR_RETURN(std::string s, ReadString(in));
    data.push_back(std::move(s));
  }
  return BufferView<std::string>(std::move(data));
}

/// Resolves a back-reference tag's payload index against this frame's
/// earlier payloads.
template <typename T>
Result<BufferView<T>> ReadBackref(Cursor& in, const ReadRegistry& reg) {
  uint32_t idx = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&idx));
  if (idx >= reg.payloads.size()) {
    return Status::IOError("payload back-reference out of range");
  }
  const auto* v = std::get_if<BufferView<T>>(&reg.payloads[idx]);
  if (v == nullptr) {
    return Status::IOError("payload back-reference type mismatch");
  }
  return *v;
}

template <typename T>
Result<BufferView<T>> ReadPayload(Cursor& in, ReadRegistry* reg) {
  uint8_t tag = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&tag));
  if (tag == kPayloadBackref) return ReadBackref<T>(in, *reg);
  if (tag != kPayloadInline) return Status::IOError("bad payload tag");
  XORBITS_ASSIGN_OR_RETURN(BufferView<T> v, ReadInlinePayload<T>(in));
  if (!v.empty()) reg->payloads.push_back(v);
  return v;
}

/// Dictionary-code payload: codes pack to the narrowest of 1/2/4 bytes
/// covering their range, plus RLE when `runs * (width + 4)` beats raw
/// packing. Shares the back-reference registry with WritePayload, so a
/// code buffer reused across columns is still written once. Negative codes
/// (no current producer emits them) fall back to raw 4-byte packing so the
/// format stays total.
void WritePackedCodes(std::string* out, const BufferView<int32_t>& v,
                      WriteRegistry* reg) {
  if (WriteBackref(out, v, reg)) return;
  PutPod<uint8_t>(out, kPayloadPackedCodes);
  const int64_t n = v.ssize();
  PutPod<uint64_t>(out, static_cast<uint64_t>(n));
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
  PutPod<uint8_t>(out, width);
  PutPod<uint8_t>(out, rle ? 1 : 0);
  // Little-endian: the low `width` bytes of a code are the code.
  auto write_code = [&](int32_t c) {
    out->append(reinterpret_cast<const char*>(&c), width);
  };
  if (rle) {
    PutPod<uint64_t>(out, static_cast<uint64_t>(run_count));
    int64_t i = 0;
    while (i < n) {
      int64_t j = i;
      while (j < n && v[j] == v[i]) ++j;
      write_code(v[i]);
      PutPod<uint32_t>(out, static_cast<uint32_t>(j - i));
      i = j;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) write_code(v[i]);
  }
}

/// Reads a dictionary-code payload. `max_code` receives the largest code
/// read as unsigned (a negative code reads as huge), so the caller can
/// range-check the codes against their dictionary without another pass;
/// a back-reference reports UINT32_MAX (unknown).
Result<BufferView<int32_t>> ReadPackedCodes(Cursor& in, ReadRegistry* reg,
                                            uint32_t* max_code) {
  *max_code = std::numeric_limits<uint32_t>::max();
  uint8_t tag = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&tag));
  if (tag == kPayloadBackref) return ReadBackref<int32_t>(in, *reg);
  if (tag != kPayloadPackedCodes) return Status::IOError("bad payload tag");
  uint64_t n = 0;
  uint8_t width = 0, rle = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&n));
  XORBITS_RETURN_NOT_OK(in.Pod(&width));
  XORBITS_RETURN_NOT_OK(in.Pod(&rle));
  if (width != 1 && width != 2 && width != 4) {
    return Status::IOError("bad packed-code width");
  }
  // Little-endian: a code's `width` bytes are its low bytes.
  auto code_at = [width](const char* p) {
    uint32_t c = 0;
    std::memcpy(&c, p, width);
    return static_cast<int32_t>(c);
  };
  uint32_t hi = 0;
  BufferView<int32_t> out;
  if (rle) {
    // Run headers are checked (and their lengths summed against `n`)
    // before the expansion is allocated: RLE output may legitimately exceed
    // the bytes left, so `n` cannot be checked against them.
    uint64_t runs = 0;
    XORBITS_RETURN_NOT_OK(in.Pod(&runs));
    const uint64_t stride = width + sizeof(uint32_t);
    XORBITS_ASSIGN_OR_RETURN(const char* p, in.Take(runs, stride, kOverrun));
    uint64_t total = 0;
    for (uint64_t r = 0; r < runs; ++r) {
      uint32_t len = 0;
      std::memcpy(&len, p + r * stride + width, sizeof(len));
      total += len;
      if (total > n) return Status::IOError("packed-code run overflow");
      hi = std::max(hi, static_cast<uint32_t>(code_at(p + r * stride)));
    }
    if (total != n) return Status::IOError("packed-code run underflow");
    out.Reserve(static_cast<int64_t>(n));
    for (uint64_t r = 0; r < runs; ++r) {
      const int32_t c = code_at(p + r * stride);
      uint32_t len = 0;
      std::memcpy(&len, p + r * stride + width, sizeof(len));
      for (uint32_t k = 0; k < len; ++k) out.AppendValue(c);
    }
  } else {
    XORBITS_ASSIGN_OR_RETURN(const char* p, in.Take(n, width, kOverrun));
    out.Reserve(static_cast<int64_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      const int32_t c = code_at(p + i * width);
      hi = std::max(hi, static_cast<uint32_t>(c));
      out.AppendValue(c);
    }
  }
  if (n > 0) *max_code = hi;
  if (!out.empty()) reg->payloads.push_back(out);
  return out;
}

void WriteColumn(std::string* out, const Column& c, WriteRegistry* reg) {
  PutPod<uint8_t>(out, static_cast<uint8_t>(c.dtype()));
  PutPod<uint8_t>(out, c.has_validity() ? 1 : 0);
  if (c.has_validity()) WritePayload(out, c.validity(), reg);
  switch (c.dtype()) {
    case DType::kInt64:
      WritePayload(out, c.int64_data(), reg);
      break;
    case DType::kFloat64:
      WritePayload(out, c.float64_data(), reg);
      break;
    case DType::kBool:
      WritePayload(out, c.bool_data(), reg);
      break;
    case DType::kString:
      if (c.is_dict()) {
        PutPod<uint8_t>(out, kEncodingDict);
        WritePackedCodes(out, c.dict_codes(), reg);
        WritePayload(out, c.dict()->values(), reg);
      } else {
        PutPod<uint8_t>(out, kEncodingPlain);
        WritePayload(out, c.string_data(), reg);
      }
      break;
  }
}

Result<Column> ReadColumn(Cursor& in, ReadRegistry* reg) {
  uint8_t dtype_raw = 0, has_validity = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&dtype_raw));
  XORBITS_RETURN_NOT_OK(in.Pod(&has_validity));
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
      uint8_t encoding = 0;
      XORBITS_RETURN_NOT_OK(in.Pod(&encoding));
      if (encoding == kEncodingDict) {
        XORBITS_ASSIGN_OR_RETURN(auto codes,
                                 ReadPackedCodes(in, reg, &max_code));
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

void AppendDataFrame(const DataFrame& df, std::string* out) {
  // Serialization is a forcing point (DESIGN.md §10): the format is dense,
  // so every lazy slot resolves through the frame's selection below (the
  // per-column reads) — meter the event. The frame itself stays lazy;
  // resolved cells are cached for other consumers.
  if (df.is_lazy()) {
    ChargeScoped(CounterId::kSelectionsForced);
  }
  PutPod(out, kDfMagic);
  PutPod<uint32_t>(out, static_cast<uint32_t>(df.num_columns()));
  WriteRegistry reg;
  for (int i = 0; i < df.num_columns(); ++i) {
    WriteString(out, df.column_name(i));
    WriteColumn(out, df.column(i), &reg);
  }
  // Index: 0 = range(start), 1 = raw int64 labels, 2 = width-packed labels.
  // Shuffle partitions carry row-position labels whose span is far
  // narrower than int64, so pack them as offsets from their minimum in the
  // narrowest of 1/2/4 bytes — this is most of the `shuffle_wire_bytes`
  // saving on frames whose columns are already dictionary-packed.
  const Index& idx = df.index();
  if (idx.is_range()) {
    PutPod<uint8_t>(out, 0);
    PutPod<int64_t>(out, idx.range_start());
    PutPod<int64_t>(out, idx.range_start() + idx.length());
    return;
  }
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
    PutPod<uint8_t>(out, 1);
    WriteSpan(out, labels.data(), labels.size());
    return;
  }
  PutPod<uint8_t>(out, 2);
  PutPod<int64_t>(out, lo);
  PutPod<uint64_t>(out, labels.size());
  PutPod<uint8_t>(out, width);
  for (int64_t v : labels) {
    const uint64_t d = static_cast<uint64_t>(v) - static_cast<uint64_t>(lo);
    out->append(reinterpret_cast<const char*>(&d), width);
  }
}

Result<std::string> SerializeDataFrame(const DataFrame& df) {
  std::string out;
  AppendDataFrame(df, &out);
  return out;
}

Result<DataFrame> DeserializeDataFrame(std::string_view buf) {
  Cursor in(buf);
  uint32_t magic = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&magic));
  if (magic != kDfMagic) return Status::IOError("bad dataframe magic");
  uint32_t ncols = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&ncols));
  XORBITS_RETURN_NOT_OK(CheckFits(in, ncols, sizeof(uint64_t)));
  ReadRegistry reg;
  std::vector<std::string> names;
  std::vector<Column> cols;
  for (uint32_t i = 0; i < ncols; ++i) {
    XORBITS_ASSIGN_OR_RETURN(std::string name, ReadString(in));
    XORBITS_ASSIGN_OR_RETURN(Column c, ReadColumn(in, &reg));
    names.push_back(std::move(name));
    cols.push_back(std::move(c));
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame df,
                           DataFrame::Make(std::move(names), std::move(cols)));
  uint8_t index_kind = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&index_kind));
  Index index;
  if (index_kind == 0) {
    int64_t start = 0, stop = 0;
    XORBITS_RETURN_NOT_OK(in.Pod(&start));
    XORBITS_RETURN_NOT_OK(in.Pod(&stop));
    int64_t length = 0;
    if (__builtin_sub_overflow(stop, start, &length) || length < 0) {
      return Status::IOError("bad range index");
    }
    index = Index::Range(start, stop);
  } else if (index_kind == 1) {
    XORBITS_ASSIGN_OR_RETURN(auto labels, ReadVec<int64_t>(in));
    index = Index::Labels(std::move(labels));
  } else if (index_kind == 2) {
    int64_t lo = 0;
    uint64_t n = 0;
    uint8_t width = 0;
    XORBITS_RETURN_NOT_OK(in.Pod(&lo));
    XORBITS_RETURN_NOT_OK(in.Pod(&n));
    XORBITS_RETURN_NOT_OK(in.Pod(&width));
    if (width != 1 && width != 2 && width != 4) {
      return Status::IOError("bad packed-index width");
    }
    XORBITS_ASSIGN_OR_RETURN(const char* p, in.Take(n, width, kOverrun));
    std::vector<int64_t> labels(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t d = 0;
      std::memcpy(&d, p + i * width, width);
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

void AppendNDArray(const NDArray& a, std::string* out) {
  PutPod(out, kArrMagic);
  PutPod<uint32_t>(out, static_cast<uint32_t>(a.ndim()));
  for (int64_t d : a.shape()) PutPod<int64_t>(out, d);
  WriteSpan(out, a.data().data(), a.data().size());
}

Result<std::string> SerializeNDArray(const NDArray& a) {
  std::string out;
  AppendNDArray(a, &out);
  return out;
}

Result<NDArray> DeserializeNDArray(std::string_view buf) {
  Cursor in(buf);
  uint32_t magic = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&magic));
  if (magic != kArrMagic) return Status::IOError("bad ndarray magic");
  uint32_t ndim = 0;
  XORBITS_RETURN_NOT_OK(in.Pod(&ndim));
  XORBITS_RETURN_NOT_OK(CheckFits(in, ndim, sizeof(int64_t)));
  std::vector<int64_t> shape(ndim);
  for (uint32_t i = 0; i < ndim; ++i) {
    XORBITS_RETURN_NOT_OK(in.Pod(&shape[i]));
  }
  XORBITS_ASSIGN_OR_RETURN(auto data, ReadVec<double>(in));
  return NDArray::Make(std::move(data), std::move(shape));
}

}  // namespace xorbits::io
