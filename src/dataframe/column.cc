#include "dataframe/column.h"

#include <cassert>
#include <cstring>
#include <optional>

#include "common/thread_pool.h"

namespace xorbits::dataframe {

namespace {

using common::BufferView;

template <typename View>
std::vector<typename View::value_type> TakeVec(const View& v,
                                              const int64_t* indices,
                                              int64_t n) {
  using T = typename View::value_type;
  std::vector<T> out(n);
  const T* src = v.data();
  ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = src[indices[i]];
  });
  return out;
}

/// Two-pass parallel filter: count survivors per morsel, prefix-sum the
/// counts serially (morsel order), then scatter each morsel's survivors to
/// its precomputed offset. Both passes are tight branch-light loops over
/// raw pointers; output order equals the serial push_back order at any
/// thread count because the decomposition depends only on (n, grain).
template <typename View>
std::vector<typename View::value_type> FilterVec(
    const View& v, const std::vector<uint8_t>& mask) {
  using T = typename View::value_type;
  const int64_t n = v.ssize();
  const int64_t grain = 16384;
  const int64_t morsels = NumMorsels(0, n, grain);
  const uint8_t* m = mask.data();
  const T* src = v.data();
  std::vector<int64_t> offsets(morsels + 1, 0);
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    int64_t c = 0;
    for (int64_t i = lo; i < hi; ++i) c += (m[i] != 0);
    offsets[lo / grain + 1] = c;
  });
  for (int64_t i = 0; i < morsels; ++i) offsets[i + 1] += offsets[i];
  std::vector<T> out(offsets[morsels]);
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    int64_t o = offsets[lo / grain];
    for (int64_t i = lo; i < hi; ++i) {
      if (m[i]) out[o++] = src[i];
    }
  });
  return out;
}

/// True when `indices` is the contiguous ascending run indices[0]..+n-1,
/// which lets Take degenerate to an O(1) Slice. Bails at the first break,
/// so random index lists pay almost nothing for the probe.
bool IsContiguousRun(const int64_t* indices, int64_t n) {
  for (int64_t i = 1; i < n; ++i) {
    if (indices[i] != indices[0] + i) return false;
  }
  return n > 0;
}

/// Zero-copy Concat probe: when every non-empty piece is a window of one
/// shared buffer and the windows are back-to-back in order, the result is
/// just a wider window. Returns nullopt when any piece breaks the run.
template <typename T, typename GetView>
std::optional<BufferView<T>> TryAdjacentConcat(
    const std::vector<const Column*>& pieces, GetView view_of,
    int64_t total) {
  const BufferView<T>* first = nullptr;
  int64_t next_offset = 0;
  for (const Column* c : pieces) {
    const BufferView<T>& v = view_of(*c);
    if (v.ssize() == 0) continue;
    if (first == nullptr) {
      first = &v;
      next_offset = v.offset() + v.ssize();
    } else if (v.SharesBufferWith(*first) && v.offset() == next_offset) {
      next_offset += v.ssize();
    } else {
      return std::nullopt;
    }
  }
  if (first == nullptr) return std::nullopt;
  return first->Slice(0, total);
}

}  // namespace

Column Column::Int64(std::vector<int64_t> values,
                     std::vector<uint8_t> validity) {
  return FromView(BufferView<int64_t>(std::move(values)),
                  BufferView<uint8_t>(std::move(validity)));
}
Column Column::Float64(std::vector<double> values,
                       std::vector<uint8_t> validity) {
  return FromView(BufferView<double>(std::move(values)),
                  BufferView<uint8_t>(std::move(validity)));
}
Column Column::String(std::vector<std::string> values,
                      std::vector<uint8_t> validity) {
  return FromView(BufferView<std::string>(std::move(values)),
                  BufferView<uint8_t>(std::move(validity)));
}
Column Column::Bool(std::vector<uint8_t> values,
                    std::vector<uint8_t> validity) {
  return BoolFromView(BufferView<uint8_t>(std::move(values)),
                      BufferView<uint8_t>(std::move(validity)));
}

Column Column::Int64(std::vector<int64_t> values,
                     BufferView<uint8_t> validity) {
  return FromView(BufferView<int64_t>(std::move(values)),
                  std::move(validity));
}
Column Column::Float64(std::vector<double> values,
                       BufferView<uint8_t> validity) {
  return FromView(BufferView<double>(std::move(values)),
                  std::move(validity));
}
Column Column::String(std::vector<std::string> values,
                      BufferView<uint8_t> validity) {
  return FromView(BufferView<std::string>(std::move(values)),
                  std::move(validity));
}
Column Column::Bool(std::vector<uint8_t> values,
                    BufferView<uint8_t> validity) {
  return BoolFromView(BufferView<uint8_t>(std::move(values)),
                      std::move(validity));
}

Column Column::FromView(BufferView<int64_t> values,
                        BufferView<uint8_t> validity) {
  return Column(DType::kInt64, std::move(values), std::move(validity));
}
Column Column::FromView(BufferView<double> values,
                        BufferView<uint8_t> validity) {
  return Column(DType::kFloat64, std::move(values), std::move(validity));
}
Column Column::FromView(BufferView<std::string> values,
                        BufferView<uint8_t> validity) {
  return Column(DType::kString, std::move(values), std::move(validity));
}
Column Column::BoolFromView(BufferView<uint8_t> values,
                            BufferView<uint8_t> validity) {
  return Column(DType::kBool, std::move(values), std::move(validity));
}

Column Column::Dictionary(BufferView<int32_t> codes, StringDictPtr dict,
                          BufferView<uint8_t> validity) {
  assert(dict != nullptr);
  Column c(DType::kString, std::move(codes), std::move(validity));
  c.dict_ = std::move(dict);
  return c;
}

Column Column::Nulls(DType dtype, int64_t length) {
  std::vector<uint8_t> validity(length, 0);
  switch (dtype) {
    case DType::kInt64:
      return Int64(std::vector<int64_t>(length, 0), std::move(validity));
    case DType::kFloat64:
      return Float64(std::vector<double>(length, 0.0), std::move(validity));
    case DType::kString:
      return String(std::vector<std::string>(length), std::move(validity));
    case DType::kBool:
      return Bool(std::vector<uint8_t>(length, 0), std::move(validity));
  }
  return Column();
}

Column Column::Full(DType dtype, int64_t length, const Scalar& value) {
  if (value.is_null()) return Nulls(dtype, length);
  switch (dtype) {
    case DType::kInt64:
      return Int64(std::vector<int64_t>(length, value.AsInt()));
    case DType::kFloat64:
      return Float64(std::vector<double>(length, value.AsDouble()));
    case DType::kString:
      return String(std::vector<std::string>(length, value.AsString()));
    case DType::kBool:
      return Bool(std::vector<uint8_t>(length, value.AsBool() ? 1 : 0));
  }
  return Column();
}

int64_t Column::length() const {
  return std::visit([](const auto& v) { return v.ssize(); }, data_);
}

int64_t Column::null_count() const {
  int64_t n = 0;
  for (uint8_t v : validity_) {
    if (!v) ++n;
  }
  return n;
}

int64_t Column::nbytes() const {
  int64_t cached = nbytes_cache_.load(std::memory_order_relaxed);
  if (cached >= 0) return cached;
  int64_t bytes = validity_.ssize();
  bytes += std::visit([](const auto& v) { return v.view_nbytes(); }, data_);
  if (dict_) bytes += dict_->values().view_nbytes();
  nbytes_cache_.store(bytes, std::memory_order_relaxed);
  return bytes;
}

void Column::AppendBufferRefs(std::vector<common::BufferRef>* out) const {
  std::visit([&](const auto& v) { v.AppendRef(out); }, data_);
  validity_.AppendRef(out);
  if (dict_) dict_->values().AppendRef(out);
}

const BufferView<int64_t>& Column::int64_data() const {
  assert(dtype_ == DType::kInt64);
  return std::get<BufferView<int64_t>>(data_);
}
const BufferView<double>& Column::float64_data() const {
  assert(dtype_ == DType::kFloat64);
  return std::get<BufferView<double>>(data_);
}
const BufferView<std::string>& Column::string_data() const {
  assert(dtype_ == DType::kString && !is_dict());
  return std::get<BufferView<std::string>>(data_);
}
const BufferView<uint8_t>& Column::bool_data() const {
  assert(dtype_ == DType::kBool);
  return std::get<BufferView<uint8_t>>(data_);
}
const BufferView<int32_t>& Column::dict_codes() const {
  assert(is_dict());
  return std::get<BufferView<int32_t>>(data_);
}
// The mutable accessors all unshare through BufferView::MutableVec, which
// skips both the copy and the cow_copies count when the window is empty —
// a zero-row selection gathered off a shared column must not pay (or be
// charged for) a copy-on-write of nothing.
std::vector<int64_t>& Column::mutable_int64_data() {
  assert(dtype_ == DType::kInt64);
  InvalidateNbytes();
  return std::get<BufferView<int64_t>>(data_).MutableVec();
}
std::vector<double>& Column::mutable_float64_data() {
  assert(dtype_ == DType::kFloat64);
  InvalidateNbytes();
  return std::get<BufferView<double>>(data_).MutableVec();
}
std::vector<std::string>& Column::mutable_string_data() {
  assert(dtype_ == DType::kString && !is_dict());
  InvalidateNbytes();
  return std::get<BufferView<std::string>>(data_).MutableVec();
}
std::vector<uint8_t>& Column::mutable_bool_data() {
  assert(dtype_ == DType::kBool);
  InvalidateNbytes();
  return std::get<BufferView<uint8_t>>(data_).MutableVec();
}
std::vector<int32_t>& Column::mutable_dict_codes() {
  assert(is_dict());
  InvalidateNbytes();
  return std::get<BufferView<int32_t>>(data_).MutableVec();
}

Column Column::DictEncode() const {
  if (dtype_ != DType::kString || is_dict()) return *this;
  const BufferView<std::string>& vals = string_data();
  const int64_t n = vals.ssize();
  DictBuilder builder;
  std::vector<int32_t> codes(n, 0);
  for (int64_t i = 0; i < n; ++i) {
    if (IsValid(i)) codes[i] = builder.GetOrAdd(vals[i]);
  }
  ChargeScoped(CounterId::kDictEncodedColumns);
  return Dictionary(BufferView<int32_t>(std::move(codes)), builder.Finish(),
                    validity_);
}

Column Column::DictDecode() const {
  if (!is_dict()) return *this;
  const BufferView<int32_t>& codes = dict_codes();
  const int64_t n = codes.ssize();
  std::vector<std::string> out(n);
  const int32_t* c = codes.data();
  ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (IsValid(i)) out[i] = dict_->value(c[i]);
    }
  });
  return String(std::move(out), validity_);
}

Column Column::DecodedFallback() const {
  if (!is_dict()) return *this;
  ChargeScoped(CounterId::kDictFallbackDecodes);
  return DictDecode();
}

Scalar Column::GetScalar(int64_t i) const {
  if (IsNull(i)) return Scalar::Null();
  switch (dtype_) {
    case DType::kInt64: return Scalar::Int(int64_data()[i]);
    case DType::kFloat64: return Scalar::Float(float64_data()[i]);
    case DType::kString: return Scalar::Str(string_at(i));
    case DType::kBool: return Scalar::Bool(bool_data()[i] != 0);
  }
  return Scalar::Null();
}

double Column::GetDouble(int64_t i) const {
  switch (dtype_) {
    case DType::kInt64: return static_cast<double>(int64_data()[i]);
    case DType::kFloat64: return float64_data()[i];
    case DType::kBool: return bool_data()[i] ? 1.0 : 0.0;
    case DType::kString: assert(false && "GetDouble on string column");
  }
  return 0.0;
}

Column Column::Take(const std::vector<int64_t>& indices) const {
  return Take(indices.data(), static_cast<int64_t>(indices.size()));
}

Column Column::Take(const int64_t* indices, int64_t n) const {
  if (IsContiguousRun(indices, n)) {
    return Slice(indices[0], n);
  }
  BufferView<uint8_t> validity;
  if (has_validity()) {
    validity = BufferView<uint8_t>(TakeVec(validity_, indices, n));
  }
  if (is_dict()) {
    return Dictionary(BufferView<int32_t>(TakeVec(dict_codes(), indices, n)),
                      dict_, std::move(validity));
  }
  switch (dtype_) {
    case DType::kInt64:
      return FromView(BufferView<int64_t>(TakeVec(int64_data(), indices, n)),
                      std::move(validity));
    case DType::kFloat64:
      return FromView(BufferView<double>(TakeVec(float64_data(), indices, n)),
                      std::move(validity));
    case DType::kString:
      return FromView(
          BufferView<std::string>(TakeVec(string_data(), indices, n)),
          std::move(validity));
    case DType::kBool:
      return BoolFromView(
          BufferView<uint8_t>(TakeVec(bool_data(), indices, n)),
          std::move(validity));
  }
  return Column();
}

Column Column::Filter(const std::vector<uint8_t>& mask) const {
  BufferView<uint8_t> validity;
  if (has_validity()) {
    validity = BufferView<uint8_t>(FilterVec(validity_, mask));
  }
  if (is_dict()) {
    return Dictionary(BufferView<int32_t>(FilterVec(dict_codes(), mask)),
                      dict_, std::move(validity));
  }
  switch (dtype_) {
    case DType::kInt64:
      return FromView(BufferView<int64_t>(FilterVec(int64_data(), mask)),
                      std::move(validity));
    case DType::kFloat64:
      return FromView(BufferView<double>(FilterVec(float64_data(), mask)),
                      std::move(validity));
    case DType::kString:
      return FromView(
          BufferView<std::string>(FilterVec(string_data(), mask)),
          std::move(validity));
    case DType::kBool:
      return BoolFromView(BufferView<uint8_t>(FilterVec(bool_data(), mask)),
                          std::move(validity));
  }
  return Column();
}

Column Column::Slice(int64_t offset, int64_t count) const {
  BufferView<uint8_t> validity;
  if (has_validity()) validity = validity_.Slice(offset, count);
  Storage data =
      std::visit([&](const auto& v) { return Storage(v.Slice(offset, count)); },
                 data_);
  Column out(dtype_, std::move(data), std::move(validity));
  out.dict_ = dict_;
  return out;
}

Result<Column> Column::CastTo(DType target) const {
  if (target == dtype_) return *this;
  const int64_t n = length();
  if (target == DType::kFloat64) {
    std::vector<double> out(n);
    for (int64_t i = 0; i < n; ++i) out[i] = IsValid(i) ? GetDouble(i) : 0.0;
    return FromView(BufferView<double>(std::move(out)), validity_);
  }
  if (target == DType::kInt64) {
    if (!IsNumeric(dtype_) && dtype_ != DType::kBool) {
      return Status::TypeError("cannot cast " +
                               std::string(DTypeName(dtype_)) + " to int64");
    }
    std::vector<int64_t> out(n);
    for (int64_t i = 0; i < n; ++i) {
      out[i] = IsValid(i) ? static_cast<int64_t>(GetDouble(i)) : 0;
    }
    return FromView(BufferView<int64_t>(std::move(out)), validity_);
  }
  return Status::TypeError(std::string("cast to ") + DTypeName(target) +
                           " not supported");
}

namespace {

/// Dictionary-aware string Concat. All pieces over one shared dictionary:
/// concatenate the int32 codes (zero-copy when adjacent). Mixed
/// dictionaries: unify into one dictionary in piece-then-code order and
/// remap each piece through a small per-piece table. Any plain piece:
/// decode everything (counted as a fallback) and concatenate strings.
Result<Column> ConcatStrings(const std::vector<const Column*>& pieces,
                             common::BufferView<uint8_t> validity,
                             int64_t total) {
  bool all_dict = true;
  bool any_dict = false;
  const StringDict* first_dict = nullptr;
  bool same_dict = true;
  for (const Column* c : pieces) {
    if (c->is_dict()) {
      any_dict = true;
      if (first_dict == nullptr) {
        first_dict = c->dict().get();
      } else if (!first_dict->SameAs(*c->dict())) {
        same_dict = false;
      }
    } else if (c->length() > 0) {
      all_dict = false;
    }
  }
  if (any_dict && all_dict && same_dict && first_dict != nullptr) {
    StringDictPtr dict;
    for (const Column* c : pieces) {
      if (c->is_dict()) {
        dict = c->dict();
        break;
      }
    }
    std::optional<BufferView<int32_t>> shared = TryAdjacentConcat<int32_t>(
        pieces,
        [](const Column& c) -> const BufferView<int32_t>& {
          static const BufferView<int32_t> kEmpty;
          return c.is_dict() ? c.dict_codes() : kEmpty;
        },
        total);
    if (shared.has_value()) {
      return Column::Dictionary(std::move(*shared), std::move(dict),
                                std::move(validity));
    }
    std::vector<int32_t> codes;
    codes.reserve(total);
    for (const Column* c : pieces) {
      if (c->length() == 0) continue;
      const auto& v = c->dict_codes();
      codes.insert(codes.end(), v.begin(), v.end());
    }
    return Column::Dictionary(BufferView<int32_t>(std::move(codes)),
                              std::move(dict), std::move(validity));
  }
  if (any_dict && all_dict) {
    // Different dictionaries: unify (first-seen across pieces) and remap.
    DictBuilder builder;
    std::vector<int32_t> codes;
    codes.reserve(total);
    for (const Column* c : pieces) {
      if (c->length() == 0) continue;
      const StringDict& d = *c->dict();
      std::vector<int32_t> remap(d.size());
      for (int64_t k = 0; k < d.size(); ++k) {
        remap[k] = builder.GetOrAdd(d.value(static_cast<int32_t>(k)));
      }
      for (int32_t code : c->dict_codes()) codes.push_back(remap[code]);
    }
    return Column::Dictionary(BufferView<int32_t>(std::move(codes)),
                              builder.Finish(), std::move(validity));
  }
  // Mixed plain/dictionary: fall back to plain strings.
  std::vector<std::string> out;
  out.reserve(total);
  for (const Column* c : pieces) {
    const int64_t n = c->length();
    if (n == 0) continue;
    if (c->is_dict()) {
      ChargeScoped(CounterId::kDictFallbackDecodes);
      const auto& codes = c->dict_codes();
      for (int64_t i = 0; i < n; ++i) {
        out.push_back(c->IsValid(i) ? c->dict()->value(codes[i])
                                    : std::string());
      }
    } else {
      const auto& v = c->string_data();
      out.insert(out.end(), v.begin(), v.end());
    }
  }
  return Column::String(std::move(out), std::move(validity));
}

}  // namespace

Result<Column> Column::Concat(const std::vector<const Column*>& pieces) {
  if (pieces.empty()) return Status::Invalid("Concat of zero columns");
  const DType dtype = pieces[0]->dtype();
  int64_t total = 0;
  bool any_validity = false;
  bool all_validity = true;
  bool any_dict = false;
  for (const Column* c : pieces) {
    if (c->dtype() != dtype) {
      return Status::TypeError("Concat dtype mismatch: " +
                               std::string(DTypeName(dtype)) + " vs " +
                               DTypeName(c->dtype()));
    }
    total += c->length();
    any_validity |= c->has_validity();
    any_dict |= c->is_dict();
    if (c->length() > 0 && !c->has_validity()) all_validity = false;
  }
  BufferView<uint8_t> validity;
  if (any_validity) {
    std::optional<BufferView<uint8_t>> shared;
    if (all_validity) {
      shared = TryAdjacentConcat<uint8_t>(
          pieces, [](const Column& c) -> const auto& { return c.validity(); },
          total);
    }
    if (shared.has_value()) {
      validity = std::move(*shared);
    } else {
      std::vector<uint8_t> merged;
      merged.reserve(total);
      for (const Column* c : pieces) {
        if (c->has_validity()) {
          merged.insert(merged.end(), c->validity().begin(),
                        c->validity().end());
        } else {
          merged.insert(merged.end(), c->length(), 1);
        }
      }
      validity = BufferView<uint8_t>(std::move(merged));
    }
  }
  if (dtype == DType::kString && any_dict) {
    return ConcatStrings(pieces, std::move(validity), total);
  }
  auto concat_typed = [&](auto getter) {
    using T = typename std::remove_cvref_t<
        decltype(getter(*pieces[0]))>::value_type;
    std::optional<BufferView<T>> shared =
        TryAdjacentConcat<T>(pieces, getter, total);
    if (shared.has_value()) return std::move(*shared);
    std::vector<T> out;
    out.reserve(total);
    for (const Column* c : pieces) {
      const auto& v = getter(*c);
      out.insert(out.end(), v.begin(), v.end());
    }
    return BufferView<T>(std::move(out));
  };
  switch (dtype) {
    case DType::kInt64:
      return FromView(concat_typed([](const Column& c) -> const auto& {
                        return c.int64_data();
                      }),
                      std::move(validity));
    case DType::kFloat64:
      return FromView(concat_typed([](const Column& c) -> const auto& {
                        return c.float64_data();
                      }),
                      std::move(validity));
    case DType::kString:
      return FromView(concat_typed([](const Column& c) -> const auto& {
                        return c.string_data();
                      }),
                      std::move(validity));
    case DType::kBool:
      return BoolFromView(concat_typed([](const Column& c) -> const auto& {
                            return c.bool_data();
                          }),
                          std::move(validity));
  }
  return Status::Invalid("unreachable");
}

void Column::AppendKeyBytes(int64_t i, std::string* out) const {
  if (IsNull(i)) {
    out->push_back('\0');
    return;
  }
  switch (dtype_) {
    case DType::kInt64: {
      out->push_back('\1');
      int64_t v = int64_data()[i];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DType::kFloat64: {
      out->push_back('\2');
      double v = float64_data()[i];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DType::kString: {
      out->push_back('\3');
      const std::string& s = string_at(i);
      uint32_t len = static_cast<uint32_t>(s.size());
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s);
      break;
    }
    case DType::kBool:
      out->push_back('\4');
      out->push_back(bool_data()[i] ? '\1' : '\0');
      break;
  }
}

std::string Column::ValueToString(int64_t i) const {
  return GetScalar(i).ToString();
}

}  // namespace xorbits::dataframe
