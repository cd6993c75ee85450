#ifndef XORBITS_DATAFRAME_COLUMN_H_
#define XORBITS_DATAFRAME_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "dataframe/dict.h"
#include "dataframe/dtype.h"
#include "dataframe/scalar.h"

namespace xorbits::dataframe {

/// A typed value array with an optional validity bitmap, the unit the
/// dataframe kernels operate on (one pandas Series worth of data).
///
/// Storage is a shared copy-on-write buffer view per dtype (values and
/// validity alike): copying a Column shares the payload, `Slice` is an O(1)
/// window over the same buffer, and the `mutable_*` accessors make a
/// private copy only when the buffer is actually shared. An empty
/// `validity` means all values are valid.
///
/// String columns come in two physical encodings under the one logical
/// dtype kString: plain (`BufferView<std::string>`) and dictionary
/// (`BufferView<int32_t>` codes over a shared, deduplicated StringDict).
/// Value-level APIs (GetScalar, string_at, Take/Filter/Slice/Concat, the
/// reference key bytes) behave identically for both, so kernels that only
/// read values never notice the encoding; kernels with a fast path branch
/// on `is_dict()` and work on the int32 codes directly. Hashing kernels key
/// rows through RowHasher and BuildGroups (key_hash.h).
class Column {
 public:
  Column() : dtype_(DType::kInt64) {}

  Column(const Column& o)
      : dtype_(o.dtype_),
        data_(o.data_),
        validity_(o.validity_),
        dict_(o.dict_),
        nbytes_cache_(o.nbytes_cache_.load(std::memory_order_relaxed)) {}
  Column(Column&& o) noexcept
      : dtype_(o.dtype_),
        data_(std::move(o.data_)),
        validity_(std::move(o.validity_)),
        dict_(std::move(o.dict_)),
        nbytes_cache_(o.nbytes_cache_.load(std::memory_order_relaxed)) {}
  Column& operator=(const Column& o) {
    dtype_ = o.dtype_;
    data_ = o.data_;
    validity_ = o.validity_;
    dict_ = o.dict_;
    nbytes_cache_.store(o.nbytes_cache_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }
  Column& operator=(Column&& o) noexcept {
    dtype_ = o.dtype_;
    data_ = std::move(o.data_);
    validity_ = std::move(o.validity_);
    dict_ = std::move(o.dict_);
    nbytes_cache_.store(o.nbytes_cache_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  static Column Int64(std::vector<int64_t> values,
                      std::vector<uint8_t> validity = {});
  static Column Float64(std::vector<double> values,
                        std::vector<uint8_t> validity = {});
  static Column String(std::vector<std::string> values,
                       std::vector<uint8_t> validity = {});
  static Column Bool(std::vector<uint8_t> values,
                     std::vector<uint8_t> validity = {});

  // Same factories with the validity riding as a shared view (the common
  // "new values, same validity as the input" kernel shape).
  static Column Int64(std::vector<int64_t> values,
                      common::BufferView<uint8_t> validity);
  static Column Float64(std::vector<double> values,
                        common::BufferView<uint8_t> validity);
  static Column String(std::vector<std::string> values,
                       common::BufferView<uint8_t> validity);
  static Column Bool(std::vector<uint8_t> values,
                     common::BufferView<uint8_t> validity);

  /// Zero-copy factories from existing buffer views (the uint8_t overload
  /// builds a kBool column; validity always rides as a view).
  static Column FromView(common::BufferView<int64_t> values,
                         common::BufferView<uint8_t> validity = {});
  static Column FromView(common::BufferView<double> values,
                         common::BufferView<uint8_t> validity = {});
  static Column FromView(common::BufferView<std::string> values,
                         common::BufferView<uint8_t> validity = {});
  static Column BoolFromView(common::BufferView<uint8_t> values,
                             common::BufferView<uint8_t> validity = {});

  /// Dictionary-encoded string column: int32 codes over a shared dict.
  /// Codes of null rows are 0 by convention (never read). dtype() is
  /// kString — the encoding is physical, not logical.
  static Column Dictionary(common::BufferView<int32_t> codes,
                           StringDictPtr dict,
                           common::BufferView<uint8_t> validity = {});

  /// An all-null column of `length` with the given dtype.
  static Column Nulls(DType dtype, int64_t length);

  /// A column filled with one repeated scalar (null scalar gives Nulls).
  static Column Full(DType dtype, int64_t length, const Scalar& value);

  DType dtype() const { return dtype_; }
  int64_t length() const;

  bool has_validity() const { return !validity_.empty(); }
  bool IsValid(int64_t i) const {
    return validity_.empty() || validity_[i] != 0;
  }
  bool IsNull(int64_t i) const { return !IsValid(i); }
  int64_t null_count() const;

  /// In-memory payload size in bytes (validity + values; strings measured,
  /// dictionary columns count codes + dictionary). Cached: the first call
  /// walks string payloads, later calls return the cached total. Mutating
  /// through a `mutable_*` reference held across an nbytes() call would
  /// leave the cache stale — mutate first, measure after.
  int64_t nbytes() const;

  // Typed accessors; dtype must match. The const accessors return the
  // shared view (vector-shaped: data()/size()/operator[]/iteration); the
  // mutable accessors unshare first (copy-on-write) and hand back the
  // private backing vector. string_data requires a plain (non-dictionary)
  // string column — encoding-agnostic readers use string_at instead.
  const common::BufferView<int64_t>& int64_data() const;
  const common::BufferView<double>& float64_data() const;
  const common::BufferView<std::string>& string_data() const;
  const common::BufferView<uint8_t>& bool_data() const;
  std::vector<int64_t>& mutable_int64_data();
  std::vector<double>& mutable_float64_data();
  std::vector<std::string>& mutable_string_data();
  std::vector<uint8_t>& mutable_bool_data();
  const common::BufferView<uint8_t>& validity() const { return validity_; }
  std::vector<uint8_t>& mutable_validity() {
    InvalidateNbytes();
    return validity_.MutableVec();
  }

  // --- dictionary encoding ---
  bool is_dict() const { return dict_ != nullptr; }
  const StringDictPtr& dict() const { return dict_; }
  const common::BufferView<int32_t>& dict_codes() const;
  std::vector<int32_t>& mutable_dict_codes();

  /// String value at row `i` for either encoding; row must be valid.
  const std::string& string_at(int64_t i) const {
    return dict_ ? dict_->value(dict_codes()[i]) : string_data()[i];
  }

  /// Plain string column -> dictionary encoding (first-seen value order);
  /// already-dict columns and non-string dtypes return unchanged.
  Column DictEncode() const;

  /// Dictionary column -> plain strings; others return unchanged.
  Column DictDecode() const;

  /// DictDecode that also counts a dictionary fallback (a kernel with no
  /// code-level fast path had to materialize the strings).
  Column DecodedFallback() const;

  /// Appends every underlying buffer of this column (values + validity +
  /// dictionary) to `out`; storage dedups by buffer id so a dictionary
  /// shared by many columns is charged once per band.
  void AppendBufferRefs(std::vector<common::BufferRef>* out) const;

  /// Value at row `i` as a Scalar (Null if invalid).
  Scalar GetScalar(int64_t i) const;

  /// Numeric value at row `i` coerced to double; callers must check validity.
  double GetDouble(int64_t i) const;

  /// Rows selected by position; each index must be in range. A contiguous
  /// ascending run degenerates to an O(1) Slice (no value-data copy).
  Column Take(const std::vector<int64_t>& indices) const;
  /// Pointer form, for callers (join assembly) whose index arrays live in
  /// raw uninitialized storage rather than a zero-initialized vector.
  Column Take(const int64_t* indices, int64_t n) const;

  /// Rows where mask[i] != 0; mask length must equal column length.
  Column Filter(const std::vector<uint8_t>& mask) const;

  /// Contiguous rows [offset, offset + count). O(1): shares the buffer.
  Column Slice(int64_t offset, int64_t count) const;

  /// Casts to the target numeric dtype (int64 <-> float64, bool -> numeric).
  Result<Column> CastTo(DType target) const;

  /// Concatenates same-dtype columns. Adjacent windows of one shared buffer
  /// (the split-then-reassemble pattern) concatenate zero-copy; dictionary
  /// pieces over one shared dictionary concatenate their codes, pieces over
  /// different dictionaries unify them (first-seen order) and remap.
  static Result<Column> Concat(const std::vector<const Column*>& pieces);

  /// Appends a type-tagged binary encoding of row `i` to `out`; identical
  /// values produce identical bytes — across encodings too, so a dictionary
  /// column fingerprints byte-identically to its decoded form. The
  /// reference key encoding: no kernel calls it, tests and benchmarks
  /// compare the key index's equality against it.
  void AppendKeyBytes(int64_t i, std::string* out) const;

  std::string ValueToString(int64_t i) const;

 private:
  using Storage =
      std::variant<common::BufferView<int64_t>, common::BufferView<double>,
                   common::BufferView<std::string>,
                   common::BufferView<uint8_t>,
                   common::BufferView<int32_t>>;
  Column(DType dtype, Storage data, common::BufferView<uint8_t> validity)
      : dtype_(dtype), data_(std::move(data)), validity_(std::move(validity)) {}

  void InvalidateNbytes() const {
    nbytes_cache_.store(-1, std::memory_order_relaxed);
  }

  DType dtype_;
  Storage data_;
  common::BufferView<uint8_t> validity_;  // empty => all valid
  StringDictPtr dict_;  // non-null <=> dictionary-encoded string column
  /// Lazily computed nbytes(); -1 = unknown. Recomputing is idempotent, so
  /// a racing double-compute is benign (relaxed atomics suffice).
  mutable std::atomic<int64_t> nbytes_cache_{-1};
};

}  // namespace xorbits::dataframe

#endif  // XORBITS_DATAFRAME_COLUMN_H_
