#ifndef XORBITS_COMMON_BUFFER_H_
#define XORBITS_COMMON_BUFFER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/content_hash.h"
#include "common/metrics.h"

namespace xorbits::common {

/// Fixed per-item byte widths, the single source of truth for dtype sizes.
/// `dataframe::DTypeItemSize` and `tensor::NDArray::nbytes` both route
/// through these so memory accounting cannot drift between layers. Strings
/// store a measured payload; kItemSizeString is the per-item bookkeeping
/// overhead added on top (pointer + length).
inline constexpr int64_t kItemSizeInt64 = 8;
inline constexpr int64_t kItemSizeFloat64 = 8;
inline constexpr int64_t kItemSizeString = 16;
inline constexpr int64_t kItemSizeBool = 1;

/// One underlying buffer referenced by a view, for unique-byte accounting:
/// storage charges `buffer_bytes` once per distinct `id` per band, while
/// logical sizes (transfer, serialization) sum `view_bytes` once per
/// distinct (id, offset, length) window.
struct BufferRef {
  uint64_t id = 0;
  int64_t buffer_bytes = 0;  // whole underlying allocation (measured)
  int64_t view_bytes = 0;    // just the window this view exposes
  int64_t offset = 0;
  int64_t length = 0;
};

namespace buffer_detail {

uint64_t NextBufferId();

template <typename T>
inline int64_t PayloadBytes(const T* /*data*/, int64_t n) {
  return n * static_cast<int64_t>(sizeof(T));
}
inline int64_t PayloadBytes(const std::string* data, int64_t n) {
  int64_t bytes = 0;
  for (int64_t i = 0; i < n; ++i) {
    bytes += static_cast<int64_t>(data[i].size()) + kItemSizeString;
  }
  return bytes;
}

/// Refcounted immutable storage cell. The vector is only ever written
/// through BufferView::MutableVec, which guarantees single ownership first.
template <typename T>
struct Buffer {
  explicit Buffer(std::vector<T> v)
      : vec(std::move(v)), id(NextBufferId()) {}

  /// Measured payload bytes of the whole vector. A string buffer is walked
  /// once and the total cached, so sizing each of many slices of one large
  /// buffer costs O(window), not O(buffer). Recomputing is idempotent, so
  /// a racing double-measure is benign (relaxed atomics suffice).
  int64_t nbytes() const {
    const int64_t n = static_cast<int64_t>(vec.size());
    if constexpr (!std::is_same_v<T, std::string>) {
      return PayloadBytes(vec.data(), n);
    } else {
      int64_t bytes = nbytes_cache.load(std::memory_order_relaxed);
      if (bytes >= 0) return bytes;
      bytes = PayloadBytes(vec.data(), n);
      nbytes_cache.store(bytes, std::memory_order_relaxed);
      measures.fetch_add(1, std::memory_order_relaxed);
      return bytes;
    }
  }

  /// HashElements of the whole vector, computed on first use and kept; a
  /// memo hit hashes (and adds to `*bytes_hashed`) nothing. Lock-free: a
  /// caller that finds no published hash computes it, and racing callers
  /// store identical values before publishing `hash_ready` (release).
  Hash128 content_hash(int64_t* bytes_hashed) const {
    if (hash_ready.load(std::memory_order_acquire)) {
      return Hash128{hash_lo.load(std::memory_order_relaxed),
                     hash_hi.load(std::memory_order_relaxed)};
    }
    const Hash128 h = HashElements(
        vec.data(), static_cast<int64_t>(vec.size()), bytes_hashed);
    hash_lo.store(h.lo, std::memory_order_relaxed);
    hash_hi.store(h.hi, std::memory_order_relaxed);
    hash_ready.store(true, std::memory_order_release);
    return h;
  }

  /// Drops the cached size and hash; MutableVec calls it on every in-place
  /// path, before the caller mutates.
  void ForgetContent() const {
    nbytes_cache.store(-1, std::memory_order_relaxed);
    hash_ready.store(false, std::memory_order_relaxed);
  }

  std::vector<T> vec;
  const uint64_t id;
  /// Cached nbytes() of a string buffer; -1 = unknown.
  mutable std::atomic<int64_t> nbytes_cache{-1};
  /// Memoized content_hash(), valid once `hash_ready` is set.
  mutable std::atomic<uint64_t> hash_lo{0};
  mutable std::atomic<uint64_t> hash_hi{0};
  mutable std::atomic<bool> hash_ready{false};
  /// Times nbytes() walked the strings (the caching regression test reads it).
  mutable std::atomic<int64_t> measures{0};
};

}  // namespace buffer_detail

/// A typed window (offset/length) over a shared refcounted buffer — the
/// payload cell behind dataframe::Column and tensor::NDArray. Copying a
/// view shares the buffer; `Slice` is O(1); the first mutation of a shared
/// or partial view (`MutableVec`) makes a private full copy of the window
/// (copy-on-write). The interface mirrors `const std::vector<T>` so kernel
/// code reads through it unchanged.
template <typename T>
class BufferView {
 public:
  using value_type = T;

  BufferView() = default;
  explicit BufferView(std::vector<T> values)
      : buf_(std::make_shared<buffer_detail::Buffer<T>>(std::move(values))) {}

  // --- const, vector-shaped access ---
  size_t size() const {
    if (!buf_) return 0;
    return length_ < 0 ? buf_->vec.size() : static_cast<size_t>(length_);
  }
  int64_t ssize() const { return static_cast<int64_t>(size()); }
  bool empty() const { return size() == 0; }
  const T* data() const { return buf_ ? buf_->vec.data() + offset_ : nullptr; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  const T& operator[](size_t i) const { return buf_->vec[offset_ + i]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size() - 1]; }

  /// Materializes the window as a plain vector (explicit copy).
  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }

  /// O(1) sub-window [offset, offset + count) sharing the same buffer.
  BufferView Slice(int64_t offset, int64_t count) const {
    BufferView out;
    out.buf_ = buf_;
    out.offset_ = offset_ + offset;
    out.length_ = count;
    if (buf_ && count > 0) {
      ChargeScoped(CounterId::kChunkCopiesAvoided);
      ChargeScoped(CounterId::kBufferBytesShared,
                   count * static_cast<int64_t>(sizeof(T)));
    }
    return out;
  }

  /// Mutable access to the backing vector. Unshares first: a view that is
  /// shared (or exposes only part of its buffer) copies its window into a
  /// private buffer; a uniquely-owned full view mutates in place. After
  /// this call the view tracks the vector's live size, so callers may
  /// resize the returned vector freely.
  std::vector<T>& MutableVec() {
    if (!buf_) {
      buf_ = std::make_shared<buffer_detail::Buffer<T>>(std::vector<T>());
      offset_ = 0;
      length_ = -1;
      return buf_->vec;
    }
    if (buf_.use_count() == 1 && offset_ == 0 &&
        (length_ < 0 ||
         length_ == static_cast<int64_t>(buf_->vec.size()))) {
      // The caller may change the payload in place: drop its cached size
      // and content hash.
      buf_->ForgetContent();
      length_ = -1;
      return buf_->vec;
    }
    if (size() == 0) {
      // Empty window over a shared buffer (a zero-row selection sliced off
      // a column, say): "unsharing" would copy nothing, yet the copy path
      // below would still count a CoW copy and allocate a private buffer
      // while keeping the old one pinned. Start from a fresh empty buffer
      // and release the shared one instead.
      buf_ = std::make_shared<buffer_detail::Buffer<T>>(std::vector<T>());
      offset_ = 0;
      length_ = -1;
      return buf_->vec;
    }
    ChargeScoped(CounterId::kBufferCowCopies);
    auto copy = std::make_shared<buffer_detail::Buffer<T>>(ToVector());
    buf_ = std::move(copy);
    offset_ = 0;
    length_ = -1;
    return buf_->vec;
  }

  /// Pre-sizes the backing vector's capacity for at least `n` total
  /// elements (unshares first, like MutableVec). A no-op when the current
  /// capacity already suffices.
  void Reserve(int64_t n) {
    std::vector<T>& v = MutableVec();
    if (static_cast<int64_t>(v.capacity()) < n) v.reserve(n);
  }

  /// Appends `n` elements with geometric capacity doubling, so building a
  /// view out of many small appends (exchange block assembly, packed-code
  /// decode) costs O(1) amortized per element regardless of the standard
  /// library's growth policy. Unshares once per call, not once per element
  /// — a shared view pays a single CoW copy, then grows in place.
  void Append(const T* values, int64_t n) {
    if (n <= 0) return;
    std::vector<T>& v = MutableVec();
    const size_t need = v.size() + static_cast<size_t>(n);
    if (need > v.capacity()) {
      size_t cap = v.capacity() == 0 ? 16 : v.capacity() * 2;
      while (cap < need) cap *= 2;
      v.reserve(cap);
    }
    v.insert(v.end(), values, values + n);
  }

  /// Single-element convenience over Append.
  void AppendValue(const T& value) { Append(&value, 1); }

  // --- introspection for accounting and tests ---
  bool has_buffer() const { return buf_ != nullptr; }
  uint64_t buffer_id() const { return buf_ ? buf_->id : 0; }
  int64_t offset() const { return offset_; }
  bool SharesBufferWith(const BufferView& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }
  /// True when no other view can reach this buffer.
  bool unique() const { return !buf_ || buf_.use_count() == 1; }

  /// Measured payload bytes of the window (strings: heap + bookkeeping).
  /// A window over the whole buffer reads the buffer's cached total, so
  /// sizing a large string frame does not walk its strings every time.
  int64_t view_nbytes() const {
    if (buf_ && offset_ == 0 && size() == buf_->vec.size()) {
      return buf_->nbytes();
    }
    return buffer_detail::PayloadBytes(data(), ssize());
  }
  /// Measured payload bytes of the whole underlying buffer (cached on the
  /// buffer; see buffer_detail::Buffer::nbytes).
  int64_t buffer_nbytes() const { return buf_ ? buf_->nbytes() : 0; }
  /// Times the underlying buffer's strings were walked to measure it.
  int64_t buffer_measure_count() const {
    return buf_ ? buf_->measures.load(std::memory_order_relaxed) : 0;
  }

  /// HashElements of the window's elements: a function of the content
  /// alone, whichever buffer holds it. A window over the whole buffer
  /// reads the buffer's memo (see buffer_detail::Buffer::content_hash); a
  /// partial window hashes its own elements. Adds the bytes it had to hash
  /// to `*bytes_hashed` (0 on a memo hit).
  Hash128 ContentHash(int64_t* bytes_hashed = nullptr) const {
    if (buf_ && offset_ == 0 && size() == buf_->vec.size()) {
      return buf_->content_hash(bytes_hashed);
    }
    return HashElements(data(), ssize(), bytes_hashed);
  }

  /// Appends this view's buffer to `out` for unique-byte accounting.
  /// Views without a buffer (default-constructed, empty) contribute nothing.
  void AppendRef(std::vector<BufferRef>* out) const {
    if (!buf_) return;
    BufferRef ref;
    ref.id = buf_->id;
    ref.buffer_bytes = buffer_nbytes();
    ref.view_bytes = view_nbytes();
    ref.offset = offset_;
    ref.length = ssize();
    out->push_back(ref);
  }

  /// Two views are identical when they expose the same window of the same
  /// buffer (the serializer dedups on this to preserve sharing on spill).
  bool IdenticalTo(const BufferView& other) const {
    return buf_ == other.buf_ && offset_ == other.offset_ &&
           size() == other.size();
  }

 private:
  std::shared_ptr<buffer_detail::Buffer<T>> buf_;
  int64_t offset_ = 0;
  /// -1 = "full view": size tracks the live vector (required so callers may
  /// resize through MutableVec); >= 0 pins an explicit window length.
  int64_t length_ = -1;
};

/// Logical payload size of a set of views: window bytes summed once per
/// distinct (id, offset, length) window. Two columns exposing the same
/// window (a reused key column, say) count it once.
int64_t UniqueViewBytes(std::vector<BufferRef> refs);

/// The distinct underlying buffers among `refs`, as (id, buffer_bytes)
/// pairs sorted by id — the unit the storage layer refcounts per band.
std::vector<std::pair<uint64_t, int64_t>> UniqueBuffers(
    std::vector<BufferRef> refs);

/// Element-wise equality, so views compare naturally against vectors and
/// each other in tests and assertions.
template <typename T>
bool operator==(const BufferView<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
template <typename T>
bool operator==(const std::vector<T>& a, const BufferView<T>& b) {
  return b == a;
}
template <typename T>
bool operator==(const BufferView<T>& a, const BufferView<T>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace xorbits::common

#endif  // XORBITS_COMMON_BUFFER_H_
