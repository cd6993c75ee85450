#ifndef XORBITS_IO_BYTE_CURSOR_H_
#define XORBITS_IO_BYTE_CURSOR_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/result.h"

namespace xorbits::io {

/// Appends the bytes of a trivially copyable value.
template <typename T>
void PutPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Appends a uint32 length prefix, then the bytes of `s`.
inline void PutStr(std::string* out, std::string_view s) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked reader over an in-memory buffer: a serialized chunk, or
/// an xparquet column chunk or footer. Every length prefix and count is
/// checked against the bytes left before anything is allocated or copied,
/// so corrupt input fails with IOError.
struct Cursor {
  const char* p;
  const char* end;

  explicit Cursor(std::string_view bytes)
      : p(bytes.data()), end(bytes.data() + bytes.size()) {}

  /// True when `count` items of `width` bytes each fit in the bytes left.
  /// A negative count converts to a huge one and never fits.
  bool Fits(uint64_t count, uint64_t width) const {
    return count <= static_cast<uint64_t>(end - p) / width;
  }

  /// Start of the next `count` items of `width` bytes; skips past them.
  Result<const char*> Take(uint64_t count, uint64_t width, const char* what) {
    if (!Fits(count, width)) return Status::IOError(what);
    const char* at = p;
    p += count * width;
    return at;
  }

  template <typename T>
  Status Pod(T* v) {
    XORBITS_ASSIGN_OR_RETURN(const char* at,
                             Take(1, sizeof(T), "truncated input"));
    std::memcpy(v, at, sizeof(T));
    return Status::OK();
  }

  /// A uint32-length-prefixed string, viewed in place.
  Result<std::string_view> Str() {
    uint32_t len = 0;
    XORBITS_RETURN_NOT_OK(Pod(&len));
    XORBITS_ASSIGN_OR_RETURN(const char* at, Take(len, 1, "truncated string"));
    return std::string_view(at, len);
  }
};

}  // namespace xorbits::io

#endif  // XORBITS_IO_BYTE_CURSOR_H_
