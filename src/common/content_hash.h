#ifndef XORBITS_COMMON_CONTENT_HASH_H_
#define XORBITS_COMMON_CONTENT_HASH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace xorbits::common {

/// A 128-bit content hash, the unit result-cache signatures are built from.
struct Hash128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  /// 32 lowercase hex digits, `lo` first.
  std::string Hex() const {
    static const char* kHex = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = kHex[(lo >> (4 * i)) & 0xF];
      out[31 - i] = kHex[(hi >> (4 * i)) & 0xF];
    }
    return out;
  }

  friend bool operator==(const Hash128& a, const Hash128& b) = default;
};

/// Streaming 128-bit hash of a byte sequence: the MurmurHash3 x64_128
/// block mix over 16-byte blocks, with the tail and the total length
/// folded in by Finish. The result depends only on the concatenated bytes,
/// never on how they were split across Update calls. Not cryptographic:
/// it guards against accidental collisions, which is all a cache key of
/// trusted in-process data needs.
class ContentHasher {
 public:
  void Update(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    len_ += n;
    if (pending_ > 0) {
      const size_t take = std::min(n, sizeof(buf_) - pending_);
      std::memcpy(buf_ + pending_, p, take);
      pending_ += take;
      p += take;
      n -= take;
      if (pending_ < sizeof(buf_)) return;
      Block(buf_);
      pending_ = 0;
    }
    for (; n >= sizeof(buf_); p += sizeof(buf_), n -= sizeof(buf_)) {
      Block(p);
    }
    if (n > 0) {
      std::memcpy(buf_, p, n);
      pending_ = n;
    }
  }
  void Mix(uint64_t v) { Update(&v, sizeof(v)); }
  void Mix(const Hash128& h) {
    Mix(h.lo);
    Mix(h.hi);
  }

  /// Bytes fed so far.
  int64_t length() const { return static_cast<int64_t>(len_); }

  Hash128 Finish() const {
    uint64_t h1 = h1_;
    uint64_t h2 = h2_;
    if (pending_ > 8) {
      uint64_t k2 = 0;
      std::memcpy(&k2, buf_ + 8, pending_ - 8);
      h2 ^= Rotl(k2 * kC2, 33) * kC1;
    }
    if (pending_ > 0) {
      uint64_t k1 = 0;
      std::memcpy(&k1, buf_, std::min<size_t>(pending_, 8));
      h1 ^= Rotl(k1 * kC1, 31) * kC2;
    }
    h1 ^= len_;
    h2 ^= len_;
    h1 += h2;
    h2 += h1;
    h1 = Fmix(h1);
    h2 = Fmix(h2);
    h1 += h2;
    h2 += h1;
    return Hash128{h1, h2};
  }

 private:
  static constexpr uint64_t kC1 = 0x87c37b91114253d5ULL;
  static constexpr uint64_t kC2 = 0x4cf5ad432745937fULL;

  static uint64_t Rotl(uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }
  static uint64_t Fmix(uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }
  void Block(const unsigned char* p) {
    uint64_t k1 = 0;
    uint64_t k2 = 0;
    std::memcpy(&k1, p, 8);
    std::memcpy(&k2, p + 8, 8);
    h1_ ^= Rotl(k1 * kC1, 31) * kC2;
    h1_ = (Rotl(h1_, 27) + h2_) * 5 + 0x52dce729;
    h2_ ^= Rotl(k2 * kC2, 33) * kC1;
    h2_ = (Rotl(h2_, 31) + h1_) * 5 + 0x38495ab5;
  }

  uint64_t h1_ = 0x9e3779b97f4a7c15ULL;
  uint64_t h2_ = 0x9e3779b97f4a7c15ULL;
  uint64_t len_ = 0;
  unsigned char buf_[16] = {};
  size_t pending_ = 0;
};

/// Content hash of `n` elements. Fixed-width values hash their raw bits
/// (so -0.0 and 0.0 differ and NaN payloads stay distinct); a string
/// hashes its length, then its bytes. Adds the bytes fed to the hasher to
/// `*bytes_hashed` when given.
template <typename T>
Hash128 HashElements(const T* data, int64_t n, int64_t* bytes_hashed) {
  ContentHasher h;
  if constexpr (std::is_same_v<T, std::string>) {
    for (int64_t i = 0; i < n; ++i) {
      h.Mix(static_cast<uint64_t>(data[i].size()));
      h.Update(data[i].data(), data[i].size());
    }
  } else {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > 0) h.Update(data, static_cast<size_t>(n) * sizeof(T));
  }
  if (bytes_hashed != nullptr) *bytes_hashed += h.length();
  return h.Finish();
}

}  // namespace xorbits::common

#endif  // XORBITS_COMMON_CONTENT_HASH_H_
