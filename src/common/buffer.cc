#include "common/buffer.h"

#include <algorithm>

namespace xorbits::common {

int64_t UniqueViewBytes(std::vector<BufferRef> refs) {
  std::sort(refs.begin(), refs.end(),
            [](const BufferRef& a, const BufferRef& b) {
              if (a.id != b.id) return a.id < b.id;
              if (a.offset != b.offset) return a.offset < b.offset;
              return a.length < b.length;
            });
  int64_t bytes = 0;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (i > 0 && refs[i].id == refs[i - 1].id &&
        refs[i].offset == refs[i - 1].offset &&
        refs[i].length == refs[i - 1].length) {
      continue;
    }
    bytes += refs[i].view_bytes;
  }
  return bytes;
}

std::vector<std::pair<uint64_t, int64_t>> UniqueBuffers(
    std::vector<BufferRef> refs) {
  std::sort(refs.begin(), refs.end(),
            [](const BufferRef& a, const BufferRef& b) { return a.id < b.id; });
  std::vector<std::pair<uint64_t, int64_t>> out;
  for (const BufferRef& r : refs) {
    if (!out.empty() && out.back().first == r.id) continue;
    out.emplace_back(r.id, r.buffer_bytes);
  }
  return out;
}

namespace buffer_detail {

uint64_t NextBufferId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace buffer_detail

}  // namespace xorbits::common
