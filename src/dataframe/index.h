#ifndef XORBITS_DATAFRAME_INDEX_H_
#define XORBITS_DATAFRAME_INDEX_H_

#include <cstdint>
#include <vector>

namespace xorbits::dataframe {

/// Row labels of a dataframe. Either a lazy integer range (the common
/// `RangeIndex`) or explicit int64 labels (what survives filtering). The
/// distributed two-level index of the paper (Fig. 4) lives in chunk metadata;
/// this class provides the single-chunk labels it composes.
class Index {
 public:
  Index() : start_(0), stop_(0) {}

  static Index Range(int64_t start, int64_t stop) {
    Index idx;
    idx.start_ = start;
    idx.stop_ = stop < start ? start : stop;
    return idx;
  }
  static Index Labels(std::vector<int64_t> labels) {
    Index idx;
    idx.labels_ = std::move(labels);
    idx.is_range_ = false;
    return idx;
  }

  bool is_range() const { return is_range_; }
  int64_t length() const {
    return is_range_ ? stop_ - start_
                     : static_cast<int64_t>(labels_.size());
  }
  int64_t range_start() const { return start_; }
  /// Explicit labels; empty for a range index.
  const std::vector<int64_t>& labels() const { return labels_; }

  int64_t Label(int64_t pos) const {
    return is_range_ ? start_ + pos : labels_[pos];
  }

  Index Take(const std::vector<int64_t>& indices) const;
  Index Filter(const std::vector<uint8_t>& mask) const;
  Index Slice(int64_t offset, int64_t count) const;

  /// Concatenation preserving labels (contiguous ranges stay ranges).
  static Index Concat(const std::vector<const Index*>& pieces);

  int64_t nbytes() const {
    return is_range_ ? 16 : static_cast<int64_t>(labels_.size()) * 8;
  }

 private:
  bool is_range_ = true;
  int64_t start_ = 0;
  int64_t stop_ = 0;
  std::vector<int64_t> labels_;
};

}  // namespace xorbits::dataframe

#endif  // XORBITS_DATAFRAME_INDEX_H_
