#include "dataframe/dataframe.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>


namespace xorbits::dataframe {

namespace lazy_detail {

/// One column slot's resolution cache. Shared (via shared_ptr) by every
/// copy of a lazy frame, so a column is decoded/gathered at most once no
/// matter how many copies read it, from however many threads.
struct LazyCell {
  std::mutex mu;
  bool ready = false;
  Column value;
};

}  // namespace lazy_detail

using lazy_detail::LazyCell;

Result<DataFrame> DataFrame::Make(std::vector<std::string> names,
                                  std::vector<Column> columns) {
  if (names.size() != columns.size()) {
    return Status::Invalid("names/columns size mismatch");
  }
  std::set<std::string> seen;
  for (const auto& n : names) {
    if (!seen.insert(n).second) {
      return Status::Invalid("duplicate column name: " + n);
    }
  }
  if (!columns.empty()) {
    const int64_t n = columns[0].length();
    for (const auto& c : columns) {
      if (c.length() != n) {
        return Status::Invalid("column length mismatch");
      }
    }
  }
  DataFrame df;
  df.names_ = std::move(names);
  df.columns_ = std::move(columns);
  df.index_ = Index::Range(0, df.columns_.empty() ? 0 : df.columns_[0].length());
  return df;
}

DataFrame DataFrame::EmptyLike(const DataFrame& schema_source) {
  DataFrame df;
  df.names_ = schema_source.names_;
  for (size_t i = 0; i < schema_source.columns_.size(); ++i) {
    const bool sourced = i < schema_source.sources_.size() &&
                         schema_source.sources_[i] != nullptr;
    df.columns_.push_back(sourced ? schema_source.sources_[i]->Empty()
                                  : schema_source.columns_[i].Slice(0, 0));
  }
  df.index_ = Index::Range(0, 0);
  return df;
}

std::vector<DType> DataFrame::dtypes() const {
  std::vector<DType> out;
  out.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const bool sourced = i < sources_.size() && sources_[i] != nullptr;
    out.push_back(sourced ? sources_[i]->dtype() : columns_[i].dtype());
  }
  return out;
}

bool DataFrame::HasColumn(const std::string& name) const {
  for (const auto& n : names_) {
    if (n == name) return true;
  }
  return false;
}

Result<int> DataFrame::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return Status::KeyError("no column named '" + name + "'");
}

Result<const Column*> DataFrame::GetColumn(const std::string& name) const {
  XORBITS_ASSIGN_OR_RETURN(int i, ColumnIndex(name));
  return &column(i);
}

const Column& DataFrame::ResolveColumn(int i) const {
  LazyCell& cell = *cells_[i];
  std::lock_guard<std::mutex> lock(cell.mu);
  if (cell.ready) return cell.value;
  ColumnSourcePtr src =
      static_cast<size_t>(i) < sources_.size() ? sources_[i] : nullptr;
  if (src) {
    Result<Column> loaded =
        selection_.active()
            ? (selection_.length() == 0
                   ? Result<Column>(src->Empty())
                   : src->Load(selection_.rows().ToVector()))
            : src->LoadAll();
    if (!loaded.ok()) {
      // A source that loaded fine at plan time vanished mid-resolution
      // (file deleted under a running query). No error channel exists on
      // the const read path; this is as fatal as a failed mmap.
      std::fprintf(stderr, "fatal: lazy column load failed (%s): %s\n",
                   src->describe().c_str(),
                   loaded.status().ToString().c_str());
      std::abort();
    }
    cell.value = std::move(loaded).MoveValue();
    ChargeScoped(CounterId::kLazyColumnsDecoded);
    ChargeScoped(CounterId::kBytesMaterialized, cell.value.nbytes());
  } else {
    const Column& base = columns_[i];
    if (!selection_.active()) {
      cell.value = base;  // pure share, nothing new becomes dense
    } else if (selection_.length() == 0) {
      cell.value = base.Slice(0, 0);  // O(1), avoids a pointless gather
    } else {
      cell.value = base.Take(selection_.rows().data(), selection_.length());
      ChargeScoped(CounterId::kBytesMaterialized, cell.value.nbytes());
    }
  }
  cell.ready = true;
  return cell.value;
}

void DataFrame::EnsureLazy() {
  if (!cells_.empty() || columns_.empty()) return;
  base_rows_ = num_rows();
  sources_.assign(columns_.size(), nullptr);
  cells_.clear();
  cells_.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    cells_.push_back(std::make_shared<LazyCell>());
  }
}

bool DataFrame::IsSlotPending(int i) const {
  if (cells_.empty()) return false;
  if (static_cast<size_t>(i) >= sources_.size() || !sources_[i]) return false;
  LazyCell& cell = *cells_[i];
  std::lock_guard<std::mutex> lock(cell.mu);
  return !cell.ready;
}

void DataFrame::Compact() {
  if (cells_.empty()) return;
  ChargeScoped(CounterId::kSelectionsForced);
  std::vector<Column> dense;
  dense.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    dense.push_back(ResolveColumn(static_cast<int>(i)));
  }
  columns_ = std::move(dense);
  sources_.clear();
  cells_.clear();
  selection_ = Selection();
  base_rows_ = -1;
}

DataFrame DataFrame::Compacted() const {
  DataFrame out = *this;
  out.Compact();
  return out;
}

Status DataFrame::SetColumn(const std::string& name, Column column) {
  // A dense column can join a lazy frame as a plain base slot while no
  // selection is pending (visible == base rows). Once a selection is
  // active the new column is visible-aligned, not base-aligned, so the
  // frame must compact first.
  if (!cells_.empty() && selection_.active()) Compact();
  if (!columns_.empty() && column.length() != num_rows()) {
    return Status::Invalid("SetColumn length mismatch for '" + name + "'");
  }
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      columns_[i] = std::move(column);
      if (!cells_.empty()) {
        sources_[i] = nullptr;
        cells_[i] = std::make_shared<LazyCell>();
      }
      return Status::OK();
    }
  }
  if (columns_.empty()) {
    index_ = Index::Range(0, column.length());
  }
  names_.push_back(name);
  columns_.push_back(std::move(column));
  if (!cells_.empty()) {
    sources_.push_back(nullptr);
    cells_.push_back(std::make_shared<LazyCell>());
  }
  return Status::OK();
}

Status DataFrame::SetColumnSource(const std::string& name,
                                  ColumnSourcePtr source) {
  if (!source) {
    return Status::Invalid("SetColumnSource: null source for '" + name + "'");
  }
  if (columns_.empty() && index_.length() == 0 && !selection_.active()) {
    index_ = Index::Range(0, source->length());
  }
  if (source->length() != base_rows()) {
    return Status::Invalid("SetColumnSource base length mismatch for '" +
                           name + "'");
  }
  const bool was_eager = cells_.empty();
  EnsureLazy();
  if (cells_.empty()) {
    // Zero-slot frame: EnsureLazy is a no-op, install the bookkeeping here.
    base_rows_ = source->length();
  }
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      if (was_eager && selection_.active()) {
        return Status::Invalid("SetColumnSource on a filtered eager frame");
      }
      columns_[i] = Column();
      sources_[i] = std::move(source);
      cells_[i] = std::make_shared<LazyCell>();
      return Status::OK();
    }
  }
  names_.push_back(name);
  columns_.push_back(Column());
  sources_.push_back(std::move(source));
  cells_.push_back(std::make_shared<LazyCell>());
  return Status::OK();
}

Status DataFrame::RemoveColumn(const std::string& name) {
  XORBITS_ASSIGN_OR_RETURN(int i, ColumnIndex(name));
  names_.erase(names_.begin() + i);
  columns_.erase(columns_.begin() + i);
  if (!cells_.empty()) {
    sources_.erase(sources_.begin() + i);
    cells_.erase(cells_.begin() + i);
  }
  return Status::OK();
}

Result<DataFrame> DataFrame::Select(
    const std::vector<std::string>& names) const {
  DataFrame out;
  for (const auto& n : names) {
    XORBITS_ASSIGN_OR_RETURN(int i, ColumnIndex(n));
    out.names_.push_back(n);
    out.columns_.push_back(columns_[i]);
    if (!cells_.empty()) {
      out.sources_.push_back(sources_[i]);
      out.cells_.push_back(cells_[i]);
    }
  }
  if (!cells_.empty() && !out.cells_.empty()) {
    out.selection_ = selection_;
    out.base_rows_ = base_rows_;
  }
  out.index_ = index_;
  return out;
}

Result<DataFrame> DataFrame::Rename(
    const std::map<std::string, std::string>& mapping) const {
  DataFrame out = *this;
  for (auto& n : out.names_) {
    auto it = mapping.find(n);
    if (it != mapping.end()) n = it->second;
  }
  std::set<std::string> seen;
  for (const auto& n : out.names_) {
    if (!seen.insert(n).second) {
      return Status::Invalid("Rename produces duplicate column: " + n);
    }
  }
  return out;
}

DataFrame DataFrame::TakeRows(const std::vector<int64_t>& indices) const {
  if (!cells_.empty()) return Compacted().TakeRows(indices);
  DataFrame out;
  out.names_ = names_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Take(indices));
  out.index_ = index_.Take(indices);
  return out;
}

DataFrame DataFrame::FilterRows(const std::vector<uint8_t>& mask) const {
  if (!cells_.empty()) return FilterRowsLate(mask);
  DataFrame out;
  out.names_ = names_;
  out.columns_.reserve(columns_.size());
  int64_t made_dense = 0;
  for (const auto& c : columns_) {
    out.columns_.push_back(c.Filter(mask));
    made_dense += out.columns_.back().nbytes();
  }
  out.index_ = index_.Filter(mask);
  ChargeScoped(CounterId::kBytesMaterialized, made_dense);
  return out;
}

DataFrame DataFrame::FilterRowsLate(const std::vector<uint8_t>& mask) const {
  if (columns_.empty()) return FilterRows(mask);  // index-only frame
  DataFrame out = *this;
  out.EnsureLazy();
  out.selection_ = out.selection_.ComposeMask(mask);
  // Fresh cells: cached resolutions are aligned to the old visible rows.
  for (auto& c : out.cells_) c = std::make_shared<LazyCell>();
  out.index_ = index_.Filter(mask);
  return out;
}

DataFrame DataFrame::WithSelectionRows(std::vector<int64_t> rows) const {
  const int64_t n = static_cast<int64_t>(rows.size());
  DataFrame out = *this;
  if (columns_.empty()) {
    // Column-less snapshot (e.g. a constant expression): only the row count
    // matters, and a RangeIndex carries it.
    out.index_ = Index::Range(0, n);
    return out;
  }
  out.EnsureLazy();
  out.selection_ = Selection::FromIndices(std::move(rows));
  for (auto& c : out.cells_) c = std::make_shared<LazyCell>();
  out.index_ = Index::Range(0, n);
  return out;
}

DataFrame DataFrame::SliceRows(int64_t offset, int64_t count) const {
  if (offset < 0) offset = 0;
  if (offset > num_rows()) offset = num_rows();
  if (count < 0 || offset + count > num_rows()) count = num_rows() - offset;
  if (!cells_.empty()) {
    DataFrame out = *this;
    out.selection_ = selection_.ComposeSlice(offset, count, base_rows_);
    for (auto& c : out.cells_) c = std::make_shared<LazyCell>();
    out.index_ = index_.Slice(offset, count);
    return out;
  }
  DataFrame out;
  out.names_ = names_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Slice(offset, count));
  out.index_ = index_.Slice(offset, count);
  return out;
}

DataFrame DataFrame::ResetIndex() const {
  DataFrame out = *this;
  out.index_ = Index::Range(0, num_rows());
  return out;
}

int64_t DataFrame::nbytes() const {
  int64_t bytes = index_.nbytes() + selection_.nbytes();
  if (cells_.empty()) {
    for (const auto& c : columns_) bytes += c.nbytes();
    return bytes;
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    LazyCell& cell = *cells_[i];
    std::lock_guard<std::mutex> lock(cell.mu);
    if (cell.ready) {
      bytes += cell.value.nbytes();
    } else if (i < sources_.size() && sources_[i]) {
      bytes += sources_[i]->nbytes_hint();
    } else {
      bytes += columns_[i].nbytes();
    }
  }
  return bytes;
}

void DataFrame::AppendBufferRefs(std::vector<common::BufferRef>* out) const {
  if (cells_.empty()) {
    for (const auto& c : columns_) c.AppendBufferRefs(out);
    return;
  }
  selection_.AppendBufferRefs(out);
  for (size_t i = 0; i < columns_.size(); ++i) {
    LazyCell& cell = *cells_[i];
    std::lock_guard<std::mutex> lock(cell.mu);
    if (cell.ready) {
      cell.value.AppendBufferRefs(out);
    } else {
      // Pending sourced slots hold no payload; a pending base slot's full
      // column is still resident and must be charged.
      columns_[i].AppendBufferRefs(out);
    }
  }
}

std::string DataFrame::ToString(int64_t max_rows) const {
  std::ostringstream os;
  os << "index";
  for (const auto& n : names_) os << "\t" << n;
  os << "\n";
  const int64_t n = num_rows();
  auto emit_row = [&](int64_t r) {
    os << index_.Label(r);
    for (int i = 0; i < num_columns(); ++i) os << "\t" << column(i).ValueToString(r);
    os << "\n";
  };
  if (n <= max_rows) {
    for (int64_t r = 0; r < n; ++r) emit_row(r);
  } else {
    for (int64_t r = 0; r < max_rows / 2; ++r) emit_row(r);
    os << "...\n";
    for (int64_t r = n - (max_rows - max_rows / 2); r < n; ++r) emit_row(r);
  }
  os << "[" << n << " rows x " << num_columns() << " columns]";
  return os.str();
}

common::Hash128 ContentFingerprint(const DataFrame& df,
                                   int64_t* bytes_hashed) {
  // Resolving every slot is a forcing point, as serialization is.
  if (df.is_lazy()) ChargeScoped(CounterId::kSelectionsForced);
  common::ContentHasher h;
  h.Mix(static_cast<uint64_t>(df.num_columns()));
  for (int i = 0; i < df.num_columns(); ++i) {
    const std::string& name = df.column_name(i);
    h.Mix(static_cast<uint64_t>(name.size()));
    h.Update(name.data(), name.size());
    const Column& c = df.column(i);
    h.Mix(static_cast<uint64_t>(c.dtype()));
    h.Mix(static_cast<uint64_t>(c.length()));
    h.Mix(c.has_validity() ? 1 : 0);
    if (c.has_validity()) h.Mix(c.validity().ContentHash(bytes_hashed));
    switch (c.dtype()) {
      case DType::kInt64:
        h.Mix(c.int64_data().ContentHash(bytes_hashed));
        break;
      case DType::kFloat64:
        h.Mix(c.float64_data().ContentHash(bytes_hashed));
        break;
      case DType::kBool:
        h.Mix(c.bool_data().ContentHash(bytes_hashed));
        break;
      case DType::kString:
        // Encoding tag: plain strings and dictionary codes over the same
        // values are different payloads to the codec, so they key apart.
        h.Mix(c.is_dict() ? 1 : 0);
        if (c.is_dict()) {
          h.Mix(c.dict_codes().ContentHash(bytes_hashed));
          h.Mix(c.dict()->values().ContentHash(bytes_hashed));
        } else {
          h.Mix(c.string_data().ContentHash(bytes_hashed));
        }
        break;
    }
  }
  const Index& idx = df.index();
  h.Mix(idx.is_range() ? 0 : 1);
  h.Mix(static_cast<uint64_t>(idx.length()));
  if (idx.is_range()) {
    h.Mix(static_cast<uint64_t>(idx.range_start()));
  } else {
    h.Mix(common::HashElements(idx.labels().data(), idx.length(),
                               bytes_hashed));
  }
  return h.Finish();
}

}  // namespace xorbits::dataframe
