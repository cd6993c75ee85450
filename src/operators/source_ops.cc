#include "operators/source_ops.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "dataframe/kernels.h"
#include "io/csv.h"
#include "io/xparquet.h"
#include "tiling/auto_rechunk.h"

namespace xorbits::operators {

using dataframe::DataFrame;
using dataframe::DType;
using graph::ChunkNode;
using graph::TileableNode;
using tensor::NDArray;

namespace {

/// Fills planning meta on a freshly created chunk node.
void SetPlannedMeta(ChunkNode* chunk, int64_t rows, int64_t cols,
                    int64_t nbytes, int64_t chunk_row) {
  chunk->meta.rows = rows;
  chunk->meta.cols = cols;
  chunk->meta.nbytes = nbytes;
  chunk->meta.chunk_row = chunk_row;
}

/// File-version suffix for source cache signatures: mtime + size, so a
/// rewritten input file hashes to a fresh cache key (DESIGN.md §9).
/// nullopt when the file cannot be stat'ed — an unverifiable source must
/// not take part in cross-session reuse.
std::optional<std::string> FileVersionTag(const std::string& path) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return std::nullopt;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  return "|v=" + std::to_string(mtime.time_since_epoch().count()) + ":" +
         std::to_string(static_cast<int64_t>(size));
}

/// SplitRows spans with each boundary moved to the nearest row-group start,
/// so a chunk reads and decodes whole groups. A boundary stays put when
/// the nearest start is more than half a chunk away, i.e. when the groups
/// are larger than the chunks: the file still splits to the store limit.
std::vector<std::pair<int64_t, int64_t>> SplitRowsAtGroups(
    const io::XpqFileInfo& info, int64_t target_chunks) {
  std::vector<std::pair<int64_t, int64_t>> spans =
      SplitRows(info.num_rows, target_chunks);
  if (spans.size() < 2) return spans;
  const std::vector<int64_t>& starts = info.group_starts;
  std::vector<int64_t> cuts = {0};
  for (size_t i = 1; i < spans.size(); ++i) {
    int64_t cut = spans[i].first;
    auto next = std::lower_bound(starts.begin(), starts.end(), cut);
    int64_t nearest = *next;  // group_starts ends with num_rows >= cut
    if (next != starts.begin() && cut - *(next - 1) < nearest - cut) {
      nearest = *(next - 1);
    }
    if (2 * std::abs(nearest - cut) <= spans[i - 1].second) cut = nearest;
    if (cut > cuts.back() && cut < info.num_rows) cuts.push_back(cut);
  }
  cuts.push_back(info.num_rows);
  std::vector<std::pair<int64_t, int64_t>> aligned;
  for (size_t i = 1; i < cuts.size(); ++i) {
    aligned.emplace_back(cuts[i - 1], cuts[i] - cuts[i - 1]);
  }
  return aligned;
}

}  // namespace

Status ReadXpqChunkOp::Execute(ExecutionContext& ctx) const {
  // The window is sourced lazily (DESIGN.md §10): only the footer is read
  // here, and a column's row groups are fetched the first time a consumer
  // reads it, through the frame's pending selection. A pushed filter reads
  // its predicate's columns through the same frame and leaves the mask as
  // that selection, so an all-false mask fetches no payload block at all.
  std::vector<std::string> read = columns_;
  std::set<std::string> fcols;
  if (filter_ != nullptr) filter_->CollectColumns(&fcols);
  if (!read.empty()) {
    for (const auto& name : fcols) {
      if (std::find(read.begin(), read.end(), name) == read.end()) {
        read.push_back(name);
      }
    }
  }
  XORBITS_ASSIGN_OR_RETURN(
      DataFrame df, io::ReadXpqLazy(path_, read, row_offset_, row_count_,
                                    dict_encode_));
  if (filter_ != nullptr) {
    XORBITS_ASSIGN_OR_RETURN(dataframe::Column mask, EvalExpr(df, *filter_));
    if (mask.dtype() != DType::kBool) {
      return Status::TypeError("pushed filter predicate must be boolean");
    }
    // The mask decoded the predicate's columns whole; keep them as base
    // columns so the filtered frame gathers them instead of fetching their
    // groups a second time.
    for (const auto& name : fcols) {
      XORBITS_ASSIGN_OR_RETURN(const dataframe::Column* col,
                               df.GetColumn(name));
      XORBITS_RETURN_NOT_OK(df.SetColumn(name, *col));
    }
    XORBITS_ASSIGN_OR_RETURN(df, dataframe::FilterLate(df, mask));
    if (read.size() != columns_.size()) {
      XORBITS_ASSIGN_OR_RETURN(df, df.Select(columns_));
    }
  }
  ctx.outputs[0] = services::MakeChunk(std::move(df));
  return Status::OK();
}

std::optional<std::string> ReadXpqChunkOp::CseSignature() const {
  std::string sig = "xpq|" + path_ + "|" + std::to_string(row_offset_) + "|" +
                    std::to_string(row_count_) + "|" +
                    (dict_encode_ ? "d|" : "p|") +
                    (filter_ != nullptr ? filter_->ToString() : "") + "|";
  for (const auto& c : columns_) {
    sig += c;
    sig += ',';
  }
  return sig;
}

std::optional<std::string> ReadXpqChunkOp::CacheSignature() const {
  std::optional<std::string> version = FileVersionTag(path_);
  if (!version.has_value()) return std::nullopt;
  return *CseSignature() + *version;
}

Status ReadCsvChunkOp::Execute(ExecutionContext& ctx) const {
  io::CsvOptions opts;
  opts.parse_dates = parse_dates_;
  opts.skip_rows = skip_rows_;
  opts.max_rows = max_rows_;
  XORBITS_ASSIGN_OR_RETURN(DataFrame df, io::ReadCsv(path_, opts));
  if (filter_ != nullptr) {
    // CSV is row-major: the pushed predicate cannot skip file bytes, but
    // filtering at the source still shrinks every downstream chunk.
    XORBITS_ASSIGN_OR_RETURN(dataframe::Column mask, EvalExpr(df, *filter_));
    XORBITS_ASSIGN_OR_RETURN(DataFrame filtered,
                             dataframe::Filter(df, mask));
    df = std::move(filtered);
  }
  ctx.outputs[0] = services::MakeChunk(std::move(df));
  return Status::OK();
}

std::optional<std::string> ReadCsvChunkOp::CseSignature() const {
  std::string sig = "csv|" + path_ + "|" + std::to_string(skip_rows_) + "|" +
                    std::to_string(max_rows_) + "|" +
                    (filter_ != nullptr ? filter_->ToString() : "") + "|";
  for (const auto& c : parse_dates_) {
    sig += c;
    sig += ',';
  }
  return sig;
}

std::optional<std::string> ReadCsvChunkOp::CacheSignature() const {
  std::optional<std::string> version = FileVersionTag(path_);
  if (!version.has_value()) return std::nullopt;
  return *CseSignature() + *version;
}

Status RandomChunkOp::Execute(ExecutionContext& ctx) const {
  Rng rng(seed_);
  NDArray out = dist_ == Dist::kUniform
                    ? NDArray::RandomUniform(shape_, rng)
                    : NDArray::RandomNormal(shape_, rng);
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

std::optional<std::string> RandomChunkOp::CseSignature() const {
  std::string sig = "rand|" + std::to_string(seed_) + "|" +
                    std::to_string(static_cast<int>(dist_)) + "|";
  for (int64_t d : shape_) {
    sig += std::to_string(d);
    sig += ',';
  }
  return sig;
}

Status WriteXpqChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* df,
                           services::AsDataFrame(ctx.inputs[0]));
  char name[32];
  std::snprintf(name, sizeof(name), "part-%05lld.xpq",
                static_cast<long long>(index_));
  const std::string path = dir_ + "/" + name;
  XORBITS_RETURN_NOT_OK(io::WriteXpq(path, *df));
  DataFrame manifest;
  XORBITS_RETURN_NOT_OK(manifest.SetColumn(
      "path", dataframe::Column::String({path})));
  XORBITS_RETURN_NOT_OK(manifest.SetColumn(
      "rows", dataframe::Column::Int64({df->num_rows()})));
  ctx.outputs[0] = services::MakeChunk(std::move(manifest));
  return Status::OK();
}

TileTask WriteXpqOp::Tile(TileContext& ctx, TileableNode* node) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    co_return Status::IOError("cannot create " + dir_ + ": " + ec.message());
  }
  TileableNode* in = node->inputs[0];
  for (size_t i = 0; i < in->chunks.size(); ++i) {
    ChunkNode* written = ctx.chunk_graph()->AddNode(
        std::make_shared<WriteXpqChunkOp>(dir_, static_cast<int64_t>(i)),
        {in->chunks[i]});
    written->meta.rows = 1;
    written->meta.rows_exact = true;
    written->meta.chunk_row = static_cast<int64_t>(i);
    node->chunks.push_back(written);
  }
  node->tiled = true;
  co_return Status::OK();
}

TileTask FromDataFrameOp::Tile(TileContext& ctx, TileableNode* node) {
  const int64_t total = df_.num_rows();
  const int64_t nbytes = df_.nbytes();
  int64_t nchunks = ChooseChunkCount(ctx.config(), nbytes);
  // Engage at least the available bands for non-trivial frames.
  if (total >= 2 * ctx.config().total_bands()) {
    nchunks = std::max<int64_t>(nchunks, ctx.config().total_bands());
  }
  // Content fingerprint for the result cache, shared by every slice, so
  // identical frames submitted by different sessions produce identical
  // DataChunkOp cache signatures. Built from the buffers' memoized hashes:
  // resubmitting the same buffers hashes no payload again. Only paid when
  // the cache is on; without a fingerprint the slices keep their
  // pointer-identity CseSignature and opt out of cross-session reuse.
  std::string cache_fp;
  if (ctx.config().enable_result_cache) {
    int64_t hashed = 0;
    cache_fp = dataframe::ContentFingerprint(df_, &hashed).Hex();
    ctx.metrics()->Add(CounterId::kCacheFingerprintBytes, hashed);
  }
  for (const auto& [off, count] : SplitRows(total, nchunks)) {
    DataFrame piece = df_.SliceRows(off, count);
    const int64_t piece_bytes = piece.nbytes();
    auto op = cache_fp.empty()
                  ? std::make_shared<DataChunkOp>(
                        services::MakeChunk(std::move(piece)))
                  : std::make_shared<DataChunkOp>(
                        services::MakeChunk(std::move(piece)),
                        "df:" + cache_fp + ":" + std::to_string(off) + ":" +
                            std::to_string(count));
    ChunkNode* chunk = ctx.chunk_graph()->AddNode(std::move(op), {});
    SetPlannedMeta(chunk, count, df_.num_columns(), piece_bytes,
                   static_cast<int64_t>(node->chunks.size()));
    node->chunks.push_back(chunk);
  }
  node->est_rows = total;
  node->tiled = true;
  co_return Status::OK();
}

TileTask ReadXpqOp::Tile(TileContext& ctx, TileableNode* node) {
  auto info_r = io::ReadXpqInfo(path_);
  if (!info_r.ok()) co_return info_r.status();
  const io::XpqFileInfo& info = *info_r;
  // Planned bytes: only the pruned columns are ever read.
  int64_t bytes = 0;
  for (const auto& c : info.columns) {
    if (pruned_columns_.empty()) {
      bytes += c.nbytes;
    } else {
      for (const auto& want : pruned_columns_) {
        if (c.name == want) {
          bytes += c.nbytes;
          break;
        }
      }
    }
  }
  if (!pruned_columns_.empty()) {
    ctx.metrics()->Add(
        CounterId::kPrunedColumns,
        static_cast<int64_t>(info.columns.size() - pruned_columns_.size()));
  }
  int64_t nchunks = ChooseChunkCount(ctx.config(), bytes);
  if (info.num_rows >= 2 * ctx.config().total_bands()) {
    nchunks = std::max<int64_t>(nchunks, ctx.config().total_bands());
  }
  const int64_t ncols = pruned_columns_.empty()
                            ? static_cast<int64_t>(info.columns.size())
                            : static_cast<int64_t>(pruned_columns_.size());
  for (const auto& [off, count] : SplitRowsAtGroups(info, nchunks)) {
    auto op = std::make_shared<ReadXpqChunkOp>(path_, pruned_columns_, off,
                                               count, pushed_filter_,
                                               ctx.config().dict_encode);
    ChunkNode* chunk = ctx.chunk_graph()->AddNode(std::move(op), {});
    if (pushed_filter_ != nullptr && ctx.dynamic()) {
      // Filtered row count is unknown until the chunk runs; dynamic tiling
      // will measure it (same contract as EvalOp with a filter).
      SetPlannedMeta(chunk, -1, ncols, -1,
                     static_cast<int64_t>(node->chunks.size()));
    } else {
      SetPlannedMeta(chunk, count, ncols,
                     info.num_rows > 0 ? bytes * count / info.num_rows : 0,
                     static_cast<int64_t>(node->chunks.size()));
    }
    node->chunks.push_back(chunk);
  }
  node->est_rows = info.num_rows;
  node->tiled = true;
  co_return Status::OK();
}

TileTask ReadCsvOp::Tile(TileContext& ctx, TileableNode* node) {
  auto rows_r = io::CountCsvRows(path_);
  if (!rows_r.ok()) co_return rows_r.status();
  const int64_t total = *rows_r;
  std::error_code ec;
  const int64_t file_bytes = static_cast<int64_t>(
      std::filesystem::file_size(path_, ec));
  int64_t nchunks = ChooseChunkCount(ctx.config(), ec ? -1 : file_bytes);
  if (total >= 2 * ctx.config().total_bands()) {
    nchunks = std::max<int64_t>(nchunks, ctx.config().total_bands());
  }
  for (const auto& [off, count] : SplitRows(total, nchunks)) {
    auto op = std::make_shared<ReadCsvChunkOp>(path_, parse_dates_, off,
                                               count, pushed_filter_);
    ChunkNode* chunk = ctx.chunk_graph()->AddNode(std::move(op), {});
    if (pushed_filter_ != nullptr && ctx.dynamic()) {
      SetPlannedMeta(chunk, -1, -1, -1,
                     static_cast<int64_t>(node->chunks.size()));
    } else {
      SetPlannedMeta(chunk, count, -1,
                     total > 0 ? file_bytes * count / total : 0,
                     static_cast<int64_t>(node->chunks.size()));
    }
    node->chunks.push_back(chunk);
  }
  node->est_rows = total;
  node->tiled = true;
  co_return Status::OK();
}

TileTask FromNDArrayOp::Tile(TileContext& ctx, TileableNode* node) {
  const int64_t rows = array_.rows();
  const int64_t nchunks = ChooseChunkCount(ctx.config(), array_.nbytes());
  // Same content-fingerprint arrangement as FromDataFrameOp::Tile.
  std::string cache_fp;
  if (ctx.config().enable_result_cache) {
    int64_t hashed = 0;
    cache_fp = tensor::ContentFingerprint(array_, &hashed).Hex();
    ctx.metrics()->Add(CounterId::kCacheFingerprintBytes, hashed);
  }
  for (const auto& [off, count] : SplitRows(rows, nchunks)) {
    NDArray piece = array_.SliceRows(off, off + count);
    const int64_t piece_bytes = piece.nbytes();
    const int64_t piece_cols = piece.cols();
    auto op = cache_fp.empty()
                  ? std::make_shared<DataChunkOp>(
                        services::MakeChunk(std::move(piece)))
                  : std::make_shared<DataChunkOp>(
                        services::MakeChunk(std::move(piece)),
                        "nd:" + cache_fp + ":" + std::to_string(off) + ":" +
                            std::to_string(count));
    ChunkNode* chunk = ctx.chunk_graph()->AddNode(std::move(op), {});
    SetPlannedMeta(chunk, count, piece_cols, piece_bytes,
                   static_cast<int64_t>(node->chunks.size()));
    node->chunks.push_back(chunk);
  }
  node->est_rows = rows;
  node->tiled = true;
  co_return Status::OK();
}

TileTask RandomTensorOp::Tile(TileContext& ctx, TileableNode* node) {
  // Auto rechunk keeps columns whole (row chunking) so downstream matmul/QR
  // blocks are tall-and-skinny without user intervention.
  std::map<int, int64_t> constraints;
  if (shape_.size() == 2) constraints[1] = shape_[1];
  auto extents_r = tiling::AutoRechunk(shape_, constraints, 8,
                                       ctx.config().chunk_store_limit);
  if (!extents_r.ok()) co_return extents_r.status();
  const std::vector<int64_t>& row_extents = (*extents_r)[0];
  const int64_t cols = shape_.size() == 2 ? shape_[1] : 1;
  uint64_t chunk_seed = seed_;
  for (int64_t rows : row_extents) {
    std::vector<int64_t> chunk_shape =
        shape_.size() == 2 ? std::vector<int64_t>{rows, cols}
                           : std::vector<int64_t>{rows};
    auto op = std::make_shared<RandomChunkOp>(std::move(chunk_shape),
                                              ++chunk_seed, dist_);
    ChunkNode* chunk = ctx.chunk_graph()->AddNode(std::move(op), {});
    SetPlannedMeta(chunk, rows, cols, rows * cols * 8,
                   static_cast<int64_t>(node->chunks.size()));
    node->chunks.push_back(chunk);
  }
  node->est_rows = shape_[0];
  node->tiled = true;
  co_return Status::OK();
}

}  // namespace xorbits::operators
