#ifndef XORBITS_OPERATORS_SOURCE_OPS_H_
#define XORBITS_OPERATORS_SOURCE_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "operators/expr.h"
#include "operators/operator.h"
#include "tensor/ndarray.h"

namespace xorbits::operators {

/// Chunk kernel that emits a payload captured at tile time (in-memory
/// sources, sliced).
class DataChunkOp : public ChunkOp {
 public:
  explicit DataChunkOp(ChunkDataPtr payload) : payload_(std::move(payload)) {}
  /// `cache_tag` is a content fingerprint of the captured slice, computed
  /// by the tiling source when the result cache is on (FromDataFrameOp
  /// hashes the serialized frame once and tags each slice with it).
  DataChunkOp(ChunkDataPtr payload, std::string cache_tag)
      : payload_(std::move(payload)), cache_tag_(std::move(cache_tag)) {}
  const char* type_name() const override { return "DataChunk"; }
  Status Execute(ExecutionContext& ctx) const override {
    ctx.outputs[0] = payload_;
    return Status::OK();
  }
  /// Payload identity: two DataChunkOps are equal only when they emit the
  /// very same captured payload (distinct tiles slice distinct pieces).
  std::optional<std::string> CseSignature() const override {
    return "data|" +
           std::to_string(reinterpret_cast<uintptr_t>(payload_.get()));
  }
  /// The pointer identity above is meaningless across sessions; only a
  /// content-fingerprinted payload may take part in cross-session reuse.
  std::optional<std::string> CacheSignature() const override {
    if (cache_tag_.empty()) return std::nullopt;
    return "data|" + cache_tag_;
  }
  std::optional<std::string> CacheSourceTag() const override {
    if (cache_tag_.empty()) return std::nullopt;
    return cache_tag_;
  }

 private:
  ChunkDataPtr payload_;
  std::string cache_tag_;  // empty => opted out of the result cache
};

/// Chunk kernel that reads a row range of selected columns from an
/// xparquet file (the fused unit of ReadParquet + pruning). It emits a lazy
/// frame of XpqColumnSource thunks, so a downstream consumer decodes only
/// the columns and rows it touches.
class ReadXpqChunkOp : public ChunkOp {
 public:
  ReadXpqChunkOp(std::string path, std::vector<std::string> columns,
                 int64_t row_offset, int64_t row_count,
                 ExprPtr filter = nullptr, bool dict_encode = false)
      : path_(std::move(path)),
        columns_(std::move(columns)),
        row_offset_(row_offset),
        row_count_(row_count),
        filter_(std::move(filter)),
        dict_encode_(dict_encode) {}
  const char* type_name() const override { return "ReadParquet"; }
  Status Execute(ExecutionContext& ctx) const override;
  std::optional<std::string> CseSignature() const override;
  /// CseSignature + the file's mtime/size: a rewritten input hashes to a
  /// fresh cache key instead of serving stale bytes (DESIGN.md §9).
  std::optional<std::string> CacheSignature() const override;
  std::optional<std::string> CacheSourceTag() const override { return path_; }

 private:
  std::string path_;
  std::vector<std::string> columns_;
  int64_t row_offset_;
  int64_t row_count_;
  /// Pushed-down row predicate. The kernel decodes the filter columns,
  /// evaluates the mask and carries it as a pending selection, so payload
  /// blocks holding no matching row are never fetched — the I/O saving
  /// predicate pushdown buys.
  ExprPtr filter_;  // may be null
  /// Return dictionary-page string columns as codes (Config::dict_encode,
  /// captured at tile time — ExecutionContext carries no config).
  bool dict_encode_;
};

/// Chunk kernel reading a CSV row range (dtype inference per chunk; dates
/// parsed for the configured columns).
class ReadCsvChunkOp : public ChunkOp {
 public:
  ReadCsvChunkOp(std::string path, std::vector<std::string> parse_dates,
                 int64_t skip_rows, int64_t max_rows,
                 ExprPtr filter = nullptr)
      : path_(std::move(path)),
        parse_dates_(std::move(parse_dates)),
        skip_rows_(skip_rows),
        max_rows_(max_rows),
        filter_(std::move(filter)) {}
  const char* type_name() const override { return "ReadCsv"; }
  Status Execute(ExecutionContext& ctx) const override;
  std::optional<std::string> CseSignature() const override;
  /// CseSignature + the file's mtime/size (see ReadXpqChunkOp).
  std::optional<std::string> CacheSignature() const override;
  std::optional<std::string> CacheSourceTag() const override { return path_; }

 private:
  std::string path_;
  std::vector<std::string> parse_dates_;
  int64_t skip_rows_;
  int64_t max_rows_;
  /// Pushed-down row predicate, applied after parsing (CSV is row-major,
  /// so pushdown saves downstream work, not file bytes).
  ExprPtr filter_;  // may be null
};

/// Chunk kernel generating a random tensor block.
class RandomChunkOp : public ChunkOp {
 public:
  enum class Dist { kUniform, kNormal };
  RandomChunkOp(std::vector<int64_t> shape, uint64_t seed, Dist dist)
      : shape_(std::move(shape)), seed_(seed), dist_(dist) {}
  const char* type_name() const override { return "RandomChunk"; }
  Status Execute(ExecutionContext& ctx) const override;
  std::optional<std::string> CseSignature() const override;

 private:
  std::vector<int64_t> shape_;
  uint64_t seed_;
  Dist dist_;
};

/// Tileable source over an in-memory dataframe ("from_pandas").
class FromDataFrameOp : public TileableOp {
 public:
  explicit FromDataFrameOp(dataframe::DataFrame df) : df_(std::move(df)) {}
  const char* type_name() const override { return "FromDataFrame"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  const dataframe::DataFrame& frame() const { return df_; }

 private:
  dataframe::DataFrame df_;
};

/// Tileable source over an xparquet file. The optimizer installs the pruned
/// column set before tiling. Chunks are cut on row-group starts where the
/// groups are no larger than the chunks, so each chunk reads only its own
/// groups.
class ReadXpqOp : public TileableOp {
 public:
  explicit ReadXpqOp(std::string path) : path_(std::move(path)) {}
  const char* type_name() const override { return "ReadParquetFile"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  void SetPrunedColumns(std::vector<std::string> columns) {
    pruned_columns_ = std::move(columns);
  }
  const std::string& path() const { return path_; }
  const std::vector<std::string>& pruned_columns() const {
    return pruned_columns_;
  }
  void SetPushedFilter(ExprPtr filter) { pushed_filter_ = std::move(filter); }
  const ExprPtr& pushed_filter() const { return pushed_filter_; }

 private:
  std::string path_;
  std::vector<std::string> pruned_columns_;  // empty => all
  ExprPtr pushed_filter_;                    // predicate pushdown; may be null
};

/// Tileable source over a CSV file.
class ReadCsvOp : public TileableOp {
 public:
  ReadCsvOp(std::string path, std::vector<std::string> parse_dates)
      : path_(std::move(path)), parse_dates_(std::move(parse_dates)) {}
  const char* type_name() const override { return "ReadCsvFile"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  const std::string& path() const { return path_; }
  const std::vector<std::string>& parse_dates() const { return parse_dates_; }
  void SetPushedFilter(ExprPtr filter) { pushed_filter_ = std::move(filter); }
  const ExprPtr& pushed_filter() const { return pushed_filter_; }

 private:
  std::string path_;
  std::vector<std::string> parse_dates_;
  ExprPtr pushed_filter_;  // predicate pushdown; may be null
};

/// Tileable source over an in-memory tensor.
class FromNDArrayOp : public TileableOp {
 public:
  explicit FromNDArrayOp(tensor::NDArray array) : array_(std::move(array)) {}
  const char* type_name() const override { return "FromNDArray"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  const tensor::NDArray& array() const { return array_; }

 private:
  tensor::NDArray array_;
};

/// Writes one chunk to `<dir>/part-<index>.xpq`; outputs a one-row
/// manifest frame (path, rows).
class WriteXpqChunkOp : public ChunkOp {
 public:
  WriteXpqChunkOp(std::string dir, int64_t index)
      : dir_(std::move(dir)), index_(index) {}
  const char* type_name() const override { return "WriteParquet"; }
  Status Execute(ExecutionContext& ctx) const override;

 private:
  std::string dir_;
  int64_t index_;
};

/// Distributed parquet write: every chunk lands in its own file, in
/// parallel on the band that owns it; the output tileable is the manifest.
class WriteXpqOp : public TileableOp {
 public:
  explicit WriteXpqOp(std::string dir) : dir_(std::move(dir)) {}
  const char* type_name() const override { return "WriteParquetDir"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;

 private:
  std::string dir_;
};

/// Tileable random tensor (xorbits.numpy.random.*). Row-chunked; with
/// `force_tall_skinny`, tiling consults the auto-rechunk rule so downstream
/// QR receives valid block shapes without user rechunk calls.
class RandomTensorOp : public TileableOp {
 public:
  RandomTensorOp(std::vector<int64_t> shape, uint64_t seed,
                 RandomChunkOp::Dist dist)
      : shape_(std::move(shape)), seed_(seed), dist_(dist) {}
  const char* type_name() const override { return "RandomTensor"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  const std::vector<int64_t>& shape() const { return shape_; }

 private:
  std::vector<int64_t> shape_;
  uint64_t seed_;
  RandomChunkOp::Dist dist_;
};

}  // namespace xorbits::operators

#endif  // XORBITS_OPERATORS_SOURCE_OPS_H_
