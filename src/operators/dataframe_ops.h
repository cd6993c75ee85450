#ifndef XORBITS_OPERATORS_DATAFRAME_OPS_H_
#define XORBITS_OPERATORS_DATAFRAME_OPS_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataframe/kernels.h"
#include "operators/expr.h"
#include "operators/operator.h"

namespace xorbits::operators {

/// One named column assignment: output column = expression over the chunk.
struct Assignment {
  std::string name;
  ExprPtr expr;
};

/// Elementwise chunk kernel: applies assignments, then an optional filter
/// predicate, then an optional projection — one fused pass. Operator-level
/// fusion merges chains of Eval/Filter/Projection chunk ops into a single
/// instance of this class (the numexpr analogue). The output is lazy
/// (DESIGN.md §10): assignments become deferred ExprSources and the filter
/// composes a pending selection instead of compacting.
class EvalChunkOp : public ChunkOp {
 public:
  EvalChunkOp(std::vector<Assignment> assignments, ExprPtr filter,
              std::vector<std::string> projection)
      : assignments_(std::move(assignments)),
        filter_(std::move(filter)),
        projection_(std::move(projection)) {}
  const char* type_name() const override { return "Eval"; }
  Status Execute(ExecutionContext& ctx) const override;

  const std::vector<Assignment>& assignments() const { return assignments_; }
  const ExprPtr& filter() const { return filter_; }
  const std::vector<std::string>& projection() const { return projection_; }
  std::optional<std::string> CseSignature() const override;

 private:
  std::vector<Assignment> assignments_;
  ExprPtr filter_;  // may be null
  std::vector<std::string> projection_;  // empty => keep all
};

/// Contiguous row slice of a chunk.
class SliceChunkOp : public ChunkOp {
 public:
  SliceChunkOp(int64_t offset, int64_t count)
      : offset_(offset), count_(count) {}
  const char* type_name() const override { return "Slice"; }
  Status Execute(ExecutionContext& ctx) const override;
  std::optional<std::string> CseSignature() const override {
    return "slice|" + std::to_string(offset_) + "|" + std::to_string(count_);
  }

 private:
  int64_t offset_;
  int64_t count_;
};

/// Concatenates all input chunks (dataframes by column name, tensors by
/// rows). The materialization point of the paper's auto-merge mechanism.
class ConcatChunkOp : public ChunkOp {
 public:
  const char* type_name() const override { return "Concat"; }
  Status Execute(ExecutionContext& ctx) const override;
  std::optional<std::string> CseSignature() const override {
    return "concat";
  }
};

/// Whole-chunk sort.
class SortChunkOp : public ChunkOp {
 public:
  SortChunkOp(std::vector<std::string> by, std::vector<bool> ascending)
      : by_(std::move(by)), ascending_(std::move(ascending)) {}
  const char* type_name() const override { return "Sort"; }
  Status Execute(ExecutionContext& ctx) const override;
  std::optional<std::string> CseSignature() const override {
    std::string sig = "sort|";
    for (const auto& k : by_) {
      sig += k;
      sig += ',';
    }
    sig += '|';
    for (bool a : ascending_) sig += a ? '1' : '0';
    return sig;
  }

 private:
  std::vector<std::string> by_;
  std::vector<bool> ascending_;
};

/// Per-chunk duplicate removal (map side of distributed drop_duplicates);
/// with multiple inputs it concatenates first (combine side).
class DedupChunkOp : public ChunkOp {
 public:
  explicit DedupChunkOp(std::vector<std::string> subset)
      : subset_(std::move(subset)) {}
  const char* type_name() const override { return "DropDuplicates"; }
  Status Execute(ExecutionContext& ctx) const override;
  std::optional<std::string> CseSignature() const override {
    std::string sig = "dedup|";
    for (const auto& k : subset_) {
      sig += k;
      sig += ',';
    }
    return sig;
  }

 private:
  std::vector<std::string> subset_;
};

/// Extracts sort-boundary values (quantiles of the first sort key) from a
/// sample chunk; feeds RangePartitionChunkOp.
class QuantileBoundariesChunkOp : public ChunkOp {
 public:
  QuantileBoundariesChunkOp(std::string key, int partitions, bool ascending)
      : key_(std::move(key)), partitions_(partitions), ascending_(ascending) {}
  const char* type_name() const override { return "SortSample"; }
  Status Execute(ExecutionContext& ctx) const override;

 private:
  std::string key_;
  int partitions_;
  bool ascending_;
};

/// Shuffle map for distributed sort: routes rows to range partitions by the
/// first sort key (ties always share a partition, keeping output stable).
class RangePartitionChunkOp : public ChunkOp {
 public:
  RangePartitionChunkOp(std::string key, int partitions, bool ascending)
      : key_(std::move(key)), partitions_(partitions), ascending_(ascending) {}
  const char* type_name() const override { return "RangePartition"; }
  bool fusible() const override { return false; }
  bool is_shuffle_map() const override { return true; }
  Status Execute(ExecutionContext& ctx) const override;

 private:
  std::string key_;
  int partitions_;
  bool ascending_;
};

/// Shuffle reduce for distributed sort: gathers one range from every
/// mapper, concatenates and sorts it. Inputs 1..n are mappers; input 0 may
/// be the boundaries chunk (ignored here).
class SortMergeChunkOp : public ChunkOp {
 public:
  SortMergeChunkOp(int partition, std::vector<std::string> by,
                   std::vector<bool> ascending)
      : partition_(partition), by_(std::move(by)),
        ascending_(std::move(ascending)) {}
  const char* type_name() const override { return "SortMerge"; }
  std::vector<std::string> InputKeys(
      const graph::ChunkNode& node) const override;
  Status Execute(ExecutionContext& ctx) const override;

 private:
  int partition_;
  std::vector<std::string> by_;
  std::vector<bool> ascending_;
};

// --- tileable ops ---

/// Elementwise tileable op (assignments / filter / projection); tiles 1:1
/// over the input's chunks.
class EvalOp : public TileableOp {
 public:
  EvalOp(std::vector<Assignment> assignments, ExprPtr filter,
         std::vector<std::string> projection)
      : assignments_(std::move(assignments)),
        filter_(std::move(filter)),
        projection_(std::move(projection)) {}
  const char* type_name() const override {
    return filter_ ? "Filter" : "Eval";
  }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  std::optional<std::vector<std::set<std::string>>> RequiredInputColumns(
      const graph::TileableNode& node,
      const std::set<std::string>& out_columns) const override;
  bool has_filter() const { return filter_ != nullptr; }
  const std::vector<Assignment>& assignments() const { return assignments_; }
  const ExprPtr& filter() const { return filter_; }
  const std::vector<std::string>& projection() const { return projection_; }

 private:
  std::vector<Assignment> assignments_;
  ExprPtr filter_;
  std::vector<std::string> projection_;
};

/// df.head(n): needs chunk row counts; unknown sizes trigger dynamic
/// yields (iterative tiling, §IV-B) or engine-specific fallbacks.
class HeadOp : public TileableOp {
 public:
  explicit HeadOp(int64_t n) : n_(n) {}
  const char* type_name() const override { return "Head"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;

 private:
  int64_t n_;
};

/// df.iloc[pos]: single positional row. The paper's running example — after
/// a filter, the owning chunk is unknowable without execution metadata
/// (Fig. 3(c)); Dask-like static engines reject it outright (Listing 1).
class ILocOp : public TileableOp {
 public:
  explicit ILocOp(int64_t pos) : pos_(pos) {}
  const char* type_name() const override { return "ILoc"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;

 private:
  int64_t pos_;
};

/// Row-wise concatenation of multiple tileables.
class ConcatOp : public TileableOp {
 public:
  const char* type_name() const override { return "ConcatFrames"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
};

/// df.sort_values: gathers when the data is small (or the engine is
/// static), otherwise sample-based range-partition sort.
class SortValuesOp : public TileableOp {
 public:
  SortValuesOp(std::vector<std::string> by, std::vector<bool> ascending)
      : by_(std::move(by)), ascending_(std::move(ascending)) {
    if (ascending_.empty()) ascending_.assign(by_.size(), true);
  }
  const char* type_name() const override { return "SortValues"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;

 private:
  std::vector<std::string> by_;
  std::vector<bool> ascending_;
};

/// df.drop_duplicates with map + tree-combine stages.
class DropDuplicatesOp : public TileableOp {
 public:
  explicit DropDuplicatesOp(std::vector<std::string> subset)
      : subset_(std::move(subset)) {}
  const char* type_name() const override { return "DropDuplicatesOp"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  std::optional<std::vector<std::set<std::string>>> RequiredInputColumns(
      const graph::TileableNode& node,
      const std::set<std::string>& out_columns) const override;

 private:
  std::vector<std::string> subset_;
};

/// Builds a tree reduction over `inputs` with fan-in derived from chunk
/// sizes (the paper's auto-merge: concatenate until the configured chunk
/// limit). `make_op` creates the combine chunk op for each tree level.
std::vector<graph::ChunkNode*> BuildTreeReduce(
    TileContext& ctx, std::vector<graph::ChunkNode*> inputs,
    int64_t avg_chunk_bytes,
    const std::function<std::shared_ptr<ChunkOp>()>& make_op);

}  // namespace xorbits::operators

#endif  // XORBITS_OPERATORS_DATAFRAME_OPS_H_
