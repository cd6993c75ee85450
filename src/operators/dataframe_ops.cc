#include "operators/dataframe_ops.h"

#include <algorithm>
#include <functional>

#include "dataframe/kernels.h"

namespace xorbits::operators {

using dataframe::DataFrame;
using graph::ChunkNode;
using graph::TileableNode;

// --- chunk kernels ---

Status EvalChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  DataFrame df = *in;
  for (const auto& a : assignments_) {
    // Defer the transform behind a lazy slot when possible; expressions the
    // probe rejects (or that would land on a filtered eager frame) fall
    // back to eager evaluation — correctness never depends on deferral.
    Result<dataframe::ColumnSourcePtr> src = MakeDeferredExprSource(df, a.expr);
    bool deferred = false;
    if (src.ok()) {
      deferred = df.SetColumnSource(a.name, src.MoveValue()).ok();
    }
    if (!deferred) {
      XORBITS_ASSIGN_OR_RETURN(dataframe::Column col, EvalExpr(df, *a.expr));
      XORBITS_RETURN_NOT_OK(df.SetColumn(a.name, std::move(col)));
    }
  }
  if (filter_) {
    // Evaluating the mask resolves only the predicate's columns; the filter
    // itself composes a pending selection — nothing else is touched.
    XORBITS_ASSIGN_OR_RETURN(dataframe::Column mask, EvalExpr(df, *filter_));
    XORBITS_ASSIGN_OR_RETURN(df, dataframe::FilterLate(df, mask));
  }
  if (!projection_.empty()) {
    // The projection list is validated against the full schema when the
    // graph is built; column pruning may since have narrowed what this
    // chunk's input delivers (a rename projects its whole schema, but only
    // the pruned subset arrives). Project what the optimized plan provides.
    std::vector<std::string> cols;
    for (const auto& c : projection_) {
      if (df.HasColumn(c)) cols.push_back(c);
    }
    XORBITS_ASSIGN_OR_RETURN(df, df.Select(cols));
  }
  ctx.outputs[0] = services::MakeChunk(std::move(df));
  return Status::OK();
}

std::optional<std::string> EvalChunkOp::CseSignature() const {
  std::string sig = "eval|";
  for (const auto& a : assignments_) {
    sig += a.name;
    sig += '=';
    sig += a.expr->ToString();
    sig += ';';
  }
  sig += '|';
  if (filter_ != nullptr) sig += filter_->ToString();
  sig += '|';
  for (const auto& c : projection_) {
    sig += c;
    sig += ',';
  }
  return sig;
}

Status SliceChunkOp::Execute(ExecutionContext& ctx) const {
  if (ctx.inputs[0]->is_ndarray()) {
    ctx.outputs[0] = services::MakeChunk(
        ctx.inputs[0]->ndarray().SliceRows(offset_, offset_ + count_));
    return Status::OK();
  }
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  ctx.outputs[0] = services::MakeChunk(in->SliceRows(offset_, count_));
  return Status::OK();
}

Status ConcatChunkOp::Execute(ExecutionContext& ctx) const {
  if (ctx.inputs.empty()) return Status::Invalid("Concat of no chunks");
  if (ctx.inputs[0]->is_ndarray()) {
    std::vector<const tensor::NDArray*> pieces;
    for (const auto& c : ctx.inputs) {
      XORBITS_ASSIGN_OR_RETURN(const tensor::NDArray* a,
                               services::AsNDArray(c));
      pieces.push_back(a);
    }
    XORBITS_ASSIGN_OR_RETURN(tensor::NDArray out, tensor::VStack(pieces));
    ctx.outputs[0] = services::MakeChunk(std::move(out));
    return Status::OK();
  }
  std::vector<const DataFrame*> pieces;
  for (const auto& c : ctx.inputs) {
    XORBITS_ASSIGN_OR_RETURN(const DataFrame* df, services::AsDataFrame(c));
    pieces.push_back(df);
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame out, dataframe::Concat(pieces));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

Status SortChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  XORBITS_ASSIGN_OR_RETURN(DataFrame out,
                           dataframe::SortValues(*in, by_, ascending_));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

Status DedupChunkOp::Execute(ExecutionContext& ctx) const {
  DataFrame merged;
  if (ctx.inputs.size() == 1) {
    XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                             services::AsDataFrame(ctx.inputs[0]));
    merged = *in;
  } else {
    std::vector<const DataFrame*> pieces;
    for (const auto& c : ctx.inputs) {
      XORBITS_ASSIGN_OR_RETURN(const DataFrame* df, services::AsDataFrame(c));
      pieces.push_back(df);
    }
    XORBITS_ASSIGN_OR_RETURN(merged, dataframe::Concat(pieces));
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame out,
                           dataframe::DropDuplicates(merged, subset_));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

Status QuantileBoundariesChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  XORBITS_ASSIGN_OR_RETURN(DataFrame keys, in->Select({key_}));
  XORBITS_ASSIGN_OR_RETURN(std::vector<int64_t> order,
                           dataframe::SortIndices(keys, {key_}, {ascending_}));
  const int64_t n = keys.num_rows();
  std::vector<int64_t> picks;
  for (int p = 1; p < partitions_ && n > 0; ++p) {
    picks.push_back(order[std::min<int64_t>(n - 1, p * n / partitions_)]);
  }
  DataFrame bounds = n == 0 ? keys.SliceRows(0, 0) : keys.TakeRows(picks);
  ctx.outputs[0] = services::MakeChunk(std::move(bounds));
  return Status::OK();
}

Status RangePartitionChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* bounds,
                           services::AsDataFrame(ctx.inputs[1]));
  XORBITS_ASSIGN_OR_RETURN(const dataframe::Column* key, in->GetColumn(key_));
  XORBITS_ASSIGN_OR_RETURN(const dataframe::Column* bcol,
                           bounds->GetColumn(key_));
  if (bcol->length() >= partitions_) {
    return Status::Invalid("RangePartition: " +
                           std::to_string(bcol->length()) +
                           " boundaries for " + std::to_string(partitions_) +
                           " partitions");
  }
  XORBITS_ASSIGN_OR_RETURN(
      std::vector<int32_t> ids,
      dataframe::RangePartitionIds(*key, *bcol, ascending_));
  std::vector<std::vector<int64_t>> part_rows(partitions_);
  for (int64_t i = 0; i < in->num_rows(); ++i) part_rows[ids[i]].push_back(i);
  for (int p = 0; p < partitions_; ++p) {
    XORBITS_RETURN_NOT_OK(ctx.EmitShufflePartition(
        p, services::MakeChunk(in->TakeRows(part_rows[p]))));
  }
  return Status::OK();
}

std::vector<std::string> SortMergeChunkOp::InputKeys(
    const graph::ChunkNode& node) const {
  std::vector<std::string> keys;
  for (const graph::ChunkNode* in : node.inputs) {
    keys.push_back(in->key + "@" + std::to_string(partition_));
  }
  return keys;
}

Status SortMergeChunkOp::Execute(ExecutionContext& ctx) const {
  std::vector<const DataFrame*> pieces;
  for (const auto& c : ctx.inputs) {
    XORBITS_ASSIGN_OR_RETURN(const DataFrame* df, services::AsDataFrame(c));
    pieces.push_back(df);
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame merged, dataframe::Concat(pieces));
  XORBITS_ASSIGN_OR_RETURN(DataFrame out,
                           dataframe::SortValues(merged, by_, ascending_));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

// --- helpers ---

std::vector<ChunkNode*> BuildTreeReduce(
    TileContext& ctx, std::vector<ChunkNode*> inputs, int64_t avg_chunk_bytes,
    const std::function<std::shared_ptr<ChunkOp>()>& make_op) {
  // Auto merge (§IV-C): concatenate partials until the merged chunk would
  // reach the chunk store limit.
  int64_t fan_in = 4;
  if (avg_chunk_bytes > 0) {
    fan_in = ctx.config().chunk_store_limit / avg_chunk_bytes;
  }
  fan_in = std::clamp<int64_t>(fan_in, 2, 16);
  std::vector<ChunkNode*> level = std::move(inputs);
  while (level.size() > 1) {
    std::vector<ChunkNode*> next;
    for (size_t i = 0; i < level.size(); i += fan_in) {
      std::vector<ChunkNode*> group(
          level.begin() + i,
          level.begin() + std::min(level.size(), i + fan_in));
      if (group.size() == 1 && level.size() > 1 && next.empty() &&
          i + fan_in >= level.size()) {
        // Lone trailing chunk: pass through to next level.
        next.push_back(group[0]);
        continue;
      }
      ChunkNode* combined =
          ctx.chunk_graph()->AddNode(make_op(), std::move(group));
      next.push_back(combined);
    }
    level = std::move(next);
  }
  return level;
}

// --- tileable ops ---

TileTask EvalOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  auto op = std::make_shared<EvalChunkOp>(assignments_, filter_, projection_);
  for (ChunkNode* in_chunk : in->chunks) {
    ChunkNode* chunk = ctx.chunk_graph()->AddNode(op, {in_chunk});
    SizeEstimate est = EstimateChunk(ctx, in_chunk);
    chunk->meta.chunk_row = static_cast<int64_t>(node->chunks.size());
    if (filter_) {
      // Output shape depends on data content (non-static operator).
      if (ctx.dynamic()) {
        chunk->meta.rows = -1;
        chunk->meta.nbytes = -1;
      } else {
        // Static planners assume the filter keeps everything — the
        // mis-estimation the paper's §IV-A calls out.
        chunk->meta.rows = est.rows;
        chunk->meta.nbytes = est.nbytes;
        chunk->meta.rows_exact = false;
      }
    } else {
      chunk->meta.rows = est.rows;
      chunk->meta.rows_exact = est.exact;
      chunk->meta.nbytes = est.nbytes;
    }
    node->chunks.push_back(chunk);
  }
  node->tiled = true;
  co_return Status::OK();
}

std::optional<std::vector<std::set<std::string>>> EvalOp::RequiredInputColumns(
    const graph::TileableNode& node,
    const std::set<std::string>& out_columns) const {
  std::set<std::string> need;
  for (const std::string& c : out_columns) {
    bool assigned = false;
    for (const auto& a : assignments_) {
      if (a.name == c) {
        a.expr->CollectColumns(&need);
        assigned = true;
        break;
      }
    }
    if (!assigned) need.insert(c);
  }
  if (filter_) filter_->CollectColumns(&need);
  return std::vector<std::set<std::string>>{std::move(need)};
}

namespace {

/// Shared head/iloc machinery: ensures the row counts of input chunks are
/// exactly known up to cumulative row `limit`, yielding chunks for
/// execution when the engine allows it. Returns per-chunk exact row counts
/// (-1 past the point of interest).
struct PrefixRows {
  std::vector<int64_t> rows;
  bool all_known = true;
};

TileTask GatherSliceFallback(TileContext& ctx, TileableNode* node,
                             int64_t offset, int64_t count) {
  // Static engines without partition sizes: gather everything to one chunk
  // and slice — the memory-hungry fallback.
  TileableNode* in = node->inputs[0];
  ChunkNode* concat =
      ctx.chunk_graph()->AddNode(std::make_shared<ConcatChunkOp>(),
                                 in->chunks);
  ChunkNode* slice = ctx.chunk_graph()->AddNode(
      std::make_shared<SliceChunkOp>(offset, count), {concat});
  slice->meta.rows = count;
  node->chunks.push_back(slice);
  node->tiled = true;
  co_return Status::OK();
}

}  // namespace

TileTask HeadOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  int64_t cum = 0;
  std::vector<ChunkNode*> out;
  for (ChunkNode* chunk : in->chunks) {
    if (cum >= n_) break;
    SizeEstimate est = EstimateChunk(ctx, chunk);
    if (!est.exact) {
      if (!ctx.dynamic()) {
        // Static planners cannot know filtered chunk sizes.
        TileTask fallback = GatherSliceFallback(ctx, node, 0, n_);
        while (fallback.Resume()) {
          co_yield std::move(fallback.pending().chunks);
        }
        co_return fallback.result();
      }
      // Iterative tiling: execute this chunk, then read its real shape.
      ctx.metrics()->Add(CounterId::kDynamicYields);
      std::vector<ChunkNode*> to_run{chunk};
      co_yield to_run;
      est = EstimateChunk(ctx, chunk);
      if (!est.exact) co_return Status::ExecutionError("head: no meta");
    }
    if (cum + est.rows <= n_) {
      out.push_back(chunk);
      cum += est.rows;
    } else {
      ChunkNode* slice = ctx.chunk_graph()->AddNode(
          std::make_shared<SliceChunkOp>(0, n_ - cum), {chunk});
      slice->meta.rows = n_ - cum;
      slice->meta.rows_exact = true;
      out.push_back(slice);
      cum = n_;
    }
  }
  if (out.empty()) {
    // Head of an empty frame: slice chunk 0 to zero rows.
    ChunkNode* slice = ctx.chunk_graph()->AddNode(
        std::make_shared<SliceChunkOp>(0, 0), {in->chunks[0]});
    out.push_back(slice);
  }
  for (size_t i = 0; i < out.size(); ++i) out[i]->meta.chunk_row = i;
  node->chunks = std::move(out);
  node->tiled = true;
  co_return Status::OK();
}

TileTask ILocOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  if (pos_ < 0) {
    co_return Status::NotImplemented("iloc with negative positions");
  }
  int64_t cum = 0;
  for (ChunkNode* chunk : in->chunks) {
    SizeEstimate est = EstimateChunk(ctx, chunk);
    if (!est.exact) {
      if (!ctx.dynamic()) {
        if (ctx.config().engine == EngineKind::kDaskLike) {
          // Listing 1 of the paper: Dask fails on positional indexing over
          // unknown divisions.
          co_return Status::NotImplemented(
              "iloc on a frame with unknown partition sizes");
        }
        TileTask fallback = GatherSliceFallback(ctx, node, pos_, 1);
        while (fallback.Resume()) {
          co_yield std::move(fallback.pending().chunks);
        }
        co_return fallback.result();
      }
      ctx.metrics()->Add(CounterId::kDynamicYields);
      std::vector<ChunkNode*> to_run{chunk};
      co_yield to_run;
      est = EstimateChunk(ctx, chunk);
      if (!est.exact) co_return Status::ExecutionError("iloc: no meta");
    }
    if (pos_ < cum + est.rows) {
      // Fig. 3(c): append an ILoc (slice) operator to the owning chunk only.
      ChunkNode* slice = ctx.chunk_graph()->AddNode(
          std::make_shared<SliceChunkOp>(pos_ - cum, 1), {chunk});
      slice->meta.rows = 1;
      slice->meta.rows_exact = true;
      node->chunks.push_back(slice);
      node->tiled = true;
      co_return Status::OK();
    }
    cum += est.rows;
  }
  co_return Status::IndexError("iloc position " + std::to_string(pos_) +
                               " out of bounds for " + std::to_string(cum) +
                               " rows");
}

TileTask ConcatOp::Tile(TileContext& ctx, TileableNode* node) {
  for (TileableNode* in : node->inputs) {
    for (ChunkNode* chunk : in->chunks) {
      node->chunks.push_back(chunk);
      // Re-number positions in the concatenated frame.
      node->chunks.back()->meta.chunk_row =
          static_cast<int64_t>(node->chunks.size()) - 1;
    }
  }
  node->tiled = true;
  co_return Status::OK();
}

TileTask SortValuesOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  std::vector<ChunkNode*> chunks = in->chunks;
  SizeEstimate est = EstimateChunks(ctx, chunks);
  if (ctx.dynamic() && est.nbytes < 0 && !chunks.empty()) {
    ctx.metrics()->Add(CounterId::kDynamicYields);
    std::vector<ChunkNode*> to_run{chunks[0]};
    co_yield to_run;
    est = EstimateChunks(ctx, chunks);
  }
  const bool small =
      est.nbytes >= 0 && est.nbytes <= ctx.config().chunk_store_limit;
  if (small || chunks.size() <= 1 || !ctx.dynamic()) {
    ChunkNode* gathered = chunks.size() == 1
                              ? chunks[0]
                              : ctx.chunk_graph()->AddNode(
                                    std::make_shared<ConcatChunkOp>(), chunks);
    ChunkNode* sorted = ctx.chunk_graph()->AddNode(
        std::make_shared<SortChunkOp>(by_, ascending_), {gathered});
    sorted->meta.rows = est.rows;
    node->chunks.push_back(sorted);
    node->tiled = true;
    co_return Status::OK();
  }
  // Sample-based range partition sort.
  const int partitions = static_cast<int>(
      ChooseChunkCount(ctx.config(), est.nbytes));
  ChunkNode* bounds = ctx.chunk_graph()->AddNode(
      std::make_shared<QuantileBoundariesChunkOp>(by_[0], partitions,
                                                  ascending_[0]),
      {chunks[0]});
  std::vector<ChunkNode*> mappers;
  auto part_op = std::make_shared<RangePartitionChunkOp>(by_[0], partitions,
                                                         ascending_[0]);
  for (ChunkNode* chunk : chunks) {
    mappers.push_back(ctx.chunk_graph()->AddNode(part_op, {chunk, bounds}));
  }
  for (int p = 0; p < partitions; ++p) {
    ChunkNode* merged = ctx.chunk_graph()->AddNode(
        std::make_shared<SortMergeChunkOp>(p, by_, ascending_), mappers);
    merged->meta.chunk_row = p;
    node->chunks.push_back(merged);
  }
  node->tiled = true;
  co_return Status::OK();
}

TileTask DropDuplicatesOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  auto subset = subset_;
  std::vector<ChunkNode*> partials;
  for (ChunkNode* chunk : in->chunks) {
    partials.push_back(ctx.chunk_graph()->AddNode(
        std::make_shared<DedupChunkOp>(subset), {chunk}));
  }
  int64_t avg_bytes = -1;
  if (ctx.dynamic() && !partials.empty()) {
    // Auto reduce selection needs the deduplicated size, not the raw size;
    // executing the head chunk measures it.
    ctx.metrics()->Add(CounterId::kDynamicYields);
    std::vector<ChunkNode*> sample{partials.front()};
    co_yield sample;
    SizeEstimate est = EstimateChunk(ctx, partials[0]);
    avg_bytes = est.nbytes;
  }
  std::vector<ChunkNode*> reduced = BuildTreeReduce(
      ctx, std::move(partials), avg_bytes,
      [&subset] { return std::make_shared<DedupChunkOp>(subset); });
  node->chunks = std::move(reduced);
  node->tiled = true;
  co_return Status::OK();
}

std::optional<std::vector<std::set<std::string>>>
DropDuplicatesOp::RequiredInputColumns(
    const graph::TileableNode& node,
    const std::set<std::string>& out_columns) const {
  std::set<std::string> need = out_columns;
  for (const auto& c : subset_) need.insert(c);
  return std::vector<std::set<std::string>>{std::move(need)};
}

}  // namespace xorbits::operators
