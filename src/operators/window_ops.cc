#include "operators/window_ops.h"

#include "dataframe/compute.h"
#include "dataframe/kernels.h"
#include "operators/dataframe_ops.h"

namespace xorbits::operators {

using dataframe::Column;
using dataframe::DataFrame;
using graph::ChunkNode;
using graph::TileableNode;

Status PivotReshapeChunkOp::Execute(ExecutionContext& ctx) const {
  std::vector<const DataFrame*> pieces;
  for (const auto& c : ctx.inputs) {
    XORBITS_ASSIGN_OR_RETURN(const DataFrame* df, services::AsDataFrame(c));
    pieces.push_back(df);
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame merged, dataframe::Concat(pieces));
  XORBITS_ASSIGN_OR_RETURN(
      DataFrame out, dataframe::SpreadToWide(merged, index_, columns_,
                                             value_));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

Status LocalCumSumChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  XORBITS_ASSIGN_OR_RETURN(const Column* col, in->GetColumn(column_));
  XORBITS_ASSIGN_OR_RETURN(Column scanned, dataframe::CumSumCol(*col));
  // The chunk's total is the last scanned value (0 for empty chunks).
  dataframe::Scalar total =
      scanned.length() > 0 && scanned.IsValid(scanned.length() - 1)
          ? scanned.GetScalar(scanned.length() - 1)
          : dataframe::Scalar::Float(0.0);
  DataFrame out = *in;
  XORBITS_RETURN_NOT_OK(out.SetColumn(output_, std::move(scanned)));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  DataFrame total_df;
  XORBITS_RETURN_NOT_OK(total_df.SetColumn(
      "__total__", Column::Full(dataframe::DType::kFloat64, 1,
                                dataframe::Scalar::Float(
                                    total.is_null() ? 0.0
                                                    : total.AsDouble()))));
  ctx.outputs[1] = services::MakeChunk(std::move(total_df));
  return Status::OK();
}

Status AddPrefixChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  double prefix = 0.0;
  for (size_t i = 1; i < ctx.inputs.size(); ++i) {
    XORBITS_ASSIGN_OR_RETURN(const DataFrame* t,
                             services::AsDataFrame(ctx.inputs[i]));
    if (t->num_rows() > 0 && t->column(0).IsValid(0)) {
      prefix += t->column(0).GetDouble(0);
    }
  }
  XORBITS_ASSIGN_OR_RETURN(const Column* col, in->GetColumn(output_));
  // Keep the scan's dtype (pandas cumsum preserves integer columns).
  const dataframe::Scalar shift =
      col->dtype() == dataframe::DType::kInt64
          ? dataframe::Scalar::Int(static_cast<int64_t>(prefix))
          : dataframe::Scalar::Float(prefix);
  XORBITS_ASSIGN_OR_RETURN(
      Column shifted,
      dataframe::BinaryOpScalar(*col, shift, dataframe::BinOp::kAdd));
  DataFrame out = *in;
  XORBITS_RETURN_NOT_OK(out.SetColumn(output_, std::move(shifted)));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

Status RollingMeanChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  XORBITS_ASSIGN_OR_RETURN(const Column* col, in->GetColumn(column_));
  Column data = *col;
  int64_t carry_rows = 0;
  if (has_carry_) {
    // Inputs 1..n are carry slices, oldest first.
    std::vector<const Column*> pieces;
    std::vector<Column> owned;
    owned.reserve(ctx.inputs.size());
    for (size_t i = 1; i < ctx.inputs.size(); ++i) {
      XORBITS_ASSIGN_OR_RETURN(const DataFrame* carry,
                               services::AsDataFrame(ctx.inputs[i]));
      XORBITS_ASSIGN_OR_RETURN(const Column* carry_col,
                               carry->GetColumn(column_));
      owned.push_back(*carry_col);
    }
    for (const Column& c : owned) {
      pieces.push_back(&c);
      carry_rows += c.length();
    }
    pieces.push_back(col);
    XORBITS_ASSIGN_OR_RETURN(data, Column::Concat(pieces));
  }
  XORBITS_ASSIGN_OR_RETURN(Column rolled,
                           dataframe::RollingMeanCol(data, window_));
  if (carry_rows > 0) {
    rolled = rolled.Slice(carry_rows, rolled.length() - carry_rows);
  }
  DataFrame out = *in;
  XORBITS_RETURN_NOT_OK(out.SetColumn(output_, std::move(rolled)));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

TileTask PivotReshapeOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  ChunkNode* wide = ctx.chunk_graph()->AddNode(
      std::make_shared<PivotReshapeChunkOp>(index_, columns_, value_),
      in->chunks);
  node->chunks.push_back(wide);
  node->tiled = true;
  co_return Status::OK();
}

TileTask CumSumOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  auto local_op = std::make_shared<LocalCumSumChunkOp>(column_, output_);
  std::vector<ChunkNode*> locals, totals;
  for (ChunkNode* chunk : in->chunks) {
    ChunkNode* scanned = ctx.chunk_graph()->AddNode(local_op, {chunk}, 0);
    ChunkNode* total = ctx.chunk_graph()->AddNode(local_op, {chunk}, 1);
    scanned->meta = chunk->meta;
    total->meta.rows = 1;
    total->meta.rows_exact = true;
    locals.push_back(scanned);
    totals.push_back(total);
  }
  auto prefix_op = std::make_shared<AddPrefixChunkOp>(output_);
  for (size_t i = 0; i < locals.size(); ++i) {
    if (i == 0) {
      node->chunks.push_back(locals[0]);
      continue;
    }
    std::vector<ChunkNode*> inputs{locals[i]};
    inputs.insert(inputs.end(), totals.begin(), totals.begin() + i);
    ChunkNode* shifted = ctx.chunk_graph()->AddNode(prefix_op, inputs);
    shifted->meta = locals[i]->meta;
    shifted->meta.chunk_row = static_cast<int64_t>(i);
    node->chunks.push_back(shifted);
  }
  node->tiled = true;
  co_return Status::OK();
}

TileTask RollingMeanOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  std::vector<ChunkNode*> chunks = in->chunks;
  // Boundary carries need exact row counts on every predecessor chunk.
  bool all_exact = true;
  for (ChunkNode* c : chunks) {
    if (!EstimateChunk(ctx, c).exact) all_exact = false;
  }
  if (!all_exact) {
    if (!ctx.dynamic()) {
      // Static fallback: gather and window in one piece.
      ChunkNode* gathered = ctx.chunk_graph()->AddNode(
          std::make_shared<ConcatChunkOp>(), chunks);
      ChunkNode* rolled = ctx.chunk_graph()->AddNode(
          std::make_shared<RollingMeanChunkOp>(column_, output_, window_,
                                               /*has_carry=*/false),
          {gathered});
      node->chunks.push_back(rolled);
      node->tiled = true;
      co_return Status::OK();
    }
    ctx.metrics()->Add(CounterId::kDynamicYields);
    co_yield chunks;
  }
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (i == 0) {
      ChunkNode* rolled = ctx.chunk_graph()->AddNode(
          std::make_shared<RollingMeanChunkOp>(column_, output_, window_,
                                               false),
          {chunks[0]});
      rolled->meta = chunks[0]->meta;
      node->chunks.push_back(rolled);
      continue;
    }
    // Collect window-1 carry rows, walking back through as many
    // predecessor chunks as necessary (small chunks may not cover the
    // window on their own).
    std::vector<ChunkNode*> carries;  // newest first while collecting
    int64_t still_needed = window_ - 1;
    for (int64_t j = static_cast<int64_t>(i) - 1;
         j >= 0 && still_needed > 0; --j) {
      SizeEstimate prev = EstimateChunk(ctx, chunks[j]);
      if (prev.rows < 0) co_return Status::ExecutionError("rolling: no meta");
      const int64_t take = std::min<int64_t>(still_needed, prev.rows);
      if (take > 0) {
        carries.push_back(ctx.chunk_graph()->AddNode(
            std::make_shared<SliceChunkOp>(prev.rows - take, take),
            {chunks[j]}));
      }
      still_needed -= take;
    }
    std::vector<ChunkNode*> inputs{chunks[i]};
    inputs.insert(inputs.end(), carries.rbegin(), carries.rend());
    ChunkNode* rolled = ctx.chunk_graph()->AddNode(
        std::make_shared<RollingMeanChunkOp>(column_, output_, window_,
                                             /*has_carry=*/true),
        inputs);
    rolled->meta = chunks[i]->meta;
    rolled->meta.chunk_row = static_cast<int64_t>(i);
    node->chunks.push_back(rolled);
  }
  node->tiled = true;
  co_return Status::OK();
}

}  // namespace xorbits::operators
