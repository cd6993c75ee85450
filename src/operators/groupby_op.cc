#include "operators/groupby_op.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "dataframe/kernels.h"
#include "dataframe/key_hash.h"
#include "operators/dataframe_ops.h"

namespace xorbits::operators {

using dataframe::AggSpec;
using dataframe::DataFrame;
using graph::ChunkNode;
using graph::TileableNode;

Status GroupByMapChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  XORBITS_ASSIGN_OR_RETURN(
      DataFrame out,
      dataframe::GroupByAgg(*in, keys_, specs_, /*sort_keys=*/false));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

namespace {
Result<DataFrame> ConcatInputs(const ExecutionContext& ctx) {
  if (ctx.inputs.size() == 1) {
    XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                             services::AsDataFrame(ctx.inputs[0]));
    return *in;
  }
  std::vector<const DataFrame*> pieces;
  for (const auto& c : ctx.inputs) {
    XORBITS_ASSIGN_OR_RETURN(const DataFrame* df, services::AsDataFrame(c));
    pieces.push_back(df);
  }
  return dataframe::Concat(pieces);
}
}  // namespace

Status GroupByCombineChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(DataFrame merged, ConcatInputs(ctx));
  XORBITS_ASSIGN_OR_RETURN(
      DataFrame out,
      dataframe::GroupByAgg(merged, keys_, specs_, /*sort_keys=*/false));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

Status GroupByFinalizeChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  XORBITS_ASSIGN_OR_RETURN(DataFrame out,
                           dataframe::FinalizeAgg(*in, keys_, specs_));
  // Groups sorted by key, matching the pandas default.
  XORBITS_ASSIGN_OR_RETURN(
      out, dataframe::SortValues(out, keys_,
                                 std::vector<bool>(keys_.size(), true)));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

Status HashPartitionChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* in,
                           services::AsDataFrame(ctx.inputs[0]));
  std::vector<const dataframe::Column*> key_cols;
  for (const auto& k : keys_) {
    XORBITS_ASSIGN_OR_RETURN(const dataframe::Column* c, in->GetColumn(k));
    key_cols.push_back(c);
  }
  const int64_t n = in->num_rows();
  // Typed value hash — no per-row key-bytes string. The hash is a pure
  // function of the key values (encoding-invariant), so partition routing
  // is identical whether the key columns arrive plain or dict-encoded.
  // Hash the whole chunk, then count and scatter: each partition gets its
  // rows in row order, in one exactly-sized allocation.
  const dataframe::RowHasher hasher(key_cols);
  std::vector<uint64_t> part(n);
  ParallelFor(0, n, 16384, [&](int64_t lo, int64_t hi) {
    hasher.HashRange(lo, hi, part.data() + lo);
    for (int64_t i = lo; i < hi; ++i) part[i] %= partitions_;
  });
  std::vector<int64_t> counts(partitions_, 0);
  for (int64_t i = 0; i < n; ++i) counts[part[i]]++;
  std::vector<std::vector<int64_t>> part_rows(partitions_);
  for (int p = 0; p < partitions_; ++p) part_rows[p].reserve(counts[p]);
  for (int64_t i = 0; i < n; ++i) part_rows[part[i]].push_back(i);
  for (int p = 0; p < partitions_; ++p) {
    XORBITS_RETURN_NOT_OK(ctx.EmitShufflePartition(
        p, services::MakeChunk(in->TakeRows(part_rows[p]))));
  }
  return Status::OK();
}

std::vector<std::string> GroupByShuffleReduceChunkOp::InputKeys(
    const graph::ChunkNode& node) const {
  std::vector<std::string> keys;
  for (const graph::ChunkNode* in : node.inputs) {
    keys.push_back(in->key + "@" + std::to_string(partition_));
  }
  return keys;
}

Status GroupByShuffleReduceChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(DataFrame merged, ConcatInputs(ctx));
  if (decomposed_) {
    XORBITS_ASSIGN_OR_RETURN(auto plan, dataframe::DecomposeAggs(user_specs_));
    XORBITS_ASSIGN_OR_RETURN(
        DataFrame combined,
        dataframe::GroupByAgg(merged, keys_, plan.combine_specs));
    XORBITS_ASSIGN_OR_RETURN(
        DataFrame out, dataframe::FinalizeAgg(combined, keys_, user_specs_));
    ctx.outputs[0] = services::MakeChunk(std::move(out));
    return Status::OK();
  }
  XORBITS_ASSIGN_OR_RETURN(DataFrame out,
                           dataframe::GroupByAgg(merged, keys_, user_specs_));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

TileTask GroupByAggOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* in = node->inputs[0];
  const std::vector<ChunkNode*>& raw_chunks = in->chunks;
  const bool decomposable = dataframe::IsDecomposable(specs_);

  // Non-decomposable aggregations (nunique): shuffle raw rows so each
  // reducer owns complete groups.
  if (!decomposable) {
    SizeEstimate raw_est = EstimateChunks(ctx, raw_chunks);
    if (ctx.dynamic() && raw_est.nbytes < 0 && !raw_chunks.empty()) {
      ctx.metrics()->Add(CounterId::kDynamicYields);
      std::vector<ChunkNode*> to_run{raw_chunks[0]};
      co_yield to_run;
      raw_est = EstimateChunks(ctx, raw_chunks);
    }
    const int partitions =
        static_cast<int>(ChooseChunkCount(ctx.config(), raw_est.nbytes));
    auto part_op = std::make_shared<HashPartitionChunkOp>(keys_, partitions);
    std::vector<ChunkNode*> mappers;
    for (ChunkNode* chunk : raw_chunks) {
      mappers.push_back(ctx.chunk_graph()->AddNode(part_op, {chunk}));
    }
    for (int p = 0; p < partitions; ++p) {
      ChunkNode* red = ctx.chunk_graph()->AddNode(
          std::make_shared<GroupByShuffleReduceChunkOp>(
              p, keys_, specs_, /*decomposed=*/false),
          mappers);
      red->meta.chunk_row = p;
      node->chunks.push_back(red);
    }
    node->tiled = true;
    co_return Status::OK();
  }

  auto plan_r = dataframe::DecomposeAggs(specs_);
  if (!plan_r.ok()) co_return plan_r.status();
  const dataframe::DecomposedAgg& plan = *plan_r;

  // Map stage over every raw chunk.
  auto map_op = std::make_shared<GroupByMapChunkOp>(keys_, plan.map_specs);
  std::vector<ChunkNode*> map_nodes;
  for (ChunkNode* chunk : raw_chunks) {
    ChunkNode* m = ctx.chunk_graph()->AddNode(map_op, {chunk});
    map_nodes.push_back(m);
  }

  // Auto reduce selection (Fig. 6(a)): run the head map chunk, compare
  // aggregated size against the raw input, then decide.
  ReducePolicy policy = ctx.config().reduce_policy;
  int64_t avg_partial_bytes = -1;
  int64_t est_total_agg = -1;
  if (policy == ReducePolicy::kAuto) {
    if (ctx.dynamic() && !map_nodes.empty()) {
      ctx.metrics()->Add(CounterId::kDynamicYields);
      std::vector<ChunkNode*> sample{map_nodes.front()};
      co_yield sample;
      SizeEstimate agg_est = EstimateChunks(ctx, map_nodes);
      avg_partial_bytes =
          agg_est.nbytes >= 0
              ? agg_est.nbytes / static_cast<int64_t>(map_nodes.size())
              : -1;
      est_total_agg = agg_est.nbytes;
      policy = (est_total_agg >= 0 &&
                est_total_agg <= ctx.config().chunk_store_limit)
                   ? ReducePolicy::kTree
                   : ReducePolicy::kShuffle;
    } else {
      // Static engines cannot sample; fall back to shuffle.
      policy = ReducePolicy::kShuffle;
    }
  }

  if (policy == ReducePolicy::kTree) {
    std::vector<ChunkNode*> reduced = BuildTreeReduce(
        ctx, map_nodes, avg_partial_bytes, [this, &plan] {
          return std::make_shared<GroupByCombineChunkOp>(keys_,
                                                         plan.combine_specs);
        });
    ChunkNode* final_node = ctx.chunk_graph()->AddNode(
        std::make_shared<GroupByFinalizeChunkOp>(keys_, specs_),
        {reduced[0]});
    node->chunks.push_back(final_node);
  } else {
    // Shuffle-reduce over map partials.
    int64_t size_hint = est_total_agg;
    if (size_hint < 0) size_hint = EstimateChunks(ctx, raw_chunks).nbytes;
    const int partitions =
        static_cast<int>(ChooseChunkCount(ctx.config(), size_hint));
    auto part_op = std::make_shared<HashPartitionChunkOp>(keys_, partitions);
    std::vector<ChunkNode*> mappers;
    for (ChunkNode* m : map_nodes) {
      mappers.push_back(ctx.chunk_graph()->AddNode(part_op, {m}));
    }
    for (int p = 0; p < partitions; ++p) {
      ChunkNode* red = ctx.chunk_graph()->AddNode(
          std::make_shared<GroupByShuffleReduceChunkOp>(
              p, keys_, specs_, /*decomposed=*/true),
          mappers);
      red->meta.chunk_row = p;
      if (!ctx.dynamic() && size_hint >= 0) {
        // Static planning: aggregation outputs inherit the input scale (no
        // runtime metadata says the data shrank after aggregating).
        red->meta.nbytes = size_hint / partitions;
      }
      node->chunks.push_back(red);
    }
  }
  node->tiled = true;
  co_return Status::OK();
}

std::optional<std::vector<std::set<std::string>>>
GroupByAggOp::RequiredInputColumns(
    const graph::TileableNode& node,
    const std::set<std::string>& out_columns) const {
  std::set<std::string> need(keys_.begin(), keys_.end());
  for (const auto& s : specs_) {
    if (!s.input.empty()) need.insert(s.input);
  }
  return std::vector<std::set<std::string>>{std::move(need)};
}

}  // namespace xorbits::operators
