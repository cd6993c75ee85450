#include "operators/merge_op.h"

#include <algorithm>

#include "dataframe/kernels.h"
#include "operators/dataframe_ops.h"
#include "operators/groupby_op.h"

namespace xorbits::operators {

using dataframe::DataFrame;
using dataframe::JoinType;
using dataframe::MergeOptions;
using graph::ChunkNode;
using graph::TileableNode;

Status MergeChunkOp::Execute(ExecutionContext& ctx) const {
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* left,
                           services::AsDataFrame(ctx.inputs[0]));
  XORBITS_ASSIGN_OR_RETURN(const DataFrame* right,
                           services::AsDataFrame(ctx.inputs[1]));
  XORBITS_ASSIGN_OR_RETURN(dataframe::JoinKeys keys,
                           dataframe::ResolveJoinKeys(options_));
  XORBITS_ASSIGN_OR_RETURN(
      dataframe::JoinKeyMode mode,
      dataframe::ChooseJoinKeyMode(*left, keys.left, *right, keys.right));
  // Every probe chunk of a broadcast join shares the right payload, and
  // with it one table (DESIGN.md §7).
  XORBITS_ASSIGN_OR_RETURN(auto table,
                           ctx.inputs[1]->JoinTableOn(keys.right, mode));
  XORBITS_ASSIGN_OR_RETURN(
      DataFrame out, dataframe::ProbeJoin(*left, keys.left, *table, options_));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

std::vector<std::string> MergeShuffleReduceChunkOp::InputKeys(
    const graph::ChunkNode& node) const {
  std::vector<std::string> keys;
  for (const graph::ChunkNode* in : node.inputs) {
    keys.push_back(in->key + "@" + std::to_string(partition_));
  }
  return keys;
}

Status MergeShuffleReduceChunkOp::Execute(ExecutionContext& ctx) const {
  auto concat_range = [&](size_t begin, size_t end) -> Result<DataFrame> {
    std::vector<const DataFrame*> pieces;
    for (size_t i = begin; i < end; ++i) {
      XORBITS_ASSIGN_OR_RETURN(const DataFrame* df,
                               services::AsDataFrame(ctx.inputs[i]));
      pieces.push_back(df);
    }
    return dataframe::Concat(pieces);
  };
  XORBITS_ASSIGN_OR_RETURN(DataFrame left, concat_range(0, left_count_));
  XORBITS_ASSIGN_OR_RETURN(DataFrame right,
                           concat_range(left_count_, ctx.inputs.size()));
  XORBITS_ASSIGN_OR_RETURN(DataFrame out,
                           dataframe::Merge(left, right, options_));
  ctx.outputs[0] = services::MakeChunk(std::move(out));
  return Status::OK();
}

TileTask MergeOp::Tile(TileContext& ctx, TileableNode* node) {
  TileableNode* left = node->inputs[0];
  TileableNode* right = node->inputs[1];
  std::vector<ChunkNode*> lchunks = left->chunks;
  std::vector<ChunkNode*> rchunks = right->chunks;

  // Trivial case: both sides single-chunk — join directly.
  if (lchunks.size() == 1 && rchunks.size() == 1) {
    ChunkNode* joined = ctx.chunk_graph()->AddNode(
        std::make_shared<MergeChunkOp>(options_), {lchunks[0], rchunks[0]});
    node->chunks.push_back(joined);
    node->tiled = true;
    co_return Status::OK();
  }

  SizeEstimate lest = EstimateChunks(ctx, lchunks);
  SizeEstimate rest = EstimateChunks(ctx, rchunks);
  if (ctx.dynamic()) {
    // Sample whichever side's real size is unknown (paper §IV-B: merge is a
    // default dynamic-tiling operator).
    std::vector<ChunkNode*> sample;
    if (lest.nbytes < 0 && !lchunks.empty()) sample.push_back(lchunks[0]);
    if (rest.nbytes < 0 && !rchunks.empty()) sample.push_back(rchunks[0]);
    if (!sample.empty()) {
      ctx.metrics()->Add(CounterId::kDynamicYields);
      co_yield sample;
      lest = EstimateChunks(ctx, lchunks);
      rest = EstimateChunks(ctx, rchunks);
    }
    // A side worth broadcasting may be a few chunks large: replicating it
    // to every band is still far cheaper than hash-shuffling the big side.
    const int64_t broadcast_limit = 4 * ctx.config().chunk_store_limit;
    const bool can_broadcast_right =
        rest.nbytes >= 0 && rest.nbytes <= broadcast_limit &&
        (options_.how == JoinType::kInner || options_.how == JoinType::kLeft);
    const bool can_broadcast_left =
        lest.nbytes >= 0 && lest.nbytes <= broadcast_limit &&
        (options_.how == JoinType::kInner ||
         options_.how == JoinType::kRight);
    if (can_broadcast_right || can_broadcast_left) {
      // Broadcast the small side; join every chunk of the big side locally.
      const bool bcast_right =
          can_broadcast_right &&
          (!can_broadcast_left || rest.nbytes <= lest.nbytes);
      std::vector<ChunkNode*>& big = bcast_right ? lchunks : rchunks;
      std::vector<ChunkNode*>& small = bcast_right ? rchunks : lchunks;
      ChunkNode* gathered =
          small.size() == 1
              ? small[0]
              : ctx.chunk_graph()->AddNode(std::make_shared<ConcatChunkOp>(),
                                           small);
      MergeOptions opts = options_;
      if (!bcast_right) {
        // The broadcast leg keeps the big side on the left.
        std::swap(opts.left_on, opts.right_on);
        std::swap(opts.suffix_left, opts.suffix_right);
        if (opts.how == JoinType::kRight) opts.how = JoinType::kLeft;
      }
      auto join_op = std::make_shared<MergeChunkOp>(opts);
      for (ChunkNode* chunk : big) {
        ChunkNode* joined =
            ctx.chunk_graph()->AddNode(join_op, {chunk, gathered});
        joined->meta.chunk_row = static_cast<int64_t>(node->chunks.size());
        node->chunks.push_back(joined);
      }
      node->tiled = true;
      co_return Status::OK();
    }
  }

  // Hash-shuffle both sides. Static engines always land here; a hot join
  // key sends the bulk of the rows to a single reducer (the skew failure
  // of Fig. 8(a)'s UC10 discussion).
  std::vector<std::string> lkeys =
      options_.left_on.empty() ? options_.on : options_.left_on;
  std::vector<std::string> rkeys =
      options_.right_on.empty() ? options_.on : options_.right_on;
  int64_t size_hint = std::max(lest.nbytes, rest.nbytes);
  const int partitions =
      static_cast<int>(ChooseChunkCount(ctx.config(), size_hint));
  auto lpart = std::make_shared<HashPartitionChunkOp>(lkeys, partitions);
  auto rpart = std::make_shared<HashPartitionChunkOp>(rkeys, partitions);
  std::vector<ChunkNode*> mappers;
  for (ChunkNode* chunk : lchunks) {
    mappers.push_back(ctx.chunk_graph()->AddNode(lpart, {chunk}));
  }
  const int left_count = static_cast<int>(mappers.size());
  for (ChunkNode* chunk : rchunks) {
    mappers.push_back(ctx.chunk_graph()->AddNode(rpart, {chunk}));
  }
  for (int p = 0; p < partitions; ++p) {
    ChunkNode* red = ctx.chunk_graph()->AddNode(
        std::make_shared<MergeShuffleReduceChunkOp>(p, left_count, options_),
        mappers);
    red->meta.chunk_row = p;
    if (!ctx.dynamic()) {
      // Static planning sizes every stage from the initial-source
      // estimates (paper §I) — join outputs inherit the inputs' scale, so
      // downstream stages keep shuffling at full width.
      if (lest.nbytes >= 0 || rest.nbytes >= 0) {
        red->meta.nbytes =
            (std::max<int64_t>(lest.nbytes, 0) +
             std::max<int64_t>(rest.nbytes, 0)) /
            partitions;
        red->meta.rows = (std::max<int64_t>(lest.rows, 0) +
                          std::max<int64_t>(rest.rows, 0)) /
                         partitions;
      }
    }
    node->chunks.push_back(red);
  }
  node->tiled = true;
  co_return Status::OK();
}

std::optional<std::vector<std::set<std::string>>>
MergeOp::RequiredInputColumns(const graph::TileableNode& node,
                              const std::set<std::string>& out_columns) const {
  // Columns required from left/right: the join keys plus whatever outputs
  // each side contributes. Suffixed outputs map back to their base name.
  auto strip = [](const std::string& name, const std::string& suffix) {
    if (suffix.empty() || name.size() <= suffix.size()) return name;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
        0) {
      return name.substr(0, name.size() - suffix.size());
    }
    return name;
  };
  std::set<std::string> lneed, rneed;
  const auto& lkeys = options_.left_on.empty() ? options_.on
                                               : options_.left_on;
  const auto& rkeys = options_.right_on.empty() ? options_.on
                                                : options_.right_on;
  lneed.insert(lkeys.begin(), lkeys.end());
  rneed.insert(rkeys.begin(), rkeys.end());
  for (const std::string& c : out_columns) {
    lneed.insert(strip(c, options_.suffix_left));
    rneed.insert(strip(c, options_.suffix_right));
  }
  // Intersect with each side's known schema (unknown names are dropped by
  // the pruning pass when it sees the input's column list).
  return std::vector<std::set<std::string>>{std::move(lneed),
                                            std::move(rneed)};
}

}  // namespace xorbits::operators
