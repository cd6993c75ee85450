#include "optimizer/op_fusion.h"

#include <unordered_map>
#include <unordered_set>

#include "operators/dataframe_ops.h"

namespace xorbits::optimizer {

using graph::ChunkNode;
using operators::Assignment;
using operators::EvalChunkOp;

namespace {

/// Merges two consecutive Eval kernels when semantics allow: the upstream
/// op must not project (its full output feeds downstream), and either it
/// has no filter, or the downstream op only filters.
std::shared_ptr<EvalChunkOp> TryMerge(const EvalChunkOp& up,
                                      const EvalChunkOp& down) {
  if (!up.projection().empty()) return nullptr;
  if (up.filter() == nullptr) {
    std::vector<Assignment> assignments = up.assignments();
    // Downstream expressions may reference upstream-assigned columns; the
    // sequential application inside one fused kernel preserves that.
    for (const auto& a : down.assignments()) assignments.push_back(a);
    return std::make_shared<EvalChunkOp>(std::move(assignments),
                                         down.filter(), down.projection());
  }
  // Upstream filters: only a pure downstream filter can be appended
  // (conjunction evaluated against the filtered rows is equivalent to
  // evaluating both against the original rows when no assignment follows).
  if (down.assignments().empty() && down.filter() != nullptr &&
      down.projection().empty()) {
    return std::make_shared<EvalChunkOp>(
        up.assignments(),
        operators::AndExpr(up.filter(), down.filter()), up.projection());
  }
  return nullptr;
}

}  // namespace

std::vector<ChunkNode*> FuseElementwiseChains(
    std::vector<ChunkNode*> pending, Metrics* metrics,
    const std::unordered_set<const ChunkNode*>* keep) {
  // Count in-closure consumers of each node.
  std::unordered_map<const ChunkNode*, int> consumers;
  std::unordered_set<const ChunkNode*> in_set(pending.begin(), pending.end());
  for (ChunkNode* n : pending) {
    for (ChunkNode* in : n->inputs) {
      if (in_set.count(in)) consumers[in]++;
    }
  }
  std::unordered_set<const ChunkNode*> dropped;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ChunkNode* n : pending) {
      if (dropped.count(n)) continue;
      if (n->inputs.size() != 1) continue;
      ChunkNode* in = n->inputs[0];
      if (dropped.count(in) || !in_set.count(in) || in->executed) continue;
      if (consumers[in] != 1) continue;
      // Never swallow a node whose payload the caller will fetch.
      if (keep != nullptr && keep->count(in)) continue;
      auto* down = dynamic_cast<const EvalChunkOp*>(n->op.get());
      auto* up = dynamic_cast<const EvalChunkOp*>(in->op.get());
      if (down == nullptr || up == nullptr) continue;
      std::shared_ptr<EvalChunkOp> fused = TryMerge(*up, *down);
      if (!fused) continue;
      n->op = fused;
      n->inputs = in->inputs;
      dropped.insert(in);
      for (ChunkNode* grand : n->inputs) {
        if (in_set.count(grand)) consumers[grand]++;  // rewired consumer
      }
      if (metrics != nullptr) metrics->Add(CounterId::kOpFusionHits);
      changed = true;
    }
  }
  std::vector<ChunkNode*> out;
  out.reserve(pending.size());
  for (ChunkNode* n : pending) {
    if (!dropped.count(n)) out.push_back(n);
  }
  return out;
}

}  // namespace xorbits::optimizer
