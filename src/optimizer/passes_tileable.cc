#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "graph/rewrite.h"
#include "operators/dataframe_ops.h"
#include "operators/source_ops.h"
#include "optimizer/column_pruning.h"
#include "optimizer/pass.h"

namespace xorbits::optimizer {

using graph::TileableNode;
using operators::EvalOp;
using operators::ExprPtr;
using operators::ReadCsvOp;
using operators::ReadXpqOp;

namespace {

/// Column pruning, wrapped as a pass (the logic predates the framework and
/// lives in column_pruning.cc).
class ColumnPruningPass : public TileablePass {
 public:
  const char* name() const override { return kPassColumnPruning; }
  Result<PassStats> Run(PassContext& ctx, std::vector<TileableNode*>* topo,
                        const std::vector<TileableNode*>& sinks) override {
    PassStats stats;
    stats.nodes_rewritten = PruneColumns(*topo, sinks);
    return stats;
  }
};

/// True when `node` is a pure filter: an untiled EvalOp with a predicate
/// and neither assignments nor a projection, so bypassing it loses nothing
/// but the row selection — which moves into the source.
const EvalOp* AsPureFilter(const TileableNode* node) {
  if (node->tiled) return nullptr;
  const auto* eval = dynamic_cast<const EvalOp*>(node->op.get());
  if (eval == nullptr || eval->filter() == nullptr) return nullptr;
  if (!eval->assignments().empty() || !eval->projection().empty()) {
    return nullptr;
  }
  return eval;
}

/// Predicate pushdown: for every `source -> filter` pair where the source
/// is an untiled parquet/CSV read consumed only by the filter, a clone of
/// the source carrying the predicate replaces the pair, and the filter's
/// consumers read from the clone. The original nodes are dropped from the
/// work list (the shared source operator is never mutated — other sessions
/// or later-added consumers may still reference it). Filter chains collapse
/// by re-scanning until no rewrite applies: the clone is itself a
/// single-consumer source for the next filter up, and stacked predicates
/// conjoin with And.
class PredicatePushdownPass : public TileablePass {
 public:
  const char* name() const override { return kPassPredicatePushdown; }

  Result<PassStats> Run(PassContext& ctx, std::vector<TileableNode*>* topo,
                        const std::vector<TileableNode*>& sinks) override {
    PassStats stats;
    if (ctx.tileable_graph == nullptr) {
      return Status::Invalid("predicate_pushdown needs a tileable graph");
    }
    std::unordered_set<const TileableNode*> sink_set(sinks.begin(),
                                                     sinks.end());
    bool changed = true;
    while (changed) {
      changed = false;
      // Consumer counts over the whole graph, not just the work list: a
      // node referenced by an already-materialized part of the plan must
      // keep producing its unfiltered output.
      std::map<const TileableNode*, int> consumers;
      for (const auto& n : ctx.tileable_graph->nodes()) {
        for (const TileableNode* in : n->inputs) consumers[in]++;
      }
      for (size_t i = 0; i < topo->size(); ++i) {
        TileableNode* filter_node = (*topo)[i];
        const EvalOp* filter_op = AsPureFilter(filter_node);
        if (filter_op == nullptr || sink_set.count(filter_node)) continue;
        if (filter_node->inputs.size() != 1) continue;
        TileableNode* source = filter_node->inputs[0];
        if (source->tiled || sink_set.count(source)) continue;
        if (consumers[source] != 1) continue;
        std::shared_ptr<graph::OperatorBase> cloned =
            CloneWithFilter(source->op.get(), filter_op->filter());
        if (cloned == nullptr) continue;

        TileableNode* pushed = ctx.tileable_graph->AddNode(
            std::move(cloned), {}, source->output_index);
        pushed->columns = filter_node->columns.empty() ? source->columns
                                                       : filter_node->columns;
        // Rewire every consumer of the filter to the pushed source, then
        // retire the dead pair from the work list: the clone takes the
        // source's slot (its position precedes every consumer), the filter's
        // slot disappears.
        for (const auto& n : ctx.tileable_graph->nodes()) {
          stats.nodes_rewritten +=
              graph::ReplaceInput(n.get(), filter_node, pushed);
        }
        for (size_t j = 0; j < topo->size(); ++j) {
          if ((*topo)[j] == source) (*topo)[j] = pushed;
        }
        topo->erase(std::remove(topo->begin(), topo->end(), filter_node),
                    topo->end());
        stats.nodes_removed += 2;
        if (ctx.metrics != nullptr) {
          ctx.metrics->Add(CounterId::kPredicatesPushed);
        }
        changed = true;
        break;
      }
    }
    return stats;
  }

 private:
  /// Source clone carrying the additional predicate; null when `op` is not
  /// a pushdown-capable source.
  static std::shared_ptr<graph::OperatorBase> CloneWithFilter(
      const graph::OperatorBase* op, const ExprPtr& filter) {
    if (const auto* xpq = dynamic_cast<const ReadXpqOp*>(op)) {
      auto clone = std::make_shared<ReadXpqOp>(xpq->path());
      clone->SetPrunedColumns(xpq->pruned_columns());
      clone->SetPushedFilter(Conjoin(xpq->pushed_filter(), filter));
      return clone;
    }
    if (const auto* csv = dynamic_cast<const ReadCsvOp*>(op)) {
      auto clone = std::make_shared<ReadCsvOp>(csv->path(),
                                               csv->parse_dates());
      clone->SetPushedFilter(Conjoin(csv->pushed_filter(), filter));
      return clone;
    }
    return nullptr;
  }

  static ExprPtr Conjoin(const ExprPtr& existing, const ExprPtr& extra) {
    return existing == nullptr ? extra : operators::AndExpr(existing, extra);
  }
};

/// Dead-node elimination: drops work-list nodes no sink depends on, so
/// abandoned plan branches (built but never fetched) are neither tiled nor
/// executed. Only untiled nodes count toward the metric — already-tiled
/// nodes cost nothing to keep and re-appear in every incremental
/// Materialize over the growing graph.
class DeadNodeElimPass : public TileablePass {
 public:
  const char* name() const override { return kPassDeadNodeElim; }
  Result<PassStats> Run(PassContext& ctx, std::vector<TileableNode*>* topo,
                        const std::vector<TileableNode*>& sinks) override {
    PassStats stats;
    std::unordered_set<const TileableNode*> live(sinks.begin(), sinks.end());
    // topo is topologically ordered, so one reverse sweep closes ancestors.
    for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
      if (!live.count(*it)) continue;
      for (TileableNode* in : (*it)->inputs) live.insert(in);
    }
    std::vector<TileableNode*> kept;
    kept.reserve(topo->size());
    for (TileableNode* n : *topo) {
      if (live.count(n)) {
        kept.push_back(n);
      } else if (!n->tiled) {
        stats.nodes_removed++;
        if (ctx.metrics != nullptr) {
          ctx.metrics->Add(CounterId::kDeadNodesEliminated);
        }
      }
    }
    *topo = std::move(kept);
    return stats;
  }
};

}  // namespace

std::unique_ptr<TileablePass> MakeTileablePass(const std::string& name) {
  if (name == kPassColumnPruning) {
    return std::make_unique<ColumnPruningPass>();
  }
  if (name == kPassPredicatePushdown) {
    return std::make_unique<PredicatePushdownPass>();
  }
  if (name == kPassDeadNodeElim) return std::make_unique<DeadNodeElimPass>();
  return nullptr;
}

}  // namespace xorbits::optimizer
