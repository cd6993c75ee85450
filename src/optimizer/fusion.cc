#include "optimizer/fusion.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "graph/coloring.h"
#include "optimizer/pass.h"

namespace xorbits::optimizer {

using graph::ChunkNode;
using graph::Subtask;
using graph::SubtaskGraph;

namespace {

SubtaskGraph BuildImpl(const std::vector<ChunkNode*>& pending,
                       const std::vector<ChunkNode*>& must_persist,
                       bool enable_fusion) {
  SubtaskGraph out;
  if (pending.empty()) return out;

  // Execution units: sibling nodes (same op instance, same inputs — the two
  // outputs of one QR call) must share a subtask, so coloring runs on units.
  std::unordered_map<const ChunkNode*, int> unit_of;
  std::vector<std::vector<ChunkNode*>> unit_nodes;
  {
    std::unordered_map<std::string, int> unit_index;
    for (ChunkNode* n : pending) {
      std::string sig =
          std::to_string(reinterpret_cast<uintptr_t>(n->op.get()));
      for (const ChunkNode* in : n->inputs) {
        sig += '|';
        sig += std::to_string(in->id);
      }
      auto [it, inserted] =
          unit_index.emplace(sig, static_cast<int>(unit_nodes.size()));
      if (inserted) unit_nodes.emplace_back();
      unit_nodes[it->second].push_back(n);
      unit_of[n] = it->second;
    }
  }
  const int num_units = static_cast<int>(unit_nodes.size());

  // Unit-level DAG (pending edges only; executed ancestors are data, not
  // dependencies).
  std::unordered_set<const ChunkNode*> pending_set(pending.begin(),
                                                   pending.end());
  std::vector<std::vector<int>> succ(num_units);
  std::vector<std::set<int>> succ_sets(num_units);
  std::vector<bool> fusible(num_units, true);
  for (ChunkNode* n : pending) {
    const int u = unit_of[n];
    if (!n->op->fusible()) fusible[u] = false;
    for (ChunkNode* in : n->inputs) {
      if (!pending_set.count(in)) continue;
      const int p = unit_of[in];
      if (p != u && succ_sets[p].insert(u).second) succ[p].push_back(u);
    }
  }

  std::vector<int> color;
  if (enable_fusion) {
    color = graph::ColorForFusion(succ, fusible);
  } else {
    color.resize(num_units);
    for (int i = 0; i < num_units; ++i) color[i] = i;
  }

  // Group units by color in first-appearance (topological) order.
  std::unordered_map<int, int> subtask_of_color;
  for (int u = 0; u < num_units; ++u) {
    auto [it, inserted] = subtask_of_color.emplace(
        color[u], static_cast<int>(out.subtasks.size()));
    if (inserted) {
      Subtask st;
      st.id = it->second;
      out.subtasks.push_back(std::move(st));
    }
    for (ChunkNode* n : unit_nodes[u]) {
      out.subtasks[it->second].chunk_nodes.push_back(n);
    }
  }
  // Keep each subtask's members in global topological order.
  {
    std::unordered_map<const ChunkNode*, int> order;
    for (size_t i = 0; i < pending.size(); ++i) {
      order[pending[i]] = static_cast<int>(i);
    }
    for (Subtask& st : out.subtasks) {
      std::sort(st.chunk_nodes.begin(), st.chunk_nodes.end(),
                [&](const ChunkNode* a, const ChunkNode* b) {
                  return order[a] < order[b];
                });
    }
  }

  // Wire external inputs, persisted outputs, and subtask edges.
  std::unordered_map<const ChunkNode*, int> subtask_of_node;
  for (const Subtask& st : out.subtasks) {
    for (const ChunkNode* n : st.chunk_nodes) subtask_of_node[n] = st.id;
  }
  std::unordered_set<const ChunkNode*> persist_set(must_persist.begin(),
                                                   must_persist.end());
  std::vector<std::set<int>> pred_sets(out.subtasks.size());
  for (Subtask& st : out.subtasks) {
    std::set<const ChunkNode*> ext;
    std::unordered_set<const ChunkNode*> consumed_internally;
    for (ChunkNode* n : st.chunk_nodes) {
      for (ChunkNode* in : n->inputs) {
        auto it = subtask_of_node.find(in);
        if (it == subtask_of_node.end() || it->second != st.id) {
          ext.insert(in);
          if (it != subtask_of_node.end()) pred_sets[st.id].insert(it->second);
        } else {
          consumed_internally.insert(in);
        }
      }
    }
    for (const ChunkNode* n : ext) {
      st.external_inputs.push_back(const_cast<ChunkNode*>(n));
    }
    for (ChunkNode* n : st.chunk_nodes) {
      // Persist tails (future operators may consume them) and explicitly
      // requested nodes; purely internal intermediates stay transient.
      if (persist_set.count(n) || !consumed_internally.count(n)) {
        st.outputs.push_back(n);
      }
    }
  }
  for (Subtask& st : out.subtasks) {
    for (int p : pred_sets[st.id]) {
      st.preds.push_back(p);
      out.subtasks[p].succs.push_back(st.id);
    }
  }
  return out;
}

/// Subtask-level fusion as a pass: rebuilds the subtask graph from the
/// closure with coloring enabled and replaces the unfused plan. The
/// `fused_subtasks` delta it reports composes with the one from
/// BuildUnfusedSubtaskGraph to match the legacy single-shot accounting.
class GraphFusionPass : public SubtaskPass {
 public:
  const char* name() const override { return kPassGraphFusion; }
  Result<PassStats> Run(
      PassContext& ctx, SubtaskGraph* graph,
      const std::vector<ChunkNode*>& closure,
      const std::vector<ChunkNode*>& must_persist) override {
    PassStats stats;
    const int64_t before = static_cast<int64_t>(graph->subtasks.size());
    SubtaskGraph fused = BuildImpl(closure, must_persist, true);
    stats.nodes_removed = before - static_cast<int64_t>(fused.subtasks.size());
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(CounterId::kFusedSubtasks, stats.nodes_removed);
    }
    *graph = std::move(fused);
    return stats;
  }
};

}  // namespace

SubtaskGraph BuildSubtaskGraph(const std::vector<ChunkNode*>& pending,
                               const std::vector<ChunkNode*>& must_persist,
                               bool enable_fusion, Metrics* metrics) {
  SubtaskGraph out = BuildImpl(pending, must_persist, enable_fusion);
  if (metrics != nullptr) {
    metrics->Add(CounterId::kFusedSubtasks,
                 static_cast<int64_t>(pending.size()) -
                     static_cast<int64_t>(out.subtasks.size()));
  }
  return out;
}

SubtaskGraph BuildUnfusedSubtaskGraph(
    const std::vector<ChunkNode*>& pending,
    const std::vector<ChunkNode*>& must_persist, Metrics* metrics) {
  SubtaskGraph out = BuildImpl(pending, must_persist, false);
  // Siblings of multi-output operators already share a subtask here; the
  // delta below plus GraphFusionPass's delta equals what the one-shot
  // BuildSubtaskGraph used to report.
  if (metrics != nullptr) {
    metrics->Add(CounterId::kFusedSubtasks,
                 static_cast<int64_t>(pending.size()) -
                     static_cast<int64_t>(out.subtasks.size()));
  }
  return out;
}

std::unique_ptr<SubtaskPass> MakeSubtaskPass(const std::string& name) {
  if (name == kPassGraphFusion) return std::make_unique<GraphFusionPass>();
  return nullptr;
}

}  // namespace xorbits::optimizer
