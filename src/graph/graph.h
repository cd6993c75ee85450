#ifndef XORBITS_GRAPH_GRAPH_H_
#define XORBITS_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace xorbits::graph {

/// Minimal operator interface the graph layer needs; concrete tileable and
/// chunk operators (src/operators) derive from it. Keeping the graph
/// structure independent of operator semantics mirrors the paper's split
/// between graph services and operator implementations.
class OperatorBase {
 public:
  virtual ~OperatorBase() = default;
  /// Stable name used in debug output and fusion diagnostics
  /// (e.g. "GroupByAgg::map").
  virtual const char* type_name() const = 0;
  /// Whether graph-level fusion may merge this node with neighbours.
  virtual bool fusible() const { return true; }
};

/// Shape/size metadata of one chunk. `rows == -1` means unknown until
/// execution — the condition that triggers dynamic tiling.
struct ChunkMetaInfo {
  int64_t rows = -1;
  int64_t cols = -1;
  int64_t nbytes = -1;
  /// True when `rows` is exact (measured, or statically determined by the
  /// producing operator); false for planning estimates, which positional
  /// operators like iloc must not trust.
  bool rows_exact = false;
  /// Position in the distributed index of the owning tileable (Fig. 4).
  int64_t chunk_row = 0;
  int64_t chunk_col = 0;

  bool shape_known() const { return rows >= 0; }
};

/// One data placeholder in the chunk graph (a square in the paper's
/// figures), carrying the operator that produces it.
struct ChunkNode {
  int64_t id = 0;
  std::shared_ptr<OperatorBase> op;
  /// Which output of `op` this node is (QR yields 2 chunks per input block).
  int output_index = 0;
  std::vector<ChunkNode*> inputs;
  /// Storage key of the produced payload.
  std::string key;
  ChunkMetaInfo meta;
  bool executed = false;
  /// Band the producing subtask ran on (-1 before scheduling).
  int band = -1;
  /// Transitive plan signature set by the result_cache optimizer pass on a
  /// probe *miss*: the executor publishes this node's payload to the
  /// ResultCache under it when the subtask completes. Empty = not cacheable
  /// or the cache is off (DESIGN.md §9).
  std::string cache_plan_sig;
  /// Source tags (file paths / content fingerprints) the sub-plan under
  /// this node reads, carried alongside cache_plan_sig for invalidation.
  std::vector<std::string> cache_tags;
};

/// One logical-plan node (whole distributed dataframe/tensor).
struct TileableNode {
  int64_t id = 0;
  std::shared_ptr<OperatorBase> op;
  int output_index = 0;
  std::vector<TileableNode*> inputs;

  /// Estimated or known row count (-1 unknown) and column names for
  /// dataframes; tensors use `shape_rows/ cols` semantics via chunks.
  int64_t est_rows = -1;
  std::vector<std::string> columns;

  /// Filled by tiling: output chunks in row-major (chunk_row, chunk_col)
  /// order, plus the number of column-chunks per row (1 for row-only
  /// partitioning).
  std::vector<ChunkNode*> chunks;
  int64_t chunk_cols = 1;
  bool tiled = false;
};

/// Arena-owning graph of tileable nodes (the logical plan).
class TileableGraph {
 public:
  TileableNode* AddNode(std::shared_ptr<OperatorBase> op,
                        std::vector<TileableNode*> inputs,
                        int output_index = 0);
  const std::vector<std::unique_ptr<TileableNode>>& nodes() const {
    return nodes_;
  }
  /// Nodes in a valid topological order (inputs precede consumers). Nodes
  /// are appended in creation order which is already topological, so this
  /// returns creation order.
  std::vector<TileableNode*> TopologicalOrder() const;

 private:
  std::vector<std::unique_ptr<TileableNode>> nodes_;
  int64_t next_id_ = 0;
};

/// Arena-owning graph of chunk nodes (the coarse physical plan), grown
/// incrementally as tiling proceeds.
class ChunkGraph {
 public:
  ChunkNode* AddNode(std::shared_ptr<OperatorBase> op,
                     std::vector<ChunkNode*> inputs, int output_index = 0);
  const std::vector<std::unique_ptr<ChunkNode>>& nodes() const {
    return nodes_;
  }
  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }

  /// Namespace prepended to every subsequently created node's storage key.
  /// Sessions sharing one storage service set "s<session_id>/" so their
  /// chunk keys (and shuffle-partition keys derived from them) can never
  /// collide across tenants. Empty (the default) leaves keys un-prefixed,
  /// for graphs built without a session.
  void set_key_prefix(std::string prefix) { key_prefix_ = std::move(prefix); }
  const std::string& key_prefix() const { return key_prefix_; }

 private:
  std::vector<std::unique_ptr<ChunkNode>> nodes_;
  int64_t next_id_ = 0;
  std::string key_prefix_;
};

/// Component breakdown of one subtask's modeled cost, filled alongside
/// `Subtask::sim_us` so the tracer can attribute critical-path time to
/// stages (kernel vs dispatch vs transfer vs store; see DESIGN.md §4).
/// Invariant: serial + parallel + dispatch + transfer + store + recovery
/// == sim_us.
struct SubtaskCost {
  int64_t serial_us = 0;    // band-thread kernel CPU
  int64_t parallel_us = 0;  // pool kernel CPU already divided by slots
  int64_t dispatch_us = 0;  // fixed per-subtask dispatch latency
  int64_t transfer_us = 0;  // modeled cross-band input fetch
  int64_t store_us = 0;     // modeled output (de)serialization
  int64_t recovery_us = 0;  // in-run lineage recompute charged to this task
};

/// A fused group of chunk nodes scheduled as one unit (§III-C).
struct Subtask {
  int id = 0;
  /// Member chunk nodes in execution order.
  std::vector<ChunkNode*> chunk_nodes;
  /// Chunk nodes produced outside this subtask that members read.
  std::vector<ChunkNode*> external_inputs;
  /// Member nodes whose payloads must be published to storage (read by other
  /// subtasks or graph sinks).
  std::vector<ChunkNode*> outputs;
  std::vector<int> preds;
  std::vector<int> succs;
  int band = -1;
  /// Modeled execution cost (thread-CPU time + transfer penalty), filled by
  /// the executor and consumed by the makespan computation.
  int64_t sim_us = 0;
  /// Stage decomposition of sim_us (tracing; zero when untraced runs don't
  /// need it — the executor always fills it, it is cheap).
  SubtaskCost cost;
};

/// The fine-grained physical plan: fused subtasks plus dependency edges.
struct SubtaskGraph {
  std::vector<Subtask> subtasks;
};

/// Topologically sorts `nodes` (and every transitive ancestor NOT included
/// is assumed executed). Returns only the given nodes, each after all of its
/// in-set inputs.
std::vector<ChunkNode*> TopoSortChunks(const std::vector<ChunkNode*>& nodes);

/// Collects the not-yet-executed ancestor closure of `targets` (including
/// the targets themselves), in topological order.
std::vector<ChunkNode*> PendingClosure(const std::vector<ChunkNode*>& targets);

}  // namespace xorbits::graph

#endif  // XORBITS_GRAPH_GRAPH_H_
