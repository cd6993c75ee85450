#ifndef XORBITS_OPTIMIZER_PASS_H_
#define XORBITS_OPTIMIZER_PASS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/result.h"
#include "graph/graph.h"

namespace xorbits::services {
class MetaService;
class ResultCache;
}  // namespace xorbits::services

namespace xorbits::optimizer {

/// What one pass did to its graph, reported to the pass manager for the
/// per-pass gauges and the run-report optimizer section.
struct PassStats {
  /// Nodes dropped from the work list / closure (dead nodes, fused-away
  /// producers, CSE duplicates, subtasks merged by coloring).
  int64_t nodes_removed = 0;
  /// Nodes whose operator or wiring changed in place (pruned sources,
  /// rewired consumers, fused survivors).
  int64_t nodes_rewritten = 0;
};

/// Shared state every pass runs against. Graph pointers are level-specific:
/// tileable passes may add nodes to `tileable_graph` (predicate pushdown
/// clones sources instead of mutating shared operators); chunk passes may
/// add to `chunk_graph`.
struct PassContext {
  const Config* config = nullptr;
  Metrics* metrics = nullptr;
  graph::TileableGraph* tileable_graph = nullptr;
  graph::ChunkGraph* chunk_graph = nullptr;
  /// Cross-session result cache (DESIGN.md §9); null unless the owning
  /// PassManager was bound to one (enable_result_cache). The result_cache
  /// chunk pass probes it and rewrites hits into fetches of cached chunks.
  services::ResultCache* result_cache = nullptr;
  /// Meta service the consuming run reads chunk metadata from; a cache hit
  /// registers the cached chunk's meta (and recovery lineage) here.
  services::MetaService* meta = nullptr;
  /// Session the rewritten plan belongs to; stamps hit lineage so session
  /// close can purge pointers into the closing graph arena.
  int64_t session_id = -1;
  /// Out-param: signatures pinned by cache hits this pipeline run. The
  /// driver unpins them in its epilogue; null disables probing (publish
  /// marking still happens).
  std::vector<std::string>* pinned_sigs = nullptr;
};

/// Logical-plan pass: rewrites the tileable work list before tiling.
/// `topo` is the mutable topologically-ordered work list (inputs precede
/// consumers); `sinks` are the user-visible targets a pass must preserve.
class TileablePass {
 public:
  virtual ~TileablePass() = default;
  virtual const char* name() const = 0;
  virtual Result<PassStats> Run(
      PassContext& ctx, std::vector<graph::TileableNode*>* topo,
      const std::vector<graph::TileableNode*>& sinks) = 0;
};

/// Chunk-plan pass: rewrites one pending closure (topologically ordered,
/// nothing executed) before subtask building. Nodes in `must_persist` are
/// execution targets and must survive with their payloads published.
class ChunkPass {
 public:
  virtual ~ChunkPass() = default;
  virtual const char* name() const = 0;
  virtual Result<PassStats> Run(
      PassContext& ctx, std::vector<graph::ChunkNode*>* closure,
      const std::vector<graph::ChunkNode*>& must_persist) = 0;
};

/// Physical-plan pass: rewrites the subtask graph built from `closure`
/// (e.g. coloring fusion regroups execution units into fewer subtasks).
class SubtaskPass {
 public:
  virtual ~SubtaskPass() = default;
  virtual const char* name() const = 0;
  virtual Result<PassStats> Run(
      PassContext& ctx, graph::SubtaskGraph* graph,
      const std::vector<graph::ChunkNode*>& closure,
      const std::vector<graph::ChunkNode*>& must_persist) = 0;
};

// Pass names as spelled in Config::OptimizerSpec pipelines.
inline constexpr char kPassPredicatePushdown[] = "predicate_pushdown";
inline constexpr char kPassColumnPruning[] = "column_pruning";
inline constexpr char kPassDeadNodeElim[] = "dead_node_elim";
inline constexpr char kPassOpFusion[] = "op_fusion";
inline constexpr char kPassCse[] = "cse";
inline constexpr char kPassResultCache[] = "result_cache";
inline constexpr char kPassGraphFusion[] = "graph_fusion";

/// Factories: one registry per graph level. Return nullptr for names that
/// do not name a pass of that level (the manager turns that into
/// Status::Invalid listing the level).
std::unique_ptr<TileablePass> MakeTileablePass(const std::string& name);
std::unique_ptr<ChunkPass> MakeChunkPass(const std::string& name);
std::unique_ptr<SubtaskPass> MakeSubtaskPass(const std::string& name);

}  // namespace xorbits::optimizer

#endif  // XORBITS_OPTIMIZER_PASS_H_
