#ifndef XORBITS_OPTIMIZER_PASS_MANAGER_H_
#define XORBITS_OPTIMIZER_PASS_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/status.h"
#include "graph/graph.h"
#include "optimizer/pass.h"

namespace xorbits::services {
class MetaService;
class ResultCache;
}  // namespace xorbits::services

namespace xorbits::optimizer {

/// Owns the three per-level pass pipelines and runs them with uniform
/// instrumentation: one `optimize:<pass>` trace span per run, per-pass
/// gauges (`optimizer_pass_us/<slot>` etc., slot = level letter + pipeline
/// index + pass name, e.g. `t1_column_pruning`), and a structural invariant
/// check of the rewritten graph after every pass (see graph/rewrite.h), so
/// a buggy pass fails loudly at its own boundary instead of corrupting
/// execution.
///
/// Pipelines are the explicit lists in `config.optimizer`, plus a leading
/// `result_cache` chunk pass when a cache is bound. Unknown pass names fail
/// with Status::Invalid on first use.
class PassManager {
 public:
  PassManager(const Config& config, Metrics* metrics);
  ~PassManager();

  PassManager(const PassManager&) = delete;
  PassManager& operator=(const PassManager&) = delete;

  /// Logical-plan pipeline, run once per Materialize before tiling. May
  /// add nodes to `graph` and rewrite/shrink the `topo` work list.
  Status RunTileablePipeline(graph::TileableGraph* graph,
                             std::vector<graph::TileableNode*>* topo,
                             const std::vector<graph::TileableNode*>& sinks);

  /// Binds the cross-session result cache (DESIGN.md §9) so the
  /// `result_cache` chunk pass can probe and rewrite. `meta` is where hit
  /// metadata/lineage land (the service the consuming run reads);
  /// `session_id` stamps hit lineage. All must outlive the
  /// manager. Binding puts `result_cache` at the head of the chunk
  /// pipeline; call it before the first Run*Pipeline.
  void BindResultCache(services::ResultCache* cache,
                       services::MetaService* meta, int64_t session_id);

  /// Chunk-plan pipeline, run on every pending closure (each partial
  /// execution). `must_persist` members survive every pass. When the
  /// result cache is bound, `pinned_sigs` collects the signatures hits
  /// pinned — the caller must ResultCache::Unpin them once the consuming
  /// run is over (null skips probing entirely).
  Status RunChunkPipeline(graph::ChunkGraph* graph,
                          std::vector<graph::ChunkNode*>* closure,
                          const std::vector<graph::ChunkNode*>& must_persist,
                          std::vector<std::string>* pinned_sigs = nullptr);

  /// Physical-plan pipeline, run on the unfused subtask graph built from
  /// `closure` before scheduling.
  Status RunSubtaskPipeline(graph::SubtaskGraph* st_graph,
                            const std::vector<graph::ChunkNode*>& closure,
                            const std::vector<graph::ChunkNode*>& must_persist);

 private:
  Status EnsureInit();

  const Config& config_;
  Metrics* metrics_;
  services::ResultCache* result_cache_ = nullptr;
  services::MetaService* cache_meta_ = nullptr;
  int64_t cache_session_id_ = -1;
  bool initialized_ = false;
  std::vector<std::unique_ptr<TileablePass>> tileable_;
  std::vector<std::unique_ptr<ChunkPass>> chunk_;
  std::vector<std::unique_ptr<SubtaskPass>> subtask_;
};

}  // namespace xorbits::optimizer

#endif  // XORBITS_OPTIMIZER_PASS_MANAGER_H_
