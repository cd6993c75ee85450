#ifndef XORBITS_TILING_TILING_DRIVER_H_
#define XORBITS_TILING_TILING_DRIVER_H_

#include <chrono>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "operators/operator.h"
#include "optimizer/pass_manager.h"
#include "scheduler/executor.h"

namespace xorbits::services {
class ResultCache;
}  // namespace xorbits::services

namespace xorbits::tiling {

/// The supervisor-side task service: walks the tileable graph, drives each
/// operator's tile coroutine, and — whenever a coroutine yields — optimizes
/// and executes the pending partial chunk graph, records metadata, and
/// resumes (Fig. 5(a): switching between tiling and execution). When every
/// operator is tiled it executes the sink chunks and exposes their
/// payloads.
class TilingDriver {
 public:
  /// `pass_manager` (owned by the session) supplies the chunk- and
  /// subtask-level optimizer pipelines run on every partial execution.
  /// `executor` is the cluster executor every session of a SessionManager
  /// submits to, and `run_options` carries this session's scheduling
  /// identity (session id, priority, in-flight cap, metrics and trace).
  TilingDriver(const Config& config, Metrics* metrics,
               services::StorageService* storage,
               services::MetaService* meta, graph::ChunkGraph* chunk_graph,
               optimizer::PassManager* pass_manager,
               scheduler::Executor* executor,
               scheduler::RunOptions run_options);

  /// Tiles and executes everything needed by `sinks`. `topo_order` is the
  /// full tileable graph order (already-tiled nodes are skipped, so
  /// incremental calls on a growing graph are cheap).
  Status TileAndRun(const std::vector<graph::TileableNode*>& topo_order,
                    const std::vector<graph::TileableNode*>& sinks);

  /// Payloads of a tiled + executed tileable, in chunk order.
  Result<std::vector<services::ChunkDataPtr>> FetchChunks(
      const graph::TileableNode* node);

  /// Attaches the cross-session result cache (DESIGN.md §9): chunk
  /// pipelines start collecting hit pins (released in TileAndRun's
  /// epilogue, success or failure); the cluster executor publishes stamped
  /// misses. The owning session must also BindResultCache on its
  /// PassManager — the driver only manages the pin lifecycle.
  void BindResultCache(services::ResultCache* cache);

 private:
  /// Executes the pending ancestor closure of `targets` (no-op when all are
  /// executed): op-level fusion, coloring fusion, placement, run.
  Status ExecutePartial(const std::vector<graph::ChunkNode*>& targets);

  const Config& config_;
  Metrics* metrics_;
  services::StorageService* storage_;
  services::MetaService* meta_;
  graph::ChunkGraph* chunk_graph_;
  optimizer::PassManager* pass_manager_;
  scheduler::Executor* executor_;
  /// Scheduling identity stamped on every Run this driver submits.
  scheduler::RunOptions run_options_;
  std::chrono::steady_clock::time_point deadline_;
  /// Result cache this driver's runs consume/feed; null when disabled.
  services::ResultCache* result_cache_ = nullptr;
  /// Signatures pinned by cache hits across the current TileAndRun's
  /// partial executions; unpinned in its epilogue on every exit path.
  std::vector<std::string> pinned_sigs_;
};

}  // namespace xorbits::tiling

#endif  // XORBITS_TILING_TILING_DRIVER_H_
