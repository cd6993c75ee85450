#ifndef XORBITS_CORE_SESSION_H_
#define XORBITS_CORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "graph/graph.h"
#include "optimizer/pass_manager.h"
#include "services/meta_service.h"
#include "services/result_cache.h"
#include "services/storage_service.h"
#include "tiling/tiling_driver.h"

namespace xorbits::core {

class SessionManager;

/// One Xorbits runtime: the simulated cluster (bands + storage), the meta
/// service, the growing tileable/chunk graphs, and the tiling driver. The
/// paper's session service keeps exactly this state per client session.
///
/// Two modes:
///  - solo (the `Config` constructor): the session owns a private cluster —
///    storage, meta, executor — the historical single-tenant behaviour,
///    byte-identical to before multi-tenancy existed.
///  - tenant (constructed by SessionManager::CreateSession): the session
///    shares the manager's cluster services, namespaces its chunk keys
///    under "s<id>/", and every Materialize passes admission control and
///    runs under weighted-fair scheduling with this session's priority.
class Session {
 public:
  explicit Session(Config config);
  /// Tenant mode; called by SessionManager::CreateSession. `config` is the
  /// manager's config with per-session overrides (priority, trace pid)
  /// applied. The session must not outlive `manager`.
  Session(SessionManager* manager, Config config, int64_t session_id);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Config& config() const { return config_; }
  /// This session's counters. A tenant session's Metrics has the cluster's
  /// as parent: counters raised below the session (under the MetricsScope
  /// that Materialize and Fetch* install) land here and on the cluster.
  Metrics& metrics() { return metrics_; }
  graph::TileableGraph& tileable_graph() { return tileable_graph_; }
  services::StorageService& storage() { return *storage_; }
  services::MetaService& meta() { return *meta_; }
  /// Tenant id under a SessionManager; -1 for solo sessions.
  int64_t session_id() const { return session_id_; }

  /// Adds a tileable node for `op` (the API layer's __call__ step).
  graph::TileableNode* AddTileable(
      std::shared_ptr<graph::OperatorBase> op,
      std::vector<graph::TileableNode*> inputs,
      std::vector<std::string> columns, int output_index = 0);

  /// Deferred evaluation trigger: tiles and executes whatever `sinks` need
  /// (no-op for parts already materialized).
  Status Materialize(const std::vector<graph::TileableNode*>& sinks);

  /// Fetches a materialized dataframe tileable (chunks concatenated).
  Result<dataframe::DataFrame> FetchDataFrame(graph::TileableNode* node);
  /// Fetches a materialized tensor tileable (row-chunk stacked).
  Result<tensor::NDArray> FetchTensor(graph::TileableNode* node);

 private:
  /// Projected memory footprint of the un-materialized part of the graph,
  /// the reservation Admit arbitrates between concurrent submissions:
  /// est_rows * 8 bytes * columns per source when row counts are known,
  /// one chunk_store_limit per opaque node otherwise.
  int64_t EstimatePendingBytes(
      const std::vector<graph::TileableNode*>& topo) const;

  Config config_;
  Metrics metrics_;
  /// Null for solo sessions; owns the shared cluster in tenant mode.
  SessionManager* manager_ = nullptr;
  int64_t session_id_ = -1;
  /// Owned in solo mode, null in tenant mode; `storage_`/`meta_` always
  /// point at whichever cluster (private or shared) this session uses.
  std::unique_ptr<services::StorageService> owned_storage_;
  services::StorageService* storage_;
  std::unique_ptr<services::MetaService> owned_meta_;
  services::MetaService* meta_;
  /// Solo-mode result cache (config.enable_result_cache); tenant sessions
  /// use the manager's cluster-wide cache instead and leave this null.
  std::unique_ptr<services::ResultCache> owned_result_cache_;
  graph::TileableGraph tileable_graph_;
  graph::ChunkGraph chunk_graph_;
  /// Optimizer pipelines (declared before driver_, which keeps a pointer).
  optimizer::PassManager pass_manager_;
  std::unique_ptr<tiling::TilingDriver> driver_;
};

}  // namespace xorbits::core

#endif  // XORBITS_CORE_SESSION_H_
