#ifndef XORBITS_CORE_SESSION_H_
#define XORBITS_CORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "graph/graph.h"
#include "optimizer/pass_manager.h"
#include "tiling/tiling_driver.h"

namespace xorbits::core {

class SessionManager;
struct SessionOptions;

/// One client session of the paper's session service: the growing
/// tileable/chunk graphs, the optimizer pipelines and the tiling driver,
/// submitting into a SessionManager's cluster (bands, storage, meta, one
/// executor). Its chunk keys are namespaced under "s<id>/", and every
/// Materialize passes the manager's admission control and runs under
/// weighted-fair scheduling with this session's priority.
class Session {
 public:
  /// A session on a private one-tenant cluster: builds a SessionManager
  /// for `config` and joins it as session 1. The manager lives exactly as
  /// long as the session.
  explicit Session(Config config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Config& config() const { return config_; }
  /// This session's counters, with the cluster's as parent: counters
  /// raised below the session (under the MetricsScope that Materialize and
  /// Fetch* install) land here and on the cluster, while storage, recovery
  /// and band counters land on the cluster alone (`metrics().parent()`).
  Metrics& metrics() { return metrics_; }
  graph::TileableGraph& tileable_graph() { return tileable_graph_; }
  /// Tenant id under the SessionManager, from 1.
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
  friend class SessionManager;
  /// The one construction path: joins `manager`, or `owned` (which the
  /// session then keeps alive) when that is set.
  Session(std::unique_ptr<SessionManager> owned, SessionManager* manager,
          const SessionOptions& options);

  /// Projected memory footprint of the un-materialized part of the graph,
  /// the reservation Admit arbitrates between concurrent submissions:
  /// est_rows * 8 bytes * columns per source when row counts are known,
  /// one chunk_store_limit per opaque node otherwise.
  int64_t EstimatePendingBytes(
      const std::vector<graph::TileableNode*>& topo) const;

  /// Lifetime handle of a private manager (null when joined through
  /// CreateSession); declared first so it is destroyed last.
  std::unique_ptr<SessionManager> owned_manager_;
  SessionManager* const manager_;
  const int64_t session_id_;
  Config config_;
  Metrics metrics_;
  graph::TileableGraph tileable_graph_;
  graph::ChunkGraph chunk_graph_;
  /// Optimizer pipelines (declared before driver_, which keeps a pointer).
  optimizer::PassManager pass_manager_;
  std::unique_ptr<tiling::TilingDriver> driver_;
};

}  // namespace xorbits::core

#endif  // XORBITS_CORE_SESSION_H_
