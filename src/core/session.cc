#include "core/session.h"

#include <algorithm>

#include "common/trace_names.h"
#include "common/tracing.h"
#include "core/session_manager.h"
#include "dataframe/kernels.h"
#include "tensor/ndarray.h"

namespace xorbits::core {

namespace {

/// Registers the session with the trace sink (when one is configured) and
/// stores the returned process id back into the config, before the services
/// copy it. Runs first in the member-init order (config_ precedes storage_
/// and driver_).
Config RegisterTraceProcess(Config config) {
  if (config.trace.sink != nullptr && config.trace.pid == 0) {
    config.trace.pid = config.trace.sink->RegisterProcess(
        EngineKindName(config.engine), config.total_bands());
  }
  return config;
}

}  // namespace

Session::Session(Config config)
    : config_(RegisterTraceProcess(std::move(config))),
      owned_storage_(std::make_unique<services::StorageService>(config_,
                                                                &metrics_)),
      storage_(owned_storage_.get()),
      owned_meta_(std::make_unique<services::MetaService>()),
      meta_(owned_meta_.get()),
      pass_manager_(config_, &metrics_),
      driver_(std::make_unique<tiling::TilingDriver>(
          config_, &metrics_, storage_, meta_, &chunk_graph_,
          &pass_manager_)) {
  meta_->BindObservability(&metrics_);
  if (config_.enable_result_cache) {
    // Solo "cross-session" reuse is within-session across Materialize
    // calls (the session owns its cluster); the plumbing is identical.
    owned_result_cache_ = std::make_unique<services::ResultCache>(
        config_, storage_, &metrics_);
    pass_manager_.BindResultCache(owned_result_cache_.get(), meta_,
                                  /*session_id=*/-1);
    driver_->BindResultCache(owned_result_cache_.get());
  }
}

Session::Session(SessionManager* manager, Config config, int64_t session_id)
    : config_(RegisterTraceProcess(std::move(config))),
      metrics_(&manager->metrics()),
      manager_(manager),
      session_id_(session_id),
      storage_(&manager->storage()),
      meta_(&manager->meta()),
      pass_manager_(config_, &metrics_) {
  // Namespace this tenant's chunk keys so co-tenants never collide and the
  // storage service can attribute bytes to the session for its quota.
  chunk_graph_.set_key_prefix("s" + std::to_string(session_id) + "/");
  scheduler::RunOptions opts;
  opts.session_id = session_id;
  opts.priority = config_.session_priority;
  opts.max_inflight = config_.session_max_inflight;
  opts.metrics = &metrics_;
  opts.trace = config_.trace;
  driver_ = std::make_unique<tiling::TilingDriver>(
      config_, &metrics_, storage_, meta_, &chunk_graph_, &pass_manager_,
      &manager->executor(), opts);
  if (services::ResultCache* cache = manager->result_cache()) {
    pass_manager_.BindResultCache(cache, meta_, session_id);
    driver_->BindResultCache(cache);
  }
}

Session::~Session() {
  // A closed tenant's chunks and meta must not linger in the shared
  // cluster: free its key namespace (also releasing its quota bytes).
  if (manager_ != nullptr) manager_->OnSessionClose(session_id_);
  // Hand the final metrics to the trace sink so run reports (rendered after
  // every session is gone) still see this session's counters/histograms.
  if (config_.trace.sink != nullptr) {
    config_.trace.sink->SetProcessMetrics(config_.trace.pid,
                                          metrics_.Snapshot());
  }
}

graph::TileableNode* Session::AddTileable(
    std::shared_ptr<graph::OperatorBase> op,
    std::vector<graph::TileableNode*> inputs,
    std::vector<std::string> columns, int output_index) {
  graph::TileableNode* node =
      tileable_graph_.AddNode(std::move(op), std::move(inputs), output_index);
  node->columns = std::move(columns);
  if (Tracer* tr = config_.trace.sink) {
    tr->Instant(config_.trace.pid, kTrackSupervisor, trace::kEventAddTileable,
                {Arg("op", node->op->type_name()),
                 Arg("node", node->id)});
  }
  return node;
}

Status Session::Materialize(
    const std::vector<graph::TileableNode*>& sinks) {
  MetricsScope metrics_scope(&metrics_);
  std::vector<graph::TileableNode*> topo = tileable_graph_.TopologicalOrder();
  Tracer* tr = config_.trace.sink;
  TraceSpan mat_span(tr, config_.trace.pid, kTrackSupervisor,
                     trace::kSpanMaterialize);
  mat_span.AddArg(Arg("tileables", static_cast<int64_t>(topo.size())));
  XORBITS_RETURN_NOT_OK(
      pass_manager_.RunTileablePipeline(&tileable_graph_, &topo, sinks));
  if (manager_ == nullptr) return driver_->TileAndRun(topo, sinks);
  // Tenant submission: reserve projected memory through admission control
  // (queue / shed under load; see DESIGN.md §8), run, release.
  TraceSpan submit_span(tr, config_.trace.pid, kTrackSupervisor,
                        trace::kSpanSessionSubmit);
  const int64_t estimate = EstimatePendingBytes(topo);
  submit_span.AddArg(Arg("estimated_bytes", estimate));
  XORBITS_RETURN_NOT_OK(manager_->Admit(session_id_, estimate));
  Status run_status = driver_->TileAndRun(topo, sinks);
  manager_->Release(session_id_);
  return run_status;
}

int64_t Session::EstimatePendingBytes(
    const std::vector<graph::TileableNode*>& topo) const {
  int64_t total = 0;
  for (const graph::TileableNode* node : topo) {
    if (node->tiled) continue;
    if (node->est_rows > 0) {
      const int64_t cols =
          std::max<int64_t>(1, static_cast<int64_t>(node->columns.size()));
      total += node->est_rows * 8 * cols;
    } else {
      // Opaque node: assume one full chunk until tiling learns better.
      total += config_.chunk_store_limit;
    }
  }
  return total;
}

Result<dataframe::DataFrame> Session::FetchDataFrame(
    graph::TileableNode* node) {
  MetricsScope metrics_scope(&metrics_);
  // Materialize is incremental (tiled nodes and executed chunks are
  // skipped), so always run it: a tiled multi-output sibling may still have
  // unexecuted chunks.
  XORBITS_RETURN_NOT_OK(Materialize({node}));
  XORBITS_ASSIGN_OR_RETURN(auto chunks, driver_->FetchChunks(node));
  std::vector<const dataframe::DataFrame*> pieces;
  for (const auto& c : chunks) {
    XORBITS_ASSIGN_OR_RETURN(const dataframe::DataFrame* df,
                             services::AsDataFrame(c));
    pieces.push_back(df);
  }
  dataframe::DataFrame out;
  if (pieces.empty()) {
    return out;
  } else if (pieces.size() == 1) {
    out = *pieces[0];
  } else {
    XORBITS_ASSIGN_OR_RETURN(out, dataframe::Concat(pieces));
  }
  // Result fetch is a genuine forcing point (DESIGN.md §10): the frame
  // crosses back into user code, so every pending selection and lazy slot
  // resolves here, metered as `selections_forced`. No-op on dense frames.
  out.Compact();
  // Fetched frames cross back into user code, which expects plain strings:
  // late-decode dictionary columns here, once, at the session boundary.
  // (Deliberately DictDecode, not DecodedFallback — leaving the engine is
  // the planned exit, not a kernel missing a fast path.)
  for (int i = 0; i < out.num_columns(); ++i) {
    if (out.column(i).is_dict()) {
      XORBITS_RETURN_NOT_OK(
          out.SetColumn(out.column_name(i), out.column(i).DictDecode()));
    }
  }
  return out;
}

Result<tensor::NDArray> Session::FetchTensor(graph::TileableNode* node) {
  MetricsScope metrics_scope(&metrics_);
  XORBITS_RETURN_NOT_OK(Materialize({node}));
  XORBITS_ASSIGN_OR_RETURN(auto chunks, driver_->FetchChunks(node));
  std::vector<const tensor::NDArray*> pieces;
  for (const auto& c : chunks) {
    XORBITS_ASSIGN_OR_RETURN(const tensor::NDArray* a,
                             services::AsNDArray(c));
    pieces.push_back(a);
  }
  if (pieces.empty()) return tensor::NDArray();
  if (pieces.size() == 1) return *pieces[0];
  return tensor::VStack(pieces);
}

}  // namespace xorbits::core
