#include "core/session.h"

#include <algorithm>

#include "common/trace_names.h"
#include "common/tracing.h"
#include "core/session_manager.h"
#include "dataframe/kernels.h"
#include "tensor/ndarray.h"

namespace xorbits::core {

Session::Session(Config config)
    : Session(std::unique_ptr<SessionManager>(
                  new SessionManager(std::move(config))),
              nullptr, SessionOptions{}) {}

Session::Session(std::unique_ptr<SessionManager> owned,
                 SessionManager* manager, const SessionOptions& options)
    : owned_manager_(std::move(owned)),
      manager_(owned_manager_ != nullptr ? owned_manager_.get() : manager),
      session_id_(manager_->OpenSession(options)),
      config_(manager_->SessionConfig(options)),
      metrics_(&manager_->metrics()),
      pass_manager_(config_, &metrics_) {
  // Namespace this session's chunk keys so co-tenants never collide and the
  // storage service can attribute bytes to the session for its quota.
  chunk_graph_.set_key_prefix("s" + std::to_string(session_id_) + "/");
  scheduler::RunOptions opts;
  opts.session_id = session_id_;
  opts.priority = config_.session_priority;
  opts.max_inflight = config_.session_max_inflight;
  opts.metrics = &metrics_;
  opts.trace = config_.trace;
  driver_ = std::make_unique<tiling::TilingDriver>(
      config_, &metrics_, &manager_->storage(), &manager_->meta(),
      &chunk_graph_, &pass_manager_, &manager_->executor(), opts);
  if (services::ResultCache* cache = manager_->result_cache()) {
    pass_manager_.BindResultCache(cache, &manager_->meta(), session_id_);
    driver_->BindResultCache(cache);
  }
}

Session::~Session() {
  // A closed session's chunks and meta must not linger in the shared
  // cluster: free its key namespace (also releasing its quota bytes).
  manager_->OnSessionClose(session_id_);
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
  // Reserve projected memory through admission control (queue / shed
  // under load; see DESIGN.md §8), run, release.
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
