#include "tiling/tiling_driver.h"

#include "common/logging.h"
#include "common/trace_names.h"
#include "common/tracing.h"
#include "optimizer/fusion.h"
#include "services/result_cache.h"

namespace xorbits::tiling {

using graph::ChunkNode;
using graph::TileableNode;
using operators::TileableOp;
using operators::TileContext;
using operators::TileTask;

TilingDriver::TilingDriver(const Config& config, Metrics* metrics,
                           services::StorageService* storage,
                           services::MetaService* meta,
                           graph::ChunkGraph* chunk_graph,
                           optimizer::PassManager* pass_manager,
                           scheduler::Executor* executor,
                           scheduler::RunOptions run_options)
    : config_(config),
      metrics_(metrics),
      storage_(storage),
      meta_(meta),
      chunk_graph_(chunk_graph),
      pass_manager_(pass_manager),
      executor_(executor),
      run_options_(run_options) {}

void TilingDriver::BindResultCache(services::ResultCache* cache) {
  result_cache_ = cache;
}

Status TilingDriver::ExecutePartial(
    const std::vector<ChunkNode*>& targets) {
  std::vector<ChunkNode*> closure = graph::PendingClosure(targets);
  if (closure.empty()) return Status::OK();
  Tracer* tr = config_.trace.sink;
  const int pid = config_.trace.pid;
  TraceSpan partial_span(tr, pid, kTrackSupervisor,
                         trace::kSpanExecutePartial);
  partial_span.AddArg(Arg("pending", static_cast<int64_t>(closure.size())));
  XORBITS_RETURN_NOT_OK(pass_manager_->RunChunkPipeline(
      chunk_graph_, &closure, targets,
      result_cache_ != nullptr ? &pinned_sigs_ : nullptr));
  // The unfused subtask graph is the physical-plan baseline; fusion (and
  // any other subtask rewrites) happen in the subtask pipeline.
  graph::SubtaskGraph st_graph =
      optimizer::BuildUnfusedSubtaskGraph(closure, targets, metrics_);
  XORBITS_RETURN_NOT_OK(
      pass_manager_->RunSubtaskPipeline(&st_graph, closure, targets));
  partial_span.AddArg(
      Arg("subtasks", static_cast<int64_t>(st_graph.subtasks.size())));
  return executor_->Run(&st_graph, deadline_, run_options_);
}

Status TilingDriver::TileAndRun(
    const std::vector<TileableNode*>& topo_order,
    const std::vector<TileableNode*>& sinks) {
  // Epilogue on every exit path: release the cache pins this submission's
  // partial executions took, making those entries evictable again. Runs
  // after the last consuming Run has finished (or failed) — the window the
  // pin exists to cover.
  struct PinRelease {
    TilingDriver* d;
    ~PinRelease() {
      if (d->result_cache_ != nullptr && !d->pinned_sigs_.empty()) {
        d->result_cache_->Unpin(d->pinned_sigs_);
        d->pinned_sigs_.clear();
      }
    }
  } pin_release{this};
  deadline_ = config_.task_deadline_ms > 0
                  ? std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.task_deadline_ms)
                  : std::chrono::steady_clock::time_point::max();
  TileContext tctx(config_, meta_, chunk_graph_, metrics_);
  for (TileableNode* node : topo_order) {
    if (node->tiled) continue;
    if (std::chrono::steady_clock::now() >= deadline_) {
      return Status::Timeout("tiling deadline exceeded");
    }
    auto* op = dynamic_cast<TileableOp*>(node->op.get());
    if (op == nullptr) {
      return Status::Invalid("tileable node without a tileable operator");
    }
    // The tile span stays open across every co_yield suspension of the
    // tile coroutine: it covers the metadata-driven partial executions the
    // operator waited for, in simulated time (see common/tracing.h).
    Tracer* tr = config_.trace.sink;
    TraceSpan tile_span;
    if (tr != nullptr) {
      tile_span = TraceSpan(tr, config_.trace.pid, kTrackTiling,
                            trace::kSpanTilePrefix + std::string(op->type_name()),
                            {});
    }
    int64_t yields = 0;
    TileTask task = op->Tile(tctx, node);
    while (task.Resume()) {
      // The coroutine needs execution metadata: run the partial graph.
      if (tr != nullptr) {
        tr->Instant(config_.trace.pid, kTrackTiling, trace::kEventTileYield,
                    {Arg("op", op->type_name()),
                     Arg("pending_chunks", static_cast<int64_t>(
                                               task.pending().chunks.size()))});
      }
      ++yields;
      XORBITS_RETURN_NOT_OK(
          ExecutePartial(task.pending().chunks)
              .WithContext(std::string("while dynamically tiling ") +
                           op->type_name()));
    }
    tile_span.AddArg(Arg("yields", yields));
    tile_span.AddArg(
        Arg("chunks", static_cast<int64_t>(node->chunks.size())));
    XORBITS_RETURN_NOT_OK(
        task.result().WithContext(std::string("tiling ") + op->type_name()));
    if (!node->tiled) {
      return Status::ExecutionError(std::string(op->type_name()) +
                                    " finished tile() without tiling");
    }
  }
  // Materialize the sinks.
  std::vector<ChunkNode*> targets;
  for (TileableNode* sink : sinks) {
    for (ChunkNode* c : sink->chunks) targets.push_back(c);
  }
  return ExecutePartial(targets);
}

Result<std::vector<services::ChunkDataPtr>> TilingDriver::FetchChunks(
    const TileableNode* node) {
  if (!node->tiled) return Status::Invalid("fetch of untiled tileable");
  if (Tracer* tr = config_.trace.sink) {
    tr->Instant(config_.trace.pid, kTrackSupervisor, trace::kEventFetch,
                {Arg("chunks", static_cast<int64_t>(node->chunks.size()))});
  }
  std::vector<services::ChunkDataPtr> out;
  out.reserve(node->chunks.size());
  for (const ChunkNode* c : node->chunks) {
    // A result chunk may have gone down with a band after it was computed;
    // rebuild it from lineage instead of leaking kChunkLost to the user.
    XORBITS_RETURN_NOT_OK(executor_->EnsureChunkAvailable(c->key));
    XORBITS_ASSIGN_OR_RETURN(services::ChunkDataPtr data,
                             storage_->Get(c->key, /*requesting_band=*/-1));
    out.push_back(std::move(data));
  }
  return out;
}

}  // namespace xorbits::tiling
