#include "optimizer/pass_manager.h"

#include <chrono>

#include "common/trace_names.h"
#include "common/tracing.h"
#include "graph/rewrite.h"

namespace xorbits::optimizer {

namespace {

/// Gauge slot for one pass: level letter + pipeline index + name
/// ("t1_column_pruning"). Stable across runs of the same config, so run
/// reports can list the pipeline in order.
std::string Slot(char level, size_t index, const char* name) {
  return std::string(1, level) + std::to_string(index) + "_" + name;
}

}  // namespace

PassManager::PassManager(const Config& config, Metrics* metrics)
    : config_(config), metrics_(metrics) {}

PassManager::~PassManager() = default;

void PassManager::BindResultCache(services::ResultCache* cache,
                                  services::MetaService* meta,
                                  int64_t session_id) {
  result_cache_ = cache;
  cache_meta_ = meta;
  cache_session_id_ = session_id;
}

Status PassManager::EnsureInit() {
  if (initialized_) return Status::OK();
  const OptimizerSpec& spec = config_.optimizer;
  for (const std::string& name : spec.tileable) {
    auto pass = MakeTileablePass(name);
    if (pass == nullptr) {
      return Status::Invalid("unknown tileable pass: " + name);
    }
    tileable_.push_back(std::move(pass));
  }
  // The result-cache rewrite must see the pre-fusion closure, so it leads
  // the chunk pipeline exactly when a cache is bound, and runs once even
  // when the spec names it too.
  std::vector<std::string> chunk;
  if (result_cache_ != nullptr) chunk.push_back(kPassResultCache);
  for (const std::string& name : spec.chunk) {
    if (name != kPassResultCache) chunk.push_back(name);
  }
  for (const std::string& name : chunk) {
    auto pass = MakeChunkPass(name);
    if (pass == nullptr) {
      return Status::Invalid("unknown chunk pass: " + name);
    }
    chunk_.push_back(std::move(pass));
  }
  for (const std::string& name : spec.subtask) {
    auto pass = MakeSubtaskPass(name);
    if (pass == nullptr) {
      return Status::Invalid("unknown subtask pass: " + name);
    }
    subtask_.push_back(std::move(pass));
  }
  initialized_ = true;
  return Status::OK();
}

namespace {

/// Runs one pass with the shared instrumentation: a trace span, wall time,
/// and the per-slot gauges the run report's optimizer section reads.
template <typename RunFn>
Result<PassStats> Instrumented(const Config& config, Metrics* metrics,
                               char level, size_t index, const char* name,
                               RunFn&& run) {
  Tracer* tr = config.trace.sink;
  TraceSpan span;
  if (tr != nullptr) {
    span = TraceSpan(tr, config.trace.pid, kTrackSupervisor,
                     std::string(trace::kSpanPassPrefix) + name, {});
  }
  const auto start = std::chrono::steady_clock::now();
  Result<PassStats> result = run();
  const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  if (!result.ok()) return result;
  span.AddArg(Arg("removed", result->nodes_removed));
  span.AddArg(Arg("rewritten", result->nodes_rewritten));
  if (metrics != nullptr) {
    const std::string slot = Slot(level, index, name);
    metrics->registry
        .GetGauge(std::string(trace::kGaugePassRunsPrefix) + slot, "count")
        ->Add(1);
    metrics->registry
        .GetGauge(std::string(trace::kGaugePassUsPrefix) + slot, "us")
        ->Add(us);
    metrics->registry
        .GetGauge(std::string(trace::kGaugePassRemovedPrefix) + slot, "count")
        ->Add(result->nodes_removed);
    metrics->registry
        .GetGauge(std::string(trace::kGaugePassRewrittenPrefix) + slot,
                  "count")
        ->Add(result->nodes_rewritten);
  }
  return result;
}

}  // namespace

Status PassManager::RunTileablePipeline(
    graph::TileableGraph* graph, std::vector<graph::TileableNode*>* topo,
    const std::vector<graph::TileableNode*>& sinks) {
  XORBITS_RETURN_NOT_OK(EnsureInit());
  PassContext ctx;
  ctx.config = &config_;
  ctx.metrics = metrics_;
  ctx.tileable_graph = graph;
  for (size_t i = 0; i < tileable_.size(); ++i) {
    TileablePass* pass = tileable_[i].get();
    Result<PassStats> r =
        Instrumented(config_, metrics_, 't', i, pass->name(),
                     [&] { return pass->Run(ctx, topo, sinks); });
    if (!r.ok()) {
      return r.status().WithContext(std::string("in tileable pass ") +
                                    pass->name());
    }
    XORBITS_RETURN_NOT_OK(
        graph::VerifyTileableList(*topo, sinks)
            .WithContext(std::string("after tileable pass ") + pass->name()));
  }
  return Status::OK();
}

Status PassManager::RunChunkPipeline(
    graph::ChunkGraph* graph, std::vector<graph::ChunkNode*>* closure,
    const std::vector<graph::ChunkNode*>& must_persist,
    std::vector<std::string>* pinned_sigs) {
  XORBITS_RETURN_NOT_OK(EnsureInit());
  PassContext ctx;
  ctx.config = &config_;
  ctx.metrics = metrics_;
  ctx.chunk_graph = graph;
  ctx.result_cache = result_cache_;
  ctx.meta = cache_meta_;
  ctx.session_id = cache_session_id_;
  ctx.pinned_sigs = pinned_sigs;
  for (size_t i = 0; i < chunk_.size(); ++i) {
    ChunkPass* pass = chunk_[i].get();
    Result<PassStats> r =
        Instrumented(config_, metrics_, 'c', i, pass->name(),
                     [&] { return pass->Run(ctx, closure, must_persist); });
    if (!r.ok()) {
      return r.status().WithContext(std::string("in chunk pass ") +
                                    pass->name());
    }
    XORBITS_RETURN_NOT_OK(
        graph::VerifyChunkClosure(*closure, must_persist)
            .WithContext(std::string("after chunk pass ") + pass->name()));
  }
  return Status::OK();
}

Status PassManager::RunSubtaskPipeline(
    graph::SubtaskGraph* st_graph,
    const std::vector<graph::ChunkNode*>& closure,
    const std::vector<graph::ChunkNode*>& must_persist) {
  XORBITS_RETURN_NOT_OK(EnsureInit());
  PassContext ctx;
  ctx.config = &config_;
  ctx.metrics = metrics_;
  for (size_t i = 0; i < subtask_.size(); ++i) {
    SubtaskPass* pass = subtask_[i].get();
    Result<PassStats> r = Instrumented(
        config_, metrics_, 's', i, pass->name(),
        [&] { return pass->Run(ctx, st_graph, closure, must_persist); });
    if (!r.ok()) {
      return r.status().WithContext(std::string("in subtask pass ") +
                                    pass->name());
    }
    XORBITS_RETURN_NOT_OK(
        graph::VerifySubtaskGraph(*st_graph, closure, must_persist)
            .WithContext(std::string("after subtask pass ") + pass->name()));
  }
  return Status::OK();
}

}  // namespace xorbits::optimizer
