#include "common/config.h"

namespace xorbits {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kXorbits: return "xorbits";
    case EngineKind::kPandasLike: return "pandas";
    case EngineKind::kDaskLike: return "dask";
    case EngineKind::kModinLike: return "modin";
    case EngineKind::kSparkLike: return "pyspark";
  }
  return "?";
}

Status Config::Validate() const {
  if (num_workers <= 0) {
    return Status::Invalid("num_workers must be positive, got " +
                           std::to_string(num_workers));
  }
  if (bands_per_worker <= 0) {
    return Status::Invalid("bands_per_worker must be positive, got " +
                           std::to_string(bands_per_worker));
  }
  if (band_memory_limit <= 0) {
    return Status::Invalid("band_memory_limit must be positive, got " +
                           std::to_string(band_memory_limit));
  }
  if (max_concurrent_sessions < 0) {
    return Status::Invalid("max_concurrent_sessions must be >= 0 (0 = "
                           "unlimited), got " +
                           std::to_string(max_concurrent_sessions));
  }
  // 0 would admit a session that can never store a byte; -1 is the explicit
  // "disabled" sentinel. Anything below -1 is a sign bug in the caller.
  if (session_memory_quota_bytes == 0 || session_memory_quota_bytes < -1) {
    return Status::Invalid(
        "session_memory_quota_bytes must be positive or -1 (disabled), "
        "got " +
        std::to_string(session_memory_quota_bytes));
  }
  if (admission_queue_depth < 0) {
    return Status::Invalid("admission_queue_depth must be >= 0, got " +
                           std::to_string(admission_queue_depth));
  }
  if (admission_timeout_ms < 0) {
    return Status::Invalid("admission_timeout_ms must be >= 0, got " +
                           std::to_string(admission_timeout_ms));
  }
  if (session_priority < 1 || session_priority > 100) {
    return Status::Invalid("session_priority must be in [1, 100], got " +
                           std::to_string(session_priority));
  }
  if (session_max_inflight < 0) {
    return Status::Invalid("session_max_inflight must be >= 0 (0 = "
                           "unlimited), got " +
                           std::to_string(session_max_inflight));
  }
  if (shuffle_block_bytes <= 0) {
    return Status::Invalid("shuffle_block_bytes must be positive, got " +
                           std::to_string(shuffle_block_bytes));
  }
  if (exchange_backpressure_watermark <= 0.0 ||
      exchange_backpressure_watermark > 1.0) {
    return Status::Invalid(
        "exchange_backpressure_watermark must be in (0, 1], got " +
        std::to_string(exchange_backpressure_watermark));
  }
  // A zero/negative budget with the cache on would evict every publish
  // immediately — an un-usable cache is a config bug, not a policy.
  if (enable_result_cache && result_cache_budget_bytes <= 0) {
    return Status::Invalid(
        "result_cache_budget_bytes must be positive when "
        "enable_result_cache is set, got " +
        std::to_string(result_cache_budget_bytes));
  }
  return Status::OK();
}

Config Config::Preset(EngineKind kind) {
  Config c;
  c.engine = kind;
  // Every engine keeps late materialization: it is a physical rewrite with
  // byte-identical results, not a tiling policy the baselines differ on.
  switch (kind) {
    case EngineKind::kXorbits:
      // The full system (OptimizerSpec defaults); the storage service
      // spills cold chunks to disk (paper §V-C memory->disk StorageLevels).
      c.enable_spill = true;
      break;
    case EngineKind::kPandasLike:
      // Single-threaded, single in-memory space, no tiling, no optimizer.
      c.num_workers = 1;
      c.bands_per_worker = 1;
      c.cpus_per_band = 1;  // pandas kernels hold the GIL
      c.dynamic_tiling = false;
      c.optimizer.tileable = {};
      c.optimizer.chunk = {};
      c.optimizer.subtask = {};
      c.reduce_policy = ReducePolicy::kTree;
      break;
    case EngineKind::kDaskLike:
      // Static task graphs built ahead of execution; tree-reduce default
      // aggregations; no runtime metadata; no op fusion.
      c.dynamic_tiling = false;
      c.optimizer.chunk = {};
      c.reduce_policy = ReducePolicy::kTree;
      c.enable_spill = true;  // Dask workers spill to disk
      break;
    case EngineKind::kModinLike:
      // Static row partitioning decided from the initial source size; no
      // spill management (Ray workers die on memory pressure). Modin's
      // query compiler fuses per-partition pipelines, so graph-level
      // fusion stays on; it neither prunes columns nor fuses ops.
      c.dynamic_tiling = false;
      c.optimizer.tileable = {};
      c.optimizer.chunk = {};
      c.reduce_policy = ReducePolicy::kShuffle;
      c.enable_spill = false;
      break;
    case EngineKind::kSparkLike:
      // Static physical plans with size-rule shuffles; Catalyst prunes and
      // pushes down; whole-stage fusion is comparable to graph fusion, so
      // keep it on; no op fusion; spill supported.
      c.dynamic_tiling = false;
      c.optimizer.chunk = {};
      c.reduce_policy = ReducePolicy::kShuffle;
      c.enable_spill = true;
      break;
  }
  return c;
}

}  // namespace xorbits
