#ifndef XORBITS_COMMON_CONFIG_H_
#define XORBITS_COMMON_CONFIG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace xorbits {

/// Which system's tiling/partitioning policy the engine emulates. Xorbits is
/// the full system; the other presets restrict the engine to the documented
/// behaviour of the paper's baselines so that the evaluation harness can
/// compare tiling *policies* inside one implementation (see DESIGN.md §1).
enum class EngineKind {
  kXorbits,     // dynamic tiling, fusion, auto rechunk, full API
  kPandasLike,  // single band, no tiling at all (pandas)
  kDaskLike,    // static tiling, row-only partitions, restricted API (Dask)
  kModinLike,   // static tiling, eager row partitioning, full pandas API
  kSparkLike,   // static plans w/ size rules, restricted pandas API (PySpark)
};

const char* EngineKindName(EngineKind kind);

class Tracer;

/// Structured-tracing hookup (see common/tracing.h). Off by default: with a
/// null `sink` every instrumentation site reduces to one pointer test and
/// allocates nothing. The owning session registers itself with the sink and
/// stores the returned process id here; services copy the Config, so they
/// all see the same (sink, pid) pair.
struct TraceConfig {
  Tracer* sink = nullptr;
  /// Process id of this session inside `sink` (1-based; 0 = unregistered).
  int pid = 0;

  bool enabled() const { return sink != nullptr; }
};

/// How a multi-chunk aggregation is reduced (paper §IV-C "Auto Reduce
/// Selection"). kAuto executes the head map chunk and picks tree-reduce
/// when the estimated aggregated size fits Config::chunk_store_limit,
/// shuffle-reduce otherwise.
enum class ReducePolicy { kAuto, kTree, kShuffle };

/// Pipeline spec for the three-level optimizer (src/optimizer/pass.h): one
/// ordered pass-name list per graph level, run exactly as listed. The
/// defaults are the full Xorbits pipelines; Config::Preset states each
/// baseline engine's lists (DESIGN.md §6). The `result_cache` pass is not
/// listed here: it leads the chunk pipeline whenever a result cache is
/// bound. Unknown names fail Materialize with an Invalid status naming the
/// pass.
struct OptimizerSpec {
  std::vector<std::string> tileable{"predicate_pushdown", "column_pruning",
                                    "dead_node_elim"};
  std::vector<std::string> chunk{"op_fusion", "cse"};
  std::vector<std::string> subtask{"graph_fusion"};
};

/// Engine + simulated cluster configuration.
struct Config {
  EngineKind engine = EngineKind::kXorbits;

  // --- cluster topology (simulated) ---
  int num_workers = 1;
  int bands_per_worker = 2;  // NUMA sockets per node in the paper's testbed
  /// Execution slots (vCPUs) modeled per band. The paper's r6i.8xlarge
  /// workers expose 32 vCPUs across 2 NUMA bands, i.e. 16 per band; the
  /// default is smaller so unit tests stay light. Each worker node gets one
  /// shared kernel pool sized bands_per_worker * cpus_per_band, capped at
  /// the worker's share of the host's hardware threads, and per-subtask
  /// parallel-kernel CPU is divided by this count in the simulated cost
  /// model. 1 disables intra-operator parallelism.
  int cpus_per_band = 4;
  /// Memory budget per band in bytes; chunk bytes are accounted against it.
  int64_t band_memory_limit = 256LL << 20;
  /// Whether the storage service may spill cold chunks to disk instead of
  /// failing with OutOfMemory.
  bool enable_spill = false;
  std::string spill_dir = "/tmp/xorbits_spill";

  // --- pipelined shuffle (see DESIGN.md §11) ---
  // Shuffle-map output always streams through the block exchange:
  // partitions are emitted as fixed-size blocks and reduce-side subtasks
  // become runnable as soon as every input block for their partition
  // exists — not when every mapper has finished.
  /// Target payload bytes per shuffle block. Mappers cut their per-partition
  /// output into blocks of at most this many logical bytes (the last block
  /// of a partition may be smaller; a partition always emits at least one
  /// block so empty partitions keep their schema).
  int64_t shuffle_block_bytes = 2LL << 20;
  /// Flow control: when a producing band's in-memory usage exceeds this
  /// fraction of band_memory_limit at block-push time, the exchange spills
  /// its own cold blocks on that band before accepting the new block
  /// (metered as exchange_backpressure_us). Valid range (0, 1].
  double exchange_backpressure_watermark = 0.8;

  // --- physical encoding ---
  /// Return xparquet dictionary-page string columns as int32 codes over one
  /// deduplicated dictionary per read; when false they decode to plain
  /// strings. The writer picks each column's pages (dictionary pages for
  /// repeated values), so plain-page columns are plain either way. Keyed
  /// kernels (groupby, join, shuffle partitioning) and string predicates
  /// then work on codes; the encoding never changes results — fetched
  /// frames decode on the way out.
  bool dict_encode = true;

  // --- tiling ---
  bool dynamic_tiling = true;
  /// Upper bound for one chunk's payload; auto merge concatenates chunks and
  /// auto rechunk splits dimensions against this limit.
  int64_t chunk_store_limit = 64LL << 20;
  ReducePolicy reduce_policy = ReducePolicy::kAuto;

  // --- optimizer ---
  /// Per-level rewrite-pass pipelines (see src/optimizer/pass.h and
  /// DESIGN.md §6): graph-level fusion, op fusion + CSE, column pruning,
  /// predicate pushdown and late materialization (DESIGN.md §10) are all
  /// selected by naming their pass here.
  OptimizerSpec optimizer;

  /// When true, the API layer enforces each emulated engine's documented
  /// API gaps at call time (used by the API-coverage benchmark, Table V).
  /// Performance benches leave this off: the paper's authors applied
  /// workarounds to get baselines running before timing them.
  bool strict_api_emulation = false;

  // --- scheduler ---
  /// Wall-clock deadline for one task graph; exceeding it is classified as a
  /// hang (StatusCode::kTimeout), mirroring the paper's Table II.
  int64_t task_deadline_ms = 120000;
  bool locality_aware = true;

  // --- fault tolerance ---
  /// Max re-executions of one subtask after a retryable failure (transient
  /// I/O flake, lost band, per-subtask timeout). Fatal errors never retry.
  int max_subtask_retries = 3;
  /// Capped exponential backoff between attempts:
  /// min(base << (attempt-1), cap), in milliseconds.
  int64_t retry_backoff_base_ms = 1;
  int64_t retry_backoff_cap_ms = 50;
  /// Per-subtask wall-clock budget; an attempt that overruns it is rolled
  /// back and retried as a straggler (0 disables). Checked cooperatively
  /// after the kernel returns — a kernel that never returns is caught by the
  /// task-level deadline instead.
  int64_t subtask_timeout_ms = 0;
  /// Cap on lineage-recovery recompute depth (ancestor chain of lost
  /// chunks) before the executor gives up with the original kChunkLost.
  int max_recovery_depth = 64;

  // --- fault injection (deterministic chaos; see common/fault_injector.h) ---
  /// Seed for the per-(subtask, attempt) transient-fault hash. The same
  /// seed reproduces the same injected faults run over run.
  uint64_t fault_seed = 0;
  /// Probability that one subtask attempt fails with an injected transient
  /// (retryable) fault. 0 disables transient injection.
  double fault_transient_prob = 0.0;
  /// Band-kill schedule: after the cluster completes `first` subtasks, band
  /// `second` dies — its queued subtasks are re-placed, its stored chunks
  /// are lost, and it is blacklisted for the rest of the executor's life.
  std::vector<std::pair<int64_t, int>> fault_band_kills;
  /// Chunk-loss schedule: after the cluster completes N subtasks, one
  /// persisted chunk (deterministically the lexicographically smallest
  /// lineage-tracked key) is dropped from storage.
  std::vector<int64_t> fault_chunk_losses;

  // --- multi-tenancy (see DESIGN.md §8) ---
  /// Sessions the admission controller lets run graphs concurrently;
  /// 0 = unlimited. A submission into an idle cluster is always admitted
  /// without queuing.
  int max_concurrent_sessions = 0;
  /// Per-session cap on *in-memory* stored bytes, enforced by the storage
  /// service with graceful degradation (spill the session's own cold chunks
  /// first, fail only that session with kQuotaExceeded when spilling cannot
  /// help). -1 disables; 0 is rejected by Validate() — an un-runnable quota
  /// is a config bug, not a policy.
  int64_t session_memory_quota_bytes = -1;
  /// Submissions allowed to wait for admission before newcomers are shed
  /// with kOverloaded (+ backoff hint). 0 = shed immediately when full.
  int admission_queue_depth = 16;
  /// How long one submission may wait in the admission queue before it is
  /// shed anyway (bounds client latency under persistent overload).
  int64_t admission_timeout_ms = 10000;
  /// Weighted-fair share of this session in the executor's cross-session
  /// ready queue: a priority-2 session accrues virtual work at half the
  /// rate of a priority-1 one, so it gets ~2x the band slots under
  /// contention. Valid range [1, 100].
  int session_priority = 1;
  /// Cap on this session's concurrently executing subtasks across all
  /// bands (0 = unlimited). A blunt anti-starvation guard on top of
  /// weighted fairness.
  int session_max_inflight = 0;

  // --- result cache (see DESIGN.md §9) ---
  /// Cross-session plan-fragment/result cache: a chunk-level optimizer pass
  /// (`result_cache`) rewrites sub-plans whose transitive CacheSignature
  /// matches an already-materialized chunk into fetches of that chunk, and
  /// the executor publishes completed cacheable chunks under the shared
  /// `cache/` key namespace. Off by default: single-shot sessions pay
  /// signature hashing for no reuse.
  bool enable_result_cache = false;
  /// Cluster-level byte budget for the `cache/` namespace. Cached chunks
  /// are charged here — never to any tenant's session_memory_quota_bytes —
  /// and evicted LRU (unpinned entries only) when the budget is exceeded.
  /// Must be positive when the cache is enabled.
  int64_t result_cache_budget_bytes = 64LL << 20;

  // --- observability ---
  /// Tracing sink + session process id; disabled (null sink) by default.
  TraceConfig trace;

  /// Total number of bands in the cluster.
  int total_bands() const { return num_workers * bands_per_worker; }

  /// Preset reproducing the named system's policy restrictions.
  static Config Preset(EngineKind kind);

  /// Rejects nonsensical values (non-positive topology, a zero quota,
  /// priority out of range, negative queue depth) with a message naming
  /// the field. Called by SessionManager before it builds a cluster.
  Status Validate() const;
};

}  // namespace xorbits

#endif  // XORBITS_COMMON_CONFIG_H_
