#ifndef XORBITS_SCHEDULER_EXECUTOR_H_
#define XORBITS_SCHEDULER_EXECUTOR_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "services/exchange_service.h"
#include "services/meta_service.h"
#include "services/storage_service.h"

namespace xorbits::services {
class ResultCache;
}  // namespace xorbits::services

namespace xorbits::scheduler {

/// Per-run scheduling identity for multi-tenant execution (DESIGN.md §8).
/// Defaults (used by runs outside any session): cluster-level metrics and
/// trace, priority 1, no in-flight cap.
struct RunOptions {
  /// Session the run belongs to (-1 = unattributed).
  int64_t session_id = -1;
  /// Weighted-fair share: a run accrues virtual work inversely to its
  /// priority, so priority-2 gets ~2x the band slots of priority-1 under
  /// contention. Valid range [1, 100].
  int priority = 1;
  /// Cap on this run's concurrently executing subtasks (0 = unlimited).
  int max_inflight = 0;
  /// Per-session metrics sink; null falls back to the executor's.
  Metrics* metrics = nullptr;
  /// Per-session trace identity; a disabled sink falls back to the
  /// executor's config trace.
  TraceConfig trace;
};

/// Runs subtask graphs on the simulated cluster: one serial dispatch slot
/// per band, dependency-ordered execution, byte-accurate storage accounting,
/// failure propagation and a wall-clock deadline (exceeding it reports the
/// paper's "hang" failure class).
///
/// Band workers are persistent threads created on first use and reused
/// across Run calls — dynamic tiling executes many partial graphs per
/// pipeline, so re-spawning num_bands threads per graph is pure overhead.
/// Each simulated worker node additionally owns a shared kernel ThreadPool
/// (bands_per_worker * cpus_per_band threads, capped at the worker's share
/// of the host's hardware threads) that its band workers install as the
/// current pool, giving chunk kernels morsel-driven intra-operator
/// parallelism. Kernel CPU burned on pool threads is aggregated per subtask
/// and divided by cpus_per_band in the simulated cost model, so
/// `simulated_us` reflects modeled parallel speedup whatever the host.
///
/// Fault tolerance (DESIGN.md § Failure model & recovery): subtask attempts
/// that fail with a retryable error (transient I/O flake, lost band,
/// per-subtask timeout) are rolled back and re-queued with capped
/// exponential backoff, up to `max_subtask_retries`. A band killed by the
/// fault injector is blacklisted for the executor's lifetime: its stored
/// chunks are dropped (tombstoned in storage), its queued subtasks are
/// re-placed on surviving bands, and later runs never schedule onto it.
/// When a subtask's input read surfaces kChunkLost, the executor rebuilds
/// the minimal recomputation subgraph from lineage recorded in the meta
/// service and re-executes it on the consuming band before retrying the
/// consumer. Fatal errors (kernel bugs, type errors, deterministic OOM)
/// still fail the run fast with their original error class.
///
/// Multi-tenancy: several Run calls (one per session thread) may be in
/// flight at once. Each band worker picks its next subtask across all
/// active runs by weighted-fair queueing — the eligible run with the least
/// accrued virtual work wins, where each dispatch charges virtual work
/// inversely proportional to the run's priority — under per-run in-flight
/// caps, so one heavy session cannot starve co-tenants of band slots.
/// Faults (band kills) apply cluster-wide: every active run's queue is
/// re-placed off the dead band.
class Executor {
 public:
  Executor(const Config& config, Metrics* metrics,
           services::StorageService* storage, services::MetaService* meta);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Assigns bands (placement), executes everything, and marks persisted
  /// chunk nodes executed. `deadline` is absolute; pass time_point::max()
  /// for no deadline. `opts` attributes the run to a session for
  /// weighted-fair scheduling, per-session metrics and tracing; the default
  /// charges the cluster. Thread-safe: concurrent Run calls share
  /// the band workers fairly.
  Status Run(graph::SubtaskGraph* st_graph,
             std::chrono::steady_clock::time_point deadline,
             const RunOptions& opts = {});

  /// Supervisor-side recovery hook: if `key` was lost (tombstoned), rebuild
  /// it from lineage on a surviving band. No-op when the chunk is present
  /// or never existed (the caller's read then surfaces the original
  /// error). Used by result fetch, which reads storage directly and would
  /// otherwise leak kChunkLost to the user.
  Status EnsureChunkAvailable(const std::string& key);

  /// Binds the cross-session result cache (DESIGN.md §9). Once set, every
  /// completed chunk whose node carries a `cache_plan_sig` (stamped by the
  /// result_cache optimizer pass on a probe miss) is published to the cache
  /// — from the persist branch and the fused-transient branch alike, since
  /// fusion routinely makes the cacheable payload an interior intermediate.
  /// Null (the default) disables publishing. Must outlive the executor.
  void set_result_cache(services::ResultCache* cache) {
    result_cache_ = cache;
  }

  /// The pipelined block exchange this executor owns (DESIGN.md §11).
  /// Every shuffle streams through it. Exposed for tests and benches that
  /// inspect seals or fetch partitions directly.
  services::ExchangeService* exchange() { return exchange_.get(); }

  /// Threads in `worker`'s kernel pool; 0 when kernels run on the band
  /// threads alone (cpus_per_band == 1).
  int kernel_pool_threads(int worker) const {
    const auto& pool = kernel_pools_.at(worker);
    return pool ? pool->num_threads() : 0;
  }

 private:
  struct RunState;

  /// One execution attempt. `uid` identifies the (run, subtask) pair for
  /// deterministic fault injection; `lost_key`, when non-null, receives the
  /// storage key whose read failed with kChunkLost. `metrics`/`trace` are
  /// the owning run's sinks (the executor's own for recovery work).
  /// `session_id` stamps the lineage this attempt records (-1 for none), so
  /// session close can purge lineages pointing into its graph arena.
  Status RunSubtask(graph::Subtask& subtask, int64_t uid, int attempt,
                    std::string* lost_key, Metrics* metrics,
                    const TraceConfig& trace, int64_t session_id = -1);
  /// Deletes every output this subtask already published (including shuffle
  /// partitions) and clears member nodes' executed flags, so a retry can
  /// re-publish without duplicate-key collisions.
  /// Tears down a failed attempt's published outputs. `tombstone` leaves
  /// kChunkLost markers behind (recovery-path rollback, where concurrent
  /// consumers may race the teardown) instead of deleting cleanly.
  void RollbackSubtask(graph::Subtask& subtask, bool tombstone = false);

  /// Serialized entry point for lineage recovery of one lost chunk;
  /// re-checks under the recovery lock whether a racing recovery already
  /// rebuilt it. Adds the recompute's modeled cost to `*sim_us`.
  Status RecoverLostChunk(const std::string& key, int band, int64_t* sim_us);
  /// Recomputes the producer of `key` (recursively recovering its own lost
  /// inputs first) on `band`. Caller holds recovery_mu_.
  Status RecoverKey(const std::string& key, int band, int depth,
                    int64_t* sim_us);

  void BandWorkerLoop(int band);
  void EnsureWorkersStarted();
  /// Weighted-fair pick: the active run with work queued for `band`, an
  /// open in-flight slot, and the least accrued virtual work (ties broken
  /// by session id for determinism). Null when no run is eligible. Caller
  /// holds mu_.
  RunState* PickRunLocked(int band);
  /// Applies band-kill / chunk-loss events due at `completed` cluster-wide
  /// finished subtasks. Caller holds mu_.
  void ProcessDueFaultsLocked(int64_t completed);
  /// Blacklists `band`, drops its chunks, re-places every active run's
  /// queue for it. Holds mu_.
  void KillBandLocked(int band);
  /// Chaos chunk-loss event: drops the lexicographically smallest
  /// lineage-tracked chunk. Caller holds mu_.
  void DropOneChunkLocked();
  /// Least-loaded surviving band, or -1 when every band is dead. Holds mu_.
  int AliveBandLocked(RunState* state) const;
  /// Queues `task_id`, re-placing it first if its band is dead. Holds mu_.
  void EnqueueLocked(RunState* state, int task_id);

  /// Exchange seal listener (DESIGN.md §11): a partition's block stream
  /// sealed mid-subtask; decrement every waiting reducer's outstanding
  /// seal count and enqueue the ones that just became runnable. Takes mu_.
  void OnPartitionSealed(const std::string& partition_key);
  /// True when `key` can be read right now: present in storage, or a
  /// sealed exchange partition with every block still readable.
  bool InputAvailable(const std::string& key) const;

  int64_t BackoffMs(int attempt) const;

  const Config& config_;
  Metrics* metrics_;
  services::StorageService* storage_;
  services::MetaService* meta_;
  services::ResultCache* result_cache_ = nullptr;
  /// Streaming shuffle path between mappers and reducers; constructed by
  /// the executor (no caller ripple) over its own storage + meta services.
  std::unique_ptr<services::ExchangeService> exchange_;
  FaultInjector injector_;

  // One kernel pool per simulated worker node, shared by its bands
  // (nullptr entries when cpus_per_band == 1).
  std::vector<std::unique_ptr<ThreadPool>> kernel_pools_;

  // Persistent band workers and the runs they are serving. Each RunState
  // is owned by its Run call's stack frame; it is appended to runs_ at
  // dispatch start and removed (under mu_, after its drain) before Run
  // returns, so workers never observe a dangling pointer.
  std::mutex mu_;
  std::condition_variable cv_;       // wakes band workers
  std::condition_variable done_cv_;  // wakes Run
  std::vector<std::thread> band_threads_;
  std::vector<RunState*> runs_;  // active runs, in admission order
  bool shutdown_ = false;
  bool workers_started_ = false;

  /// Bands killed by fault injection; permanent for this executor (guarded
  /// by mu_). Placement, dispatch and retry all route around them.
  std::vector<char> blacklisted_;
  /// Cluster-wide successfully-completed subtask count, the clock the
  /// injector's kill/loss schedules are expressed against (guarded by mu_).
  int64_t completed_subtasks_ = 0;
  /// Monotonic Run() sequence number; combined with subtask ids into the
  /// stable uids the injector hashes (guarded by mu_ at Run start).
  int64_t run_seq_ = 0;

  /// Serializes lineage recovery so two consumers missing the same chunk
  /// recompute it once, not twice into a duplicate-key collision.
  std::mutex recovery_mu_;
};

}  // namespace xorbits::scheduler

#endif  // XORBITS_SCHEDULER_EXECUTOR_H_
