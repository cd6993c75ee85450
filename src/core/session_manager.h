#ifndef XORBITS_CORE_SESSION_MANAGER_H_
#define XORBITS_CORE_SESSION_MANAGER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/config.h"
#include "common/metrics.h"
#include "scheduler/executor.h"
#include "services/meta_service.h"
#include "services/result_cache.h"
#include "services/storage_service.h"

namespace xorbits::core {

class Session;

/// Per-session knobs passed at CreateSession time. Zero means "inherit the
/// cluster Config's session_* default".
struct SessionOptions {
  /// Weighted-fair priority in [1, 100]; 0 = config.session_priority.
  int priority = 0;
  /// Per-session concurrent-subtask cap; 0 = config.session_max_inflight
  /// (where 0 in turn means unlimited).
  int max_inflight = 0;
};

/// The multi-tenant cluster front door (DESIGN.md §8). Owns the shared
/// cluster services — storage, meta, one executor with persistent band
/// workers, and the cluster-level Metrics they bind to — and hands out
/// Sessions whose graph submissions pass through admission control:
///
///   1. queue:  a submission that cannot run now waits (bounded by
///              admission_queue_depth slots and admission_timeout_ms);
///   2. spill:  an admitted session over its memory quota has its own cold
///              chunks spilled by the storage service;
///   3. shed:   a submission that cannot even queue is rejected with
///              kOverloaded + a backoff hint, before it consumes cluster
///              memory — the retryable "try again later" path;
///   4. fail-session: a session whose quota cannot be met even by spilling
///              fails alone with kQuotaExceeded; co-tenants never pay.
///
/// Tenant isolation is by key namespace: each session's chunk keys are
/// prefixed "s<id>/", which the storage service parses for per-session byte
/// accounting and the manager uses to free a closed session's state.
class SessionManager {
 public:
  /// Validates `config` (Config::Validate) and builds the shared cluster.
  /// An invalid config is reported here, before any service exists.
  static Result<std::unique_ptr<SessionManager>> Create(Config config);

  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session submitting into the shared cluster. The session keeps
  /// pointers into the manager, so it must not outlive it.
  std::unique_ptr<Session> CreateSession(SessionOptions options = {});

  const Config& config() const { return config_; }
  /// Cluster-level metrics: storage/spill/recovery counters shared by all
  /// tenants, plus the cluster-wide totals of the scoped counters every
  /// tenant session rolls up here. Per-session latency and each session's
  /// own scoped counters live in that Session's Metrics.
  Metrics& metrics() { return metrics_; }
  services::StorageService& storage() { return *storage_; }
  services::MetaService& meta() { return meta_; }
  scheduler::Executor& executor() { return *executor_; }
  /// Cluster-wide cross-session result cache (DESIGN.md §9); null unless
  /// config.enable_result_cache. Cached bytes live under the "cache/" key
  /// namespace and are charged to result_cache_budget_bytes here — never to
  /// any tenant's session_memory_quota_bytes.
  services::ResultCache* result_cache() { return result_cache_.get(); }

  /// Gates one graph submission (called by Session::Materialize).
  /// `estimated_bytes` is the submission's projected memory footprint,
  /// reserved against cluster capacity until Release. Blocks while the
  /// cluster is saturated; sheds with kOverloaded (carrying a backoff hint
  /// proportional to queue depth) when the admission queue is full or the
  /// wait exceeds admission_timeout_ms. A submission into an idle cluster
  /// is always admitted, whatever its estimate — progress over perfection.
  Status Admit(int64_t session_id, int64_t estimated_bytes);
  /// Returns the submission's reservation and wakes one queued waiter.
  void Release(int64_t session_id);

 private:
  friend class Session;

  explicit SessionManager(Config config);

  /// Session-constructor hooks: allocates the next session id (updating
  /// the live-session gauge), and derives the session's config — this
  /// manager's with `options` applied and its own trace process.
  int64_t OpenSession(const SessionOptions& options);
  Config SessionConfig(const SessionOptions& options);
  /// Session-destructor hook: frees the session's stored chunks and meta
  /// entries (key prefix "s<id>/") and updates the live-session gauge.
  void OnSessionClose(int64_t session_id);

  Config config_;
  Metrics metrics_;
  std::unique_ptr<services::StorageService> storage_;
  services::MetaService meta_;
  std::unique_ptr<scheduler::Executor> executor_;
  /// Created when config_.enable_result_cache; outlives every session.
  std::unique_ptr<services::ResultCache> result_cache_;

  // Admission state (guarded by mu_). `admitted_bytes_` remembers each
  // running submission's reservation so Release needs no arguments beyond
  // the session id; one session runs at most one Materialize at a time.
  std::mutex mu_;
  std::condition_variable admit_cv_;
  int64_t next_session_id_ = 1;
  int running_ = 0;        // admitted, currently executing submissions
  int waiters_ = 0;        // submissions queued for admission
  int64_t reserved_bytes_ = 0;
  std::unordered_map<int64_t, int64_t> admitted_bytes_;
  int64_t open_sessions_ = 0;

  Gauge* sessions_active_;
  Gauge* sessions_shed_;
  Histogram* queue_wait_us_;
};

}  // namespace xorbits::core

#endif  // XORBITS_CORE_SESSION_MANAGER_H_
