#include "core/session_manager.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/trace_names.h"
#include "common/tracing.h"
#include "core/session.h"

namespace xorbits::core {

namespace {

/// Registers the shared cluster with the trace sink (when configured) so
/// cluster-level services emit under one process; sessions register their
/// own processes on top (see SessionConfig).
Config RegisterClusterTraceProcess(Config config) {
  if (config.trace.sink != nullptr && config.trace.pid == 0) {
    config.trace.pid = config.trace.sink->RegisterProcess(
        std::string(EngineKindName(config.engine)) + " cluster",
        config.total_bands());
  }
  return config;
}

}  // namespace

Result<std::unique_ptr<SessionManager>> SessionManager::Create(Config config) {
  XORBITS_RETURN_NOT_OK(
      config.Validate().WithContext("creating a session manager"));
  return std::unique_ptr<SessionManager>(
      new SessionManager(std::move(config)));
}

SessionManager::SessionManager(Config config)
    : config_(RegisterClusterTraceProcess(std::move(config))),
      storage_(std::make_unique<services::StorageService>(config_,
                                                          &metrics_)),
      executor_(std::make_unique<scheduler::Executor>(
          config_, &metrics_, storage_.get(), &meta_)),
      sessions_active_(metrics_.registry.GetGauge(trace::kGaugeSessionsActive,
                                                  "sessions")),
      sessions_shed_(metrics_.registry.GetGauge(trace::kGaugeSessionsShed,
                                                "submissions")),
      queue_wait_us_(metrics_.registry.GetHistogram(
          trace::kHistSessionQueueWaitUs, "us", DefaultBuckets())) {
  meta_.BindObservability(&metrics_);
  if (config_.enable_result_cache) {
    result_cache_ = std::make_unique<services::ResultCache>(
        config_, storage_.get(), &metrics_);
    executor_->set_result_cache(result_cache_.get());
  }
}

SessionManager::~SessionManager() {
  if (config_.trace.sink != nullptr) {
    config_.trace.sink->SetProcessMetrics(config_.trace.pid,
                                          metrics_.Snapshot());
  }
}

std::unique_ptr<Session> SessionManager::CreateSession(
    SessionOptions options) {
  return std::unique_ptr<Session>(new Session(nullptr, this, options));
}

int64_t SessionManager::OpenSession(const SessionOptions& options) {
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_session_id_++;
    ++open_sessions_;
    sessions_active_->Set(open_sessions_);
  }
  if (Tracer* tr = config_.trace.sink) {
    const int priority =
        options.priority > 0 ? options.priority : config_.session_priority;
    tr->Instant(config_.trace.pid, kTrackSupervisor, trace::kEventSessionCreate,
                {Arg("session", id),
                 Arg("priority", static_cast<int64_t>(priority))});
  }
  return id;
}

Config SessionManager::SessionConfig(const SessionOptions& options) {
  Config session_config = config_;
  if (options.priority > 0) session_config.session_priority = options.priority;
  if (options.max_inflight > 0) {
    session_config.session_max_inflight = options.max_inflight;
  }
  // Each session registers its own trace process, so run reports render
  // per-session latency next to the shared cluster's storage counters.
  if (Tracer* tr = session_config.trace.sink) {
    session_config.trace.pid = tr->RegisterProcess(
        EngineKindName(session_config.engine), session_config.total_bands());
  }
  return session_config;
}

Status SessionManager::Admit(int64_t session_id, int64_t estimated_bytes) {
  const int64_t capacity =
      static_cast<int64_t>(config_.total_bands()) * config_.band_memory_limit;
  // The estimate only arbitrates between concurrent submissions; clamp it so
  // a wild projection cannot deadlock admission outright.
  estimated_bytes = std::clamp<int64_t>(estimated_bytes, 0, capacity);
  const auto enqueue_time = std::chrono::steady_clock::now();

  std::unique_lock<std::mutex> lock(mu_);
  const auto admissible = [&] {
    // An idle cluster always admits: a lone submission must make progress
    // even when its estimate exceeds capacity (spill absorbs the excess).
    if (running_ == 0) return true;
    if (config_.max_concurrent_sessions > 0 &&
        running_ >= config_.max_concurrent_sessions) {
      return false;
    }
    return reserved_bytes_ + estimated_bytes <= capacity;
  };
  const auto shed = [&](const char* why) {
    // Backoff hint grows with queue pressure, so retrying clients spread
    // out instead of stampeding the moment one slot frees up.
    const int64_t hint_ms =
        std::min<int64_t>(5 * (static_cast<int64_t>(waiters_) + 1), 100);
    sessions_shed_->Add(1);
    if (Tracer* tr = config_.trace.sink) {
      tr->Instant(config_.trace.pid, kTrackSupervisor,
                  trace::kEventSessionShed,
                  {Arg("session", session_id), Arg("why", why),
                   Arg("backoff_hint_ms", hint_ms)});
    }
    return Status::Overloaded(
        std::string("admission ") + why + " for session " +
            std::to_string(session_id) + " (" + std::to_string(running_) +
            " running, " + std::to_string(waiters_) + " queued)",
        hint_ms);
  };

  if (!admissible()) {
    if (waiters_ >= config_.admission_queue_depth) {
      return shed("queue full");
    }
    ++waiters_;
    const bool admitted = admit_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.admission_timeout_ms),
        admissible);
    --waiters_;
    if (!admitted) return shed("wait timed out");
  }
  ++running_;
  reserved_bytes_ += estimated_bytes;
  admitted_bytes_[session_id] = estimated_bytes;
  queue_wait_us_->Observe(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - enqueue_time)
                              .count());
  return Status::OK();
}

void SessionManager::Release(int64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = admitted_bytes_.find(session_id);
  if (it == admitted_bytes_.end()) return;
  reserved_bytes_ -= it->second;
  admitted_bytes_.erase(it);
  --running_;
  // Several waiters may now fit (bytes freed can cover more than one
  // estimate), so wake them all and let the predicate sort it out.
  admit_cv_.notify_all();
}

void SessionManager::OnSessionClose(int64_t session_id) {
  const std::string prefix = "s" + std::to_string(session_id) + "/";
  storage_->DeleteByPrefix(prefix);
  meta_.DeleteByPrefix(prefix);
  // Cache lineage registered by this session points into its (now dying)
  // chunk-graph arena; sweep it by session tag. The cached "cache/" chunks
  // themselves deliberately survive — they are cluster property, and the
  // next session to hit one re-registers lineage against its own graph.
  meta_.DeleteLineageBySession(session_id);
  if (Tracer* tr = config_.trace.sink) {
    tr->Instant(config_.trace.pid, kTrackSupervisor, trace::kEventSessionClose,
                {Arg("session", session_id)});
  }
  std::lock_guard<std::mutex> lock(mu_);
  --open_sessions_;
  sessions_active_->Set(open_sessions_);
}

}  // namespace xorbits::core
