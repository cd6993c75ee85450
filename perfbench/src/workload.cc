#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

using xorbits::Result;
using xorbits::Status;
using xorbits::dataframe::DataFrame;

Status Workload::BuildCluster(xorbits::Tracer* tracer) {
  xorbits::Config config = Settings();
  config.trace.sink = tracer;
  auto manager = xorbits::core::SessionManager::Create(std::move(config));
  if (!manager.ok()) return manager.status();
  manager_ = manager.MoveValue();
  return Status::OK();
}

Status Workload::WarmUp() {
  for (int key : CycleKeys()) {
    auto session = manager_->CreateSession();
    auto result = Request(session.get(), key, nullptr);
    if (!result.ok()) {
      return result.status().WithContext("warm-up " + KeyName(key));
    }
  }
  return Status::OK();
}

bool Workload::TimedRequest(int key, Window* w, LayerTotals* layers) {
  const bool globals = layers != nullptr && GlobalsPerSession();
  const double t0 = NowMs();
  ++w->attempted;
  Result<DataFrame> result = Status::Invalid("request not run");
  for (;;) {
    ++w->submissions;
    const double s0 = NowMs();
    auto session = manager_->CreateSession();
    const double s1 = NowMs();
    xorbits::MetricsSnapshot before;
    if (layers != nullptr) before = session->metrics().Snapshot();
    result = Request(session.get(), key, layers);
    if (layers != nullptr) {
      layers->AddSession(before, session->metrics().Snapshot(), globals);
      // Session set-up is the client's first API call of the request.
      layers->build_ms += s1 - s0;
    }
    session.reset();
    if (!result.status().IsOverloaded()) break;
    ++w->shed;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::max<int64_t>(result.status().backoff_hint_ms(), 1)));
  }
  const double ms = NowMs() - t0;
  if (layers != nullptr) layers->request_ms += ms;
  if (!result.ok()) {
    ++w->failed;
    std::printf("request %s failed: %s\n", KeyName(key).c_str(),
                result.status().ToString().c_str());
    return false;
  }
  w->latency_ms.push_back(ms);
  w->kind.push_back(KindOf(key));
  log_.Record(key, *result);  // checksummed outside the timed request
  return true;
}

Window Workload::RunWindow(double seconds, LayerTotals* layers) {
  // One client, whole cycles: every window runs each request key equally
  // often, so the latency mix does not depend on where the clock ran out.
  const std::vector<int> keys = CycleKeys();
  xorbits::MetricsSnapshot before;
  if (layers != nullptr) before = manager_->metrics().Snapshot();
  const int64_t min_requests = MinRequests();
  Window w;
  WindowClock clock;
  const double deadline = NowMs() + seconds * 1e3;
  do {
    for (int key : keys) TimedRequest(key, &w, layers);
    clock.Slice(w.completed(), &w);
  } while (NowMs() < deadline || w.attempted < min_requests);
  clock.Finish(&w);
  if (layers != nullptr) {
    layers->AddCluster(before, manager_->metrics().Snapshot(),
                       /*with_globals=*/false);
  }
  return w;
}

int64_t Workload::MinRequests() const {
  return static_cast<int64_t>(
      std::ceil(10.0 / (1.0 - TailPercentile() / 100.0)));
}

Result<DataFrame> Workload::RunSolo(const xorbits::Config& config, int key) {
  xorbits::core::Session session(config);
  return Request(&session, key, nullptr);
}

int64_t Workload::Gate() {
  GateSources sources;
  sources.name = [this](int key) { return KeyName(key); };
  sources.reference = [this](int key) {
    return RunSolo(ReferenceConfig(opt_), key);
  };
  if (GateAgainstCacheOff()) {
    sources.cache_off = [this](int key) {
      xorbits::Config off = ClusterConfig(opt_);
      off.enable_result_cache = false;
      return RunSolo(off, key);
    };
  }
  return RunGate(log_, sources);
}

}  // namespace perfbench
