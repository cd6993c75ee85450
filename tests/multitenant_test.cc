#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session_manager.h"
#include "core/xorbits.h"
#include "services/storage_service.h"
#include "workloads/pipelines.h"
#include "test_util.h"

// Multi-tenant serving coverage (DESIGN.md §8): admission control with
// queue/shed degradation, per-session memory quotas with spill-first
// enforcement, tenant key namespacing, weighted-fair co-execution, and
// byte-identical results between solo and multi-tenant runs.

namespace xorbits {
namespace {

using dataframe::Column;
using dataframe::DataFrame;
using test_util::Fingerprint;

// ---------------------------------------------------------------------------
// Status taxonomy
// ---------------------------------------------------------------------------

TEST(OverloadStatusTest, OverloadedIsRetryableAndCarriesHint) {
  Status st = Status::Overloaded("queue full", 35);
  EXPECT_TRUE(st.IsOverloaded());
  EXPECT_TRUE(st.IsRetryable());
  EXPECT_EQ(st.backoff_hint_ms(), 35);
  // Context wrapping (every layer adds it) must not drop the hint.
  Status wrapped = st.WithContext("submitting graph");
  EXPECT_TRUE(wrapped.IsOverloaded());
  EXPECT_EQ(wrapped.backoff_hint_ms(), 35);
}

TEST(OverloadStatusTest, QuotaExceededIsFatalForTheSession) {
  Status st = Status::QuotaExceeded("session 3 over 1MB quota");
  EXPECT_TRUE(st.IsQuotaExceeded());
  // Retrying cannot help a deterministic quota breach.
  EXPECT_FALSE(st.IsRetryable());
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(ConfigValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(Config().Validate().ok());
}

TEST(ConfigValidateTest, RejectsNonsense) {
  struct Case {
    const char* what;
    void (*mutate)(Config*);
  };
  const Case cases[] = {
      {"zero quota", [](Config* c) { c->session_memory_quota_bytes = 0; }},
      {"quota below -1",
       [](Config* c) { c->session_memory_quota_bytes = -2; }},
      {"negative sessions",
       [](Config* c) { c->max_concurrent_sessions = -1; }},
      {"negative queue depth",
       [](Config* c) { c->admission_queue_depth = -1; }},
      {"negative admission timeout",
       [](Config* c) { c->admission_timeout_ms = -1; }},
      {"priority zero", [](Config* c) { c->session_priority = 0; }},
      {"priority above range", [](Config* c) { c->session_priority = 101; }},
      {"negative inflight cap",
       [](Config* c) { c->session_max_inflight = -1; }},
      {"zero workers", [](Config* c) { c->num_workers = 0; }},
      {"zero band memory", [](Config* c) { c->band_memory_limit = 0; }},
  };
  for (const Case& cs : cases) {
    Config c;
    cs.mutate(&c);
    Status st = c.Validate();
    EXPECT_FALSE(st.ok()) << cs.what;
    EXPECT_EQ(st.code(), StatusCode::kInvalid) << cs.what;
  }
}

TEST(SessionManagerTest, CreateRejectsInvalidConfig) {
  Config c;
  c.session_priority = 200;
  auto mgr = core::SessionManager::Create(c);
  ASSERT_FALSE(mgr.ok());
  EXPECT_EQ(mgr.status().code(), StatusCode::kInvalid);
}

// ---------------------------------------------------------------------------
// Key namespacing & per-session byte accounting
// ---------------------------------------------------------------------------

TEST(SessionKeyTest, SessionOfKeyParsesTenantPrefix) {
  using services::StorageService;
  EXPECT_EQ(StorageService::SessionOfKey("s12/c3_0"), 12);
  EXPECT_EQ(StorageService::SessionOfKey("s1/c0_0@p7"), 1);
  EXPECT_EQ(StorageService::SessionOfKey("c3_0"), -1);    // un-namespaced
  EXPECT_EQ(StorageService::SessionOfKey("sx/c3_0"), -1); // not a tenant id
  EXPECT_EQ(StorageService::SessionOfKey("s/c3_0"), -1);  // no digits
  EXPECT_EQ(StorageService::SessionOfKey("s42"), -1);     // no slash
}

Config SmallCluster() {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  c.band_memory_limit = 64LL << 20;
  c.chunk_store_limit = 64LL << 10;
  return c;
}

TEST(SessionManagerTest, ClosingASessionFreesItsChunksAndQuotaBytes) {
  auto mgr = core::SessionManager::Create(SmallCluster());
  ASSERT_TRUE(mgr.ok());
  int64_t id = -1;
  {
    std::unique_ptr<core::Session> s = (*mgr)->CreateSession();
    id = s->session_id();
    EXPECT_GE(id, 1);
    auto r = workloads::pipelines::Census(s.get(), 2000, 44);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GT((*mgr)->storage().session_bytes(id), 0);
  }
  // Dtor freed the tenant namespace: no bytes, no lingering meta.
  EXPECT_EQ((*mgr)->storage().session_bytes(id), 0);
  EXPECT_FALSE((*mgr)->meta().Has("s" + std::to_string(id) + "/c0_0"));
}

// ---------------------------------------------------------------------------
// Admission control: queue, shed, retry
// ---------------------------------------------------------------------------

TEST(AdmissionTest, ShedReturnsOverloadedAndRetrySucceedsAfterRelease) {
  Config c = SmallCluster();
  c.max_concurrent_sessions = 1;
  c.admission_queue_depth = 0;  // no queue: shed immediately when busy
  auto mgr = core::SessionManager::Create(c);
  ASSERT_TRUE(mgr.ok());

  // Occupy the single slot, then submit a co-tenant: it must be shed with
  // the retryable overload status and a usable backoff hint, not blocked.
  ASSERT_TRUE((*mgr)->Admit(/*session_id=*/101, /*estimated_bytes=*/0).ok());
  Status shed = (*mgr)->Admit(/*session_id=*/102, /*estimated_bytes=*/0);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.IsOverloaded());
  EXPECT_TRUE(shed.IsRetryable());
  EXPECT_GT(shed.backoff_hint_ms(), 0);
  EXPECT_LE(shed.backoff_hint_ms(), 100);

  // The client-side retry protocol: back off, try again once capacity
  // frees. One release later the same submission is admitted.
  (*mgr)->Release(101);
  EXPECT_TRUE((*mgr)->Admit(102, 0).ok());
  (*mgr)->Release(102);
}

TEST(AdmissionTest, MaterializeShedsEndToEndAndRetryEventuallySucceeds) {
  Config c = SmallCluster();
  c.max_concurrent_sessions = 1;
  c.admission_queue_depth = 0;
  auto mgr = core::SessionManager::Create(c);
  ASSERT_TRUE(mgr.ok());
  std::unique_ptr<core::Session> s = (*mgr)->CreateSession();

  // Pin the only slot so the session's own Materialize hits admission.
  ASSERT_TRUE((*mgr)->Admit(/*session_id=*/999, 0).ok());
  auto first = workloads::pipelines::Census(s.get(), 1000, 44);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsOverloaded());
  EXPECT_GT(first.status().backoff_hint_ms(), 0);

  (*mgr)->Release(999);
  auto retry = workloads::pipelines::Census(s.get(), 1000, 44);
  EXPECT_TRUE(retry.ok()) << retry.status();
  // Exactly one submission was shed, and the gauge recorded it.
  MetricsSnapshot snap = (*mgr)->metrics().Snapshot();
  int64_t shed_count = 0;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "sessions_shed") shed_count = value;
  }
  EXPECT_EQ(shed_count, 1);
}

TEST(AdmissionTest, QueuedSubmissionIsAdmittedWhenSlotFrees) {
  Config c = SmallCluster();
  c.max_concurrent_sessions = 1;
  c.admission_queue_depth = 4;
  c.admission_timeout_ms = 10000;
  auto mgr = core::SessionManager::Create(c);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->Admit(1, 0).ok());

  Status queued = Status::OK();
  std::thread waiter(
      [&] { queued = (*mgr)->Admit(2, 0); });
  // The waiter blocks in the queue; releasing the slot admits it.
  (*mgr)->Release(1);
  waiter.join();
  EXPECT_TRUE(queued.ok()) << queued;
  (*mgr)->Release(2);
}

// ---------------------------------------------------------------------------
// Byte-identical solo vs multi-tenant results
// ---------------------------------------------------------------------------

std::string SoloFingerprint(const Config& config, int64_t rows,
                            uint64_t seed) {
  core::Session solo(config);
  auto r = workloads::pipelines::Census(&solo, rows, seed);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? Fingerprint(*r) : "<failed>";
}

TEST(MultiTenantTest, ConcurrentSessionsMatchSoloByteForByte) {
  const Config c = SmallCluster();
  // Three tenants, three distinct workload seeds, all running at once on
  // the shared executor. Each result must equal its solo twin exactly.
  const uint64_t seeds[] = {44, 45, 46};
  const int64_t rows = 4000;
  std::vector<std::string> solo_fps;
  for (uint64_t seed : seeds) solo_fps.push_back(SoloFingerprint(c, rows, seed));

  auto mgr = core::SessionManager::Create(c);
  ASSERT_TRUE(mgr.ok());
  std::vector<std::unique_ptr<core::Session>> sessions;
  for (size_t i = 0; i < 3; ++i) sessions.push_back((*mgr)->CreateSession());

  std::vector<std::string> tenant_fps(3);
  std::vector<Status> statuses(3, Status::OK());
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      auto r = workloads::pipelines::Census(sessions[i].get(), rows, seeds[i]);
      statuses[i] = r.status();
      tenant_fps[i] = r.ok() ? Fingerprint(*r) : "<failed>";
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << "tenant " << i << ": " << statuses[i];
    EXPECT_EQ(tenant_fps[i], solo_fps[i]) << "tenant " << i;
  }
}

TEST(MultiTenantTest, PrioritiesAndInflightCapsStillProduceExactResults) {
  const Config c = SmallCluster();
  const int64_t rows = 3000;
  const std::string solo = SoloFingerprint(c, rows, 44);

  auto mgr = core::SessionManager::Create(c);
  ASSERT_TRUE(mgr.ok());
  core::SessionOptions high, low;
  high.priority = 10;
  low.priority = 1;
  low.max_inflight = 1;  // exercise the eligibility cap under contention
  auto s_high = (*mgr)->CreateSession(high);
  auto s_low = (*mgr)->CreateSession(low);

  std::string fp_high, fp_low;
  Status st_high, st_low;
  std::thread t1([&] {
    auto r = workloads::pipelines::Census(s_high.get(), rows, 44);
    st_high = r.status();
    fp_high = r.ok() ? Fingerprint(*r) : "<failed>";
  });
  std::thread t2([&] {
    auto r = workloads::pipelines::Census(s_low.get(), rows, 44);
    st_low = r.status();
    fp_low = r.ok() ? Fingerprint(*r) : "<failed>";
  });
  t1.join();
  t2.join();
  ASSERT_TRUE(st_high.ok()) << st_high;
  ASSERT_TRUE(st_low.ok()) << st_low;
  EXPECT_EQ(fp_high, solo);
  EXPECT_EQ(fp_low, solo);
}

// ---------------------------------------------------------------------------
// Counter attribution: scoped counters land on the session that caused them
// ---------------------------------------------------------------------------

/// The counters raised below the session (the table's gauges section),
/// minus the four that depend on timing: backpressure stalls, the spills
/// and recoveries they cause, and fan-outs declined for want of a free
/// core.
std::vector<CounterId> AttributedCounters() {
  std::vector<CounterId> out;
  for (int i = 0; i < kNumCounters; ++i) {
    const auto id = static_cast<CounterId>(i);
    if (kCounterTable[i].section != CounterSection::kGauges ||
        id == CounterId::kShuffleBlocksSpilled ||
        id == CounterId::kShuffleBlocksRecovered ||
        id == CounterId::kExchangeBackpressureUs ||
        id == CounterId::kMorselFanoutsDeclined) {
      continue;
    }
    out.push_back(id);
  }
  return out;
}

using CounterValues = std::vector<int64_t>;

CounterValues ReadCounters(const Metrics& m) {
  CounterValues out;
  for (CounterId id : AttributedCounters()) out.push_back(m.Get(id));
  return out;
}

TEST(AttributionTest, ConcurrentTenantsMatchSequentialAndSumToCluster) {
  Config c = SmallCluster();  // result cache and spill stay off
  const std::vector<std::function<Status(core::Session*)>> pipelines = {
      [](core::Session* s) {
        return workloads::pipelines::TpcxAiUC10(s, 20000, 200, 42).status();
      },
      [](core::Session* s) {
        return workloads::pipelines::Census(s, 4000, 44).status();
      },
      [](core::Session* s) {
        // A multi-chunk global sort: a range shuffle through the exchange.
        auto df = FromPandas(s, workloads::pipelines::MakePlasticc(20000, 60));
        if (!df.ok()) return df.status();
        auto sorted = df->SortValues({"flux"});
        if (!sorted.ok()) return sorted.status();
        return sorted->Fetch().status();
      },
  };
  const size_t n = pipelines.size();

  // One after another on a fresh manager.
  std::vector<CounterValues> sequential(n);
  {
    auto mgr = core::SessionManager::Create(c);
    ASSERT_TRUE(mgr.ok());
    for (size_t i = 0; i < n; ++i) {
      auto s = (*mgr)->CreateSession();
      Status st = pipelines[i](s.get());
      ASSERT_TRUE(st.ok()) << "pipeline " << i << ": " << st;
      sequential[i] = ReadCounters(s->metrics());
    }
  }

  // All at once on another fresh manager.
  auto mgr = core::SessionManager::Create(c);
  ASSERT_TRUE(mgr.ok());
  std::vector<std::unique_ptr<core::Session>> sessions;
  for (size_t i = 0; i < n; ++i) sessions.push_back((*mgr)->CreateSession());
  std::vector<Status> statuses(n, Status::OK());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back(
        [&, i] { statuses[i] = pipelines[i](sessions[i].get()); });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<CounterId> ids = AttributedCounters();
  const CounterValues cluster = ReadCounters((*mgr)->metrics());
  CounterValues sum(ids.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << "pipeline " << i << ": " << statuses[i];
    const CounterValues mine = ReadCounters(sessions[i]->metrics());
    for (size_t k = 0; k < ids.size(); ++k) {
      const char* name = kCounterTable[static_cast<int>(ids[k])].name;
      EXPECT_EQ(mine[k], sequential[i][k])
          << "pipeline " << i << " counter " << name;
      sum[k] += mine[k];
    }
  }
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(sum[k], cluster[k])
        << "counter " << kCounterTable[static_cast<int>(ids[k])].name;
  }
  // Not vacuous: the runs materialized bytes and shuffled through the
  // exchange.
  auto at = [&](CounterId id) {
    for (size_t k = 0; k < ids.size(); ++k) {
      if (ids[k] == id) return cluster[k];
    }
    return int64_t{0};
  };
  EXPECT_GT(at(CounterId::kBytesMaterialized), 0);
  EXPECT_GT(at(CounterId::kShuffleWireBytes), 0);
  EXPECT_GT(at(CounterId::kBufferBytesShared), 0);
}

// ---------------------------------------------------------------------------
// Per-session quotas: spill-first, fail-only-the-tenant
// ---------------------------------------------------------------------------

TEST(QuotaTest, BusterFailsWithQuotaDetailWhileCoTenantCompletes) {
  Config c = SmallCluster();
  // A 60000-row Census stores ~190 KB of chunks (measured; max single chunk
  // ~1.3 KB), so a 64 KB quota is deterministically exceeded mid-pipeline
  // while the 500-row co-tenant stays far below it.
  c.session_memory_quota_bytes = 64LL << 10;
  c.enable_spill = false;  // no spill: quota is hard
  auto mgr = core::SessionManager::Create(c);
  ASSERT_TRUE(mgr.ok());

  auto buster = (*mgr)->CreateSession();
  auto tenant = (*mgr)->CreateSession();

  // The buster stores far more than its quota; the co-tenant stays small.
  Status buster_status;
  std::string tenant_fp;
  Status tenant_status;
  std::thread t1([&] {
    auto r = workloads::pipelines::Census(buster.get(), 60000, 44);
    buster_status = r.status();
  });
  std::thread t2([&] {
    auto r = workloads::pipelines::Census(tenant.get(), 500, 45);
    tenant_status = r.status();
    tenant_fp = r.ok() ? Fingerprint(*r) : "<failed>";
  });
  t1.join();
  t2.join();

  ASSERT_FALSE(buster_status.ok());
  EXPECT_TRUE(buster_status.IsQuotaExceeded()) << buster_status;
  // The failure message names the tenant and its quota, for the client.
  EXPECT_NE(buster_status.message().find("quota"), std::string::npos)
      << buster_status;

  ASSERT_TRUE(tenant_status.ok()) << tenant_status;
  EXPECT_EQ(tenant_fp, SoloFingerprint(SmallCluster(), 500, 45));
}

TEST(QuotaTest, SpillAbsorbsQuotaPressureInsteadOfFailing) {
  Config c = SmallCluster();
  c.session_memory_quota_bytes = 64LL << 10;  // well below the ~190 KB run
  c.enable_spill = true;  // degradation order: spill before failing
  auto mgr = core::SessionManager::Create(c);
  ASSERT_TRUE(mgr.ok());
  auto s = (*mgr)->CreateSession();
  auto r = workloads::pipelines::Census(s.get(), 60000, 44);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Fingerprint(*r), SoloFingerprint(SmallCluster(), 60000, 44));
  // The quota actually bit: chunks were spilled, and the session's
  // in-memory footprint stayed at or below its quota.
  EXPECT_GT((*mgr)->metrics().Get(CounterId::kSpillEvents), 0);
  EXPECT_LE((*mgr)->storage().session_bytes(s->session_id()),
            c.session_memory_quota_bytes);
}

TEST(QuotaTest, ConfigSessionsHonourTheQuotaLikeAnyTenant) {
  // Session(Config) joins a private one-tenant manager, so its chunk keys
  // carry a session id and the configured quota binds as for any tenant.
  Config c = SmallCluster();
  c.session_memory_quota_bytes = 1 << 10;  // absurdly small
  core::Session session(c);
  EXPECT_GE(session.session_id(), 1);
  EXPECT_NE(session.metrics().parent(), nullptr);
  auto r = workloads::pipelines::Census(&session, 5000, 44);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsQuotaExceeded()) << r.status();
}

}  // namespace
}  // namespace xorbits

