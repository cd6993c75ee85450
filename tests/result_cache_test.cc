#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session_manager.h"
#include "core/xorbits.h"
#include "services/result_cache.h"
#include "services/storage_service.h"
#include "workloads/pipelines.h"
#include "test_util.h"

// Cross-session result cache coverage (DESIGN.md §9): hit/miss round
// trips, byte-identical cache-served results, cache-budget (not tenant
// quota) accounting, source invalidation on file change, LRU eviction
// under budget pressure, and lineage recovery of a lost cached chunk.

namespace xorbits {
namespace {

using dataframe::Column;
using dataframe::DataFrame;
using services::ResultCache;
using test_util::Fingerprint;

Config CacheCluster() {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  c.band_memory_limit = 64LL << 20;
  c.chunk_store_limit = 64LL << 10;
  c.enable_result_cache = true;
  c.result_cache_budget_bytes = 32LL << 20;
  return c;
}

/// Cache-off solo reference result.
std::string SoloFingerprint(int64_t rows, uint64_t seed) {
  Config c = CacheCluster();
  c.enable_result_cache = false;
  core::Session solo(c);
  auto r = workloads::pipelines::Census(&solo, rows, seed);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? Fingerprint(*r) : "<failed>";
}

int64_t CounterOf(const MetricsSnapshot& snap, const std::string& name) {
  return snap.Counter(name);
}

// ---------------------------------------------------------------------------
// Signature / key plumbing
// ---------------------------------------------------------------------------

TEST(ResultCacheUnitTest, HashIsDeterministicAndKeysAreClusterOwned) {
  EXPECT_EQ(ResultCache::HashHex("abc"), ResultCache::HashHex("abc"));
  EXPECT_NE(ResultCache::HashHex("abc"), ResultCache::HashHex("abd"));
  EXPECT_EQ(ResultCache::HashHex("abc").size(), 32u);
  const std::string key = ResultCache::KeyForSig("deadbeef");
  EXPECT_EQ(key, "cache/deadbeef");
  // The load-bearing quota property: cache keys parse to session -1, so
  // the storage service never charges them to any tenant's quota.
  EXPECT_EQ(services::StorageService::SessionOfKey(key), -1);
}

// ---------------------------------------------------------------------------
// Unit-level lifecycle: publish, hit, pin, evict, invalidate
// ---------------------------------------------------------------------------

services::ChunkDataPtr MakeFrameChunk(int64_t rows, int64_t salt) {
  std::vector<int64_t> v(rows);
  for (int64_t i = 0; i < rows; ++i) v[i] = i * 7 + salt;
  DataFrame df;
  EXPECT_TRUE(df.SetColumn("x", Column::Int64(std::move(v))).ok());
  return services::MakeChunk(std::move(df));
}

TEST(ResultCacheUnitTest, HitMissRoundTripAndCounters) {
  Config c = CacheCluster();
  Metrics m;
  services::StorageService storage(c, &m);
  ResultCache cache(c, &storage, &m);

  EXPECT_FALSE(cache.LookupAndPin("s1").has_value());  // cold: miss
  services::ChunkDataPtr data = MakeFrameChunk(100, 0);
  services::ChunkMeta meta;
  meta.rows = 100;
  meta.nbytes = data->nbytes();
  cache.Publish("s1", data, /*band=*/0, meta, {"src_a"});

  auto hit = cache.LookupAndPin("s1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->key, "cache/s1");
  EXPECT_EQ(hit->meta.rows, 100);
  EXPECT_TRUE(storage.Has(hit->key));
  // The cached bytes round-trip exactly.
  auto back = storage.Get(hit->key, /*requesting_band=*/-1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Fingerprint((*back)->dataframe()),
            Fingerprint(data->dataframe()));
  cache.Unpin({"s1"});

  EXPECT_EQ(m.Get(CounterId::kCacheHits), 1);
  EXPECT_EQ(m.Get(CounterId::kCacheMisses), 1);
  EXPECT_EQ(m.Get(CounterId::kCachePublishes), 1);
  // A duplicate publish (two tenants racing the same miss) is a no-op.
  cache.Publish("s1", data, 0, meta, {"src_a"});
  EXPECT_EQ(m.Get(CounterId::kCachePublishes), 1);
  EXPECT_EQ(cache.entries(), 1);
}

TEST(ResultCacheUnitTest, LruEvictionUnderBudgetPressureSkipsPinned) {
  Config c = CacheCluster();
  services::ChunkDataPtr probe = MakeFrameChunk(1000, 0);
  // Budget fits roughly three chunks; publishing five must evict LRU.
  c.result_cache_budget_bytes = probe->nbytes() * 3 + probe->nbytes() / 2;
  Metrics m;
  services::StorageService storage(c, &m);
  ResultCache cache(c, &storage, &m);

  services::ChunkMeta meta;
  meta.rows = 1000;
  meta.nbytes = probe->nbytes();
  cache.Publish("pinned", probe, 0, meta, {});
  ASSERT_TRUE(cache.LookupAndPin("pinned").has_value());  // hold a pin

  for (int i = 0; i < 5; ++i) {
    cache.Publish("bulk" + std::to_string(i), MakeFrameChunk(1000, i + 1), 0,
                  meta, {});
  }
  EXPECT_GT(m.Get(CounterId::kCacheEvictions), 0);
  EXPECT_LE(cache.bytes(), c.result_cache_budget_bytes);
  // The pinned entry survived every eviction round; the oldest unpinned
  // bulk entries did not, and their chunks were tombstoned in storage.
  EXPECT_TRUE(cache.Contains("pinned"));
  EXPECT_FALSE(cache.Contains("bulk0"));
  EXPECT_FALSE(storage.Has("cache/bulk0"));
  EXPECT_TRUE(storage.IsLost("cache/bulk0"));  // recoverable, not vanished
  cache.Unpin({"pinned"});
}

TEST(ResultCacheUnitTest, InvalidateDropsByTagAndDoomsPinnedEntries) {
  Config c = CacheCluster();
  Metrics m;
  services::StorageService storage(c, &m);
  ResultCache cache(c, &storage, &m);

  services::ChunkDataPtr data = MakeFrameChunk(50, 0);
  services::ChunkMeta meta;
  meta.nbytes = data->nbytes();
  cache.Publish("a", data, 0, meta, {"file1.csv"});
  cache.Publish("b", data, 0, meta, {"file1.csv", "file2.csv"});
  cache.Publish("keep", data, 0, meta, {"file2.csv"});
  ASSERT_TRUE(cache.LookupAndPin("b").has_value());  // mid-consumption

  EXPECT_EQ(cache.Invalidate("file1.csv"), 2);
  EXPECT_EQ(m.Get(CounterId::kCacheInvalidations), 2);
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("keep"));
  // The pinned entry is doomed: invisible to new probes, but its consumer
  // finishes on the old bytes; the drop lands on the last unpin.
  EXPECT_FALSE(cache.LookupAndPin("b").has_value());
  EXPECT_TRUE(storage.Has("cache/b"));
  cache.Unpin({"b", "b"});  // the doomed probe-pin was never granted
  EXPECT_FALSE(storage.Has("cache/b"));
}

// ---------------------------------------------------------------------------
// End-to-end: cross-session hits, byte identity, quota attribution
// ---------------------------------------------------------------------------

TEST(ResultCacheE2ETest, TwoTenantsShareCachedChunksByteIdenticalToSolo) {
  const int64_t rows = 4000;
  const std::string solo = SoloFingerprint(rows, 44);

  auto mgr = core::SessionManager::Create(CacheCluster());
  ASSERT_TRUE(mgr.ok());
  std::string fp_a, fp_b;
  {
    auto a = (*mgr)->CreateSession();
    auto r = workloads::pipelines::Census(a.get(), rows, 44);
    ASSERT_TRUE(r.ok()) << r.status();
    fp_a = Fingerprint(*r);
  }
  MetricsSnapshot after_a = (*mgr)->metrics().Snapshot();
  EXPECT_GT(CounterOf(after_a, "cache_publishes"), 0);
  const int64_t misses_a = CounterOf(after_a, "cache_misses");

  {
    // Session A is closed: the second tenant's hits are genuinely
    // cross-session, served from chunks that outlived their producer.
    auto b = (*mgr)->CreateSession();
    auto r = workloads::pipelines::Census(b.get(), rows, 44);
    ASSERT_TRUE(r.ok()) << r.status();
    fp_b = Fingerprint(*r);
  }
  MetricsSnapshot after_b = (*mgr)->metrics().Snapshot();
  EXPECT_GT(CounterOf(after_b, "cache_hits"), 0);
  // The repeat run probes the same plan: no flood of fresh misses.
  EXPECT_LT(CounterOf(after_b, "cache_misses") - misses_a, misses_a);

  EXPECT_EQ(fp_a, solo);
  EXPECT_EQ(fp_b, solo);
}

/// A grouped sum and a scaled tensor over caller-owned inputs: the
/// FromDataFrameOp / FromNDArrayOp leaves are fingerprinted on every run.
Status RunOverInputs(core::Session* s, const DataFrame& frame,
                     const tensor::NDArray& array) {
  XORBITS_ASSIGN_OR_RETURN(DataFrameRef df, FromPandas(s, frame));
  XORBITS_ASSIGN_OR_RETURN(
      df, df.GroupByAgg({"workclass"},
                        {{"age", dataframe::AggFunc::kSum, "total_age"}}));
  XORBITS_RETURN_NOT_OK(df.Fetch().status());
  XORBITS_ASSIGN_OR_RETURN(TensorRef t, FromNumpy(s, array));
  XORBITS_ASSIGN_OR_RETURN(t, t.MulScalar(2.0));
  return t.Fetch().status();
}

TEST(ResultCacheE2ETest, ResubmittedBuffersAreFingerprintedFromTheMemo) {
  const int64_t rows = 4000;
  const DataFrame census = workloads::pipelines::MakeCensus(rows, 44);
  std::vector<double> values(rows * 3);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 0.5 * i;
  const tensor::NDArray array =
      tensor::NDArray::Make(values, {rows, 3}).MoveValue();
  // Bytes a cold fingerprint hashes, measured on separate copies so the
  // inputs' own memos stay cold.
  int64_t cold = 0;
  dataframe::ContentFingerprint(workloads::pipelines::MakeCensus(rows, 44),
                                &cold);
  tensor::ContentFingerprint(tensor::NDArray::Make(values, {rows, 3})
                                 .MoveValue(),
                             &cold);
  ASSERT_GT(cold, 0);

  auto mgr = core::SessionManager::Create(CacheCluster());
  ASSERT_TRUE(mgr.ok());
  auto run = [&](const DataFrame& frame, const tensor::NDArray& arr,
                 int64_t* hashed, int64_t* hits) {
    const MetricsSnapshot before = (*mgr)->metrics().Snapshot();
    auto s = (*mgr)->CreateSession();
    ASSERT_TRUE(RunOverInputs(s.get(), frame, arr).ok());
    // Fingerprint bytes are the submitting session's; hits are the cache's.
    *hashed = s->metrics().Get(CounterId::kCacheFingerprintBytes);
    const MetricsSnapshot after = (*mgr)->metrics().Snapshot();
    *hits = CounterOf(after, "cache_hits") - CounterOf(before, "cache_hits");
  };
  int64_t hashed = 0, hits = 0;
  run(census, array, &hashed, &hits);
  EXPECT_EQ(hashed, cold);  // first sight of these buffers
  // A second session submitting the same buffers hashes nothing and hits.
  run(census, array, &hashed, &hits);
  EXPECT_EQ(hashed, 0);
  EXPECT_GT(hits, 0);
  // The same content in fresh buffers is hashed once, and still hits.
  run(workloads::pipelines::MakeCensus(rows, 44),
      tensor::NDArray::Make(values, {rows, 3}).MoveValue(), &hashed, &hits);
  EXPECT_EQ(hashed, cold);
  EXPECT_GT(hits, 0);
}

TEST(ResultCacheE2ETest, CachedBytesChargeTheCacheBudgetNotTenantQuotas) {
  const int64_t rows = 4000;
  // Reference: the tenant's own in-memory footprint with the cache off.
  int64_t bytes_off = -1;
  {
    Config c = CacheCluster();
    c.enable_result_cache = false;
    auto mgr = core::SessionManager::Create(c);
    ASSERT_TRUE(mgr.ok());
    auto s = (*mgr)->CreateSession();
    auto r = workloads::pipelines::Census(s.get(), rows, 44);
    ASSERT_TRUE(r.ok()) << r.status();
    bytes_off = (*mgr)->storage().session_bytes(s->session_id());
  }

  auto mgr = core::SessionManager::Create(CacheCluster());
  ASSERT_TRUE(mgr.ok());
  auto s = (*mgr)->CreateSession();
  auto r = workloads::pipelines::Census(s.get(), rows, 44);
  ASSERT_TRUE(r.ok()) << r.status();

  services::ResultCache* cache = (*mgr)->result_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->bytes(), 0);
  // Publishing into the cache must not inflate the tenant's quota
  // accounting by a single byte: same workload, same session footprint.
  EXPECT_EQ((*mgr)->storage().session_bytes(s->session_id()), bytes_off);
  // The budget denominator is visible to operators via the gauge.
  MetricsSnapshot snap = (*mgr)->metrics().Snapshot();
  int64_t gauge_bytes = -1;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "cache_bytes") gauge_bytes = value;
  }
  EXPECT_EQ(gauge_bytes, cache->bytes());

  // Closing the producing session sweeps its "s<id>/" namespace but must
  // leave the shared cache intact — later tenants still hit.
  const int64_t id = s->session_id();
  s.reset();
  EXPECT_EQ((*mgr)->storage().session_bytes(id), 0);
  EXPECT_GT(cache->bytes(), 0);
  auto late = (*mgr)->CreateSession();
  MetricsSnapshot before = (*mgr)->metrics().Snapshot();
  auto r2 = workloads::pipelines::Census(late.get(), rows, 44);
  ASSERT_TRUE(r2.ok()) << r2.status();
  MetricsSnapshot after = (*mgr)->metrics().Snapshot();
  EXPECT_GT(CounterOf(after, "cache_hits"), CounterOf(before, "cache_hits"));
  EXPECT_EQ(Fingerprint(*r2), SoloFingerprint(rows, 44));
}

// ---------------------------------------------------------------------------
// Invalidation: a changed source file must never serve stale bytes
// ---------------------------------------------------------------------------

void WriteCsv(const std::string& path, int64_t rows, int64_t salt) {
  std::ofstream out(path, std::ios::trunc);
  out << "k,v\n";
  for (int64_t i = 0; i < rows; ++i) {
    out << i % 5 << "," << i * 3 + salt << "\n";
  }
}

TEST(ResultCacheE2ETest, ChangedSourceFileMissesInsteadOfServingStale) {
  const std::string path = "/tmp/xorbits_result_cache_test.csv";
  WriteCsv(path, 200, 0);

  auto mgr = core::SessionManager::Create(CacheCluster());
  ASSERT_TRUE(mgr.ok());
  auto run_query = [&](int64_t* rows_out) -> Status {
    auto s = (*mgr)->CreateSession();
    auto df = ReadCsv(s.get(), path);
    if (!df.ok()) return df.status();
    auto out = df->Fetch();
    if (!out.ok()) return out.status();
    *rows_out = out->num_rows();
    return Status::OK();
  };

  int64_t rows = 0;
  ASSERT_TRUE(run_query(&rows).ok());
  EXPECT_EQ(rows, 200);
  MetricsSnapshot warm = (*mgr)->metrics().Snapshot();
  ASSERT_TRUE(run_query(&rows).ok());
  EXPECT_EQ(rows, 200);
  MetricsSnapshot repeat = (*mgr)->metrics().Snapshot();
  EXPECT_GT(CounterOf(repeat, "cache_hits"), CounterOf(warm, "cache_hits"));

  // Rewrite the file with different contents (size changes, so the
  // mtime+size version tag in the signature changes even on coarse-mtime
  // filesystems): the old entries must simply never match again.
  WriteCsv(path, 300, 7);
  const int64_t hits_before = CounterOf(repeat, "cache_hits");
  ASSERT_TRUE(run_query(&rows).ok());
  EXPECT_EQ(rows, 300);  // fresh bytes, not the cached 200-row result
  MetricsSnapshot changed = (*mgr)->metrics().Snapshot();
  EXPECT_EQ(CounterOf(changed, "cache_hits"), hits_before);
  EXPECT_GT(CounterOf(changed, "cache_misses"),
            CounterOf(repeat, "cache_misses"));

  // Eager invalidation: entries tagged with the path are dropped now
  // (LRU aging is the passive fallback), and the counter records it.
  ASSERT_NE((*mgr)->result_cache(), nullptr);
  EXPECT_GE((*mgr)->result_cache()->Invalidate(path), 1);
  EXPECT_GT(CounterOf((*mgr)->metrics().Snapshot(), "cache_invalidations"),
            0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Chaos: a lost cached chunk is rebuilt from lineage, bytes identical
// ---------------------------------------------------------------------------

TEST(ResultCacheChaosTest, LostCachedChunkRecoversViaLineageByteIdentical) {
  const int64_t rows = 4000;
  const std::string solo = SoloFingerprint(rows, 44);

  auto mgr = core::SessionManager::Create(CacheCluster());
  ASSERT_TRUE(mgr.ok());
  {
    auto a = (*mgr)->CreateSession();
    auto r = workloads::pipelines::Census(a.get(), rows, 44);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  // Chaos event: every cached chunk goes down with its band. The cache
  // entries survive (a lost chunk still counts as a hit); the bytes must
  // come back through lineage recovery, not a fatal kKeyError.
  int64_t dropped = 0;
  for (const std::string& key : (*mgr)->storage().SortedKeys()) {
    if (key.rfind("cache/", 0) == 0) {
      ASSERT_TRUE((*mgr)->storage().DropChunk(key).ok()) << key;
      ++dropped;
    }
  }
  ASSERT_GT(dropped, 0);

  auto b = (*mgr)->CreateSession();
  MetricsSnapshot before = (*mgr)->metrics().Snapshot();
  auto r = workloads::pipelines::Census(b.get(), rows, 44);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Fingerprint(*r), solo);
  // The run still probed the cache (hits, by design: lost-but-registered
  // entries are served through recovery)...
  MetricsSnapshot after = (*mgr)->metrics().Snapshot();
  EXPECT_GT(CounterOf(after, "cache_hits"), CounterOf(before, "cache_hits"));
  // ...and recovery actually ran somewhere (cluster or session metrics,
  // depending on which path — fetch or subtask input — tripped first).
  const int64_t recovered = (*mgr)->metrics().Get(CounterId::kChunksRecovered) +
                            b->metrics().Get(CounterId::kChunksRecovered);
  EXPECT_GT(recovered, 0);
}

}  // namespace
}  // namespace xorbits
