#ifndef XORBITS_SERVICES_RESULT_CACHE_H_
#define XORBITS_SERVICES_RESULT_CACHE_H_

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "services/chunk_data.h"
#include "services/meta_service.h"
#include "services/storage_service.h"

namespace xorbits::services {

/// Cross-session plan-fragment/result cache (DESIGN.md §9).
///
/// Entries are keyed by the *transitive* cache signature of a chunk
/// sub-plan — an op's `CacheSignature` hashed together with the signatures
/// of its whole input closure — so one key identifies "these exact bytes,
/// however many sessions ask for them". The `result_cache` optimizer pass
/// probes it before scheduling (`LookupAndPin`), the executor fills it on
/// successful subtask completion (`Publish`), and cached payloads live in
/// the storage service under the un-namespaced `cache/` key prefix:
/// `SessionOfKey` parses those to session -1, so cached bytes are charged
/// to the cluster-level `result_cache_budget_bytes` here and *never* to a
/// tenant's session_memory_quota_bytes (PR 7's fail-only-the-offender
/// invariant survives verbatim).
///
/// Budgeting is LRU over unpinned entries: a probe hit pins its entry for
/// the duration of the consuming run (the driver unpins in its epilogue),
/// which is what prevents the evict-while-a-consumer-is-mid-fetch race.
/// Eviction tombstones the chunk (`DropChunk`, not `Delete`) so a reader
/// that raced the eviction sees recoverable kChunkLost — lineage recovery
/// then recomputes the exact bytes — never a fatal kKeyError.
///
/// Invalidation is two-layered: file-source signatures embed mtime+size,
/// so a changed input hashes to a *different* key and simply never matches
/// (stale entries age out through LRU); `Invalidate(tag)` additionally
/// drops every entry derived from a named source eagerly.
class ResultCache {
 public:
  /// `storage` and `metrics` must outlive the cache. Counters
  /// (cache_hits/misses/publishes/evictions/invalidations) and gauges
  /// (cache_bytes/cache_entries) all land on `metrics`, the
  /// SessionManager's cluster metrics.
  ResultCache(const Config& config, StorageService* storage,
              Metrics* metrics);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  struct Hit {
    std::string key;  // storage key, "cache/<sig>"
    ChunkMeta meta;   // meta recorded when the chunk was published
  };

  /// Probes `sig`; on hit pins the entry (evict-proof until `Unpin`) and
  /// returns its storage key + meta. Counts cache_hits / cache_misses.
  std::optional<Hit> LookupAndPin(const std::string& sig);

  /// Releases pins taken by LookupAndPin. Idempotent per pin (the caller
  /// passes each pinned sig exactly once); entries doomed by Invalidate
  /// while pinned are dropped when their last pin goes.
  void Unpin(const std::vector<std::string>& sigs);

  /// Registers the completed chunk for `sig`, storing the payload under
  /// "cache/<sig>" on `band` when it is not already there. Best-effort and
  /// idempotent: a duplicate publish (two tenants racing the same miss) or
  /// a storage failure is swallowed — the cache is an optimization, never
  /// a correctness dependency. `tags` name the source inputs the sub-plan
  /// depends on (for Invalidate). Evicts LRU unpinned entries until the
  /// budget holds.
  void Publish(const std::string& sig, const ChunkDataPtr& data, int band,
               const ChunkMeta& meta, const std::vector<std::string>& tags);

  /// Eagerly drops every entry whose sub-plan read the source named `tag`
  /// (pinned entries are doomed and go on last unpin). Returns how many
  /// entries were invalidated.
  int64_t Invalidate(const std::string& tag);

  /// Logical payload bytes currently cached (the budget denominator).
  int64_t bytes() const;
  int64_t entries() const;
  bool Contains(const std::string& sig) const;

  /// 128-bit content hash of `s` (common::ContentHasher), as 32 lowercase
  /// hex chars. The building block for transitive signatures: hashing at
  /// every node keeps signature strings bounded however deep the plan is.
  static std::string HashHex(const std::string& s);

  /// Storage key for a signature ("cache/<sig>").
  static std::string KeyForSig(const std::string& sig);

 private:
  struct Entry {
    std::string key;
    ChunkMeta meta;
    int64_t nbytes = 0;
    int pins = 0;
    bool doomed = false;  // invalidated while pinned; drop on last unpin
    uint64_t lru_tick = 0;
    std::vector<std::string> tags;
  };

  /// Drops `it`'s chunk (tombstoning) and erases the entry. Caller holds
  /// mu_. Returns the iterator past the erased entry.
  std::unordered_map<std::string, Entry>::iterator DropLocked(
      std::unordered_map<std::string, Entry>::iterator it);
  /// Evicts LRU unpinned entries until bytes_ fits the budget. Caller
  /// holds mu_.
  void EvictToBudgetLocked();
  void UpdateGaugesLocked();

  StorageService* const storage_;
  Metrics* const metrics_;
  const int64_t budget_bytes_;
  const TraceConfig trace_;
  Gauge* const bytes_gauge_;
  Gauge* const entries_gauge_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  int64_t bytes_ = 0;
  uint64_t tick_ = 0;
};

}  // namespace xorbits::services

#endif  // XORBITS_SERVICES_RESULT_CACHE_H_
