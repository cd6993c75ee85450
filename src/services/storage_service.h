#ifndef XORBITS_SERVICES_STORAGE_SERVICE_H_
#define XORBITS_SERVICES_STORAGE_SERVICE_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/result.h"
#include "services/chunk_data.h"

namespace xorbits::services {

/// Where a chunk currently lives (paper §V-C StorageLevels; GPU and remote
/// filesystem levels collapse onto these two in the simulation).
enum class StorageLevel { kMemory, kDisk };

/// The intermediate-result store. Each band has a byte budget; `Put`
/// accounts the payload against the producing band and either spills cold
/// chunks to disk (when enabled) or fails with OutOfMemory — the mechanism
/// behind every OOM row in the paper's Tables I/II. `Get` from another band
/// meters simulated network transfer. Keys are opaque; workers address data
/// purely by key (put/get), never by location.
///
/// Multi-tenant quotas (DESIGN.md §8): keys of the form "s<id>/..." are
/// attributed to session <id>, whose *in-memory* logical bytes are tracked
/// and capped at Config::session_memory_quota_bytes. A Put that would bust
/// the quota degrades gracefully: the session's own coldest chunks spill to
/// disk first, and only when spilling cannot make room does the Put fail —
/// with kQuotaExceeded against that session alone, never a co-tenant.
/// Un-prefixed keys (the "cache/" namespace, services used without a
/// session) are exempt.
class StorageService {
 public:
  StorageService(const Config& config, Metrics* metrics);
  ~StorageService();

  StorageService(const StorageService&) = delete;
  StorageService& operator=(const StorageService&) = delete;

  /// Stores `data` on `band`. Fails with OutOfMemory when the band budget is
  /// exhausted and spill is disabled (or disk cannot absorb the overflow).
  /// `force_spillable` marks the entry as evictable to disk even when
  /// Config::enable_spill is off — exchange shuffle blocks use this so a
  /// band under pressure pushes cold blocks out instead of OOMing, which is
  /// what moves the OOM frontier (DESIGN.md §11).
  Status Put(const std::string& key, ChunkDataPtr data, int band,
             bool force_spillable = false);

  /// Spills in-memory chunks whose key starts with `prefix` on `band`,
  /// coldest (LRU) first, until at least `target_bytes` have left memory or
  /// nothing matching remains. Exchange flow control: a producer near the
  /// band watermark pushes its *own* cold blocks to disk before adding a
  /// new one. Returns the logical bytes spilled (0 = nothing eligible).
  int64_t SpillByPrefix(const std::string& prefix, int band,
                        int64_t target_bytes);

  /// Fetches a chunk; `requesting_band` meters cross-band transfer and
  /// faults spilled chunks back into memory. A band pays the transfer only
  /// on its first read of a chunk — afterwards it holds a cached replica
  /// (how real clusters broadcast small tables once per worker). When
  /// `transferred` is non-null it reports whether this call moved bytes.
  Result<ChunkDataPtr> Get(const std::string& key, int requesting_band,
                           bool* transferred = nullptr);

  bool Has(const std::string& key) const;
  Status Delete(const std::string& key);
  /// Deletes every chunk whose key starts with `prefix` (shuffle partitions
  /// of a mapper being rolled back or recomputed). Missing is fine.
  void DeleteByPrefix(const std::string& prefix);
  /// Band the chunk was produced on.
  Result<int> BandOf(const std::string& key) const;

  // --- failure surface (see DESIGN.md § Failure model & recovery) ---

  /// Simulates the death of one band (worker NUMA node): every chunk it
  /// holds — in memory or spilled to its local disk — is dropped and
  /// tombstoned so later reads surface kChunkLost instead of kKeyError,
  /// and future Put/ReserveTransient on the band are rejected with
  /// kWorkerLost. Returns the keys lost. Idempotent.
  std::vector<std::string> MarkBandDead(int band);
  bool band_dead(int band) const;

  /// Drops one chunk (chaos chunk-loss event) and tombstones its key;
  /// later Gets surface kChunkLost until a recomputed payload is Put.
  Status DropChunk(const std::string& key);

  /// Tombstoning DeleteByPrefix: drops every chunk whose key starts with
  /// `prefix` and marks each key lost. Used when lineage recovery tears
  /// down a group's surviving shuffle partitions — concurrent consumers
  /// must see recoverable kChunkLost, never fatal kKeyError, while the
  /// group re-runs.
  void DropByPrefix(const std::string& prefix);

  /// True when `key` was lost (band death / chunk-loss) and has not been
  /// recomputed yet.
  bool IsLost(const std::string& key) const;

  /// Keys of all currently stored chunks, sorted (deterministic victim
  /// selection for chunk-loss events).
  std::vector<std::string> SortedKeys() const;

  int64_t band_used_bytes(int band) const;
  int num_bands() const { return num_bands_; }
  int64_t band_limit() const { return band_limit_; }

  /// In-memory logical bytes currently attributed to a session (0 when it
  /// stores nothing). Spilled chunks do not count — spilling is exactly how
  /// a session stays under quota.
  int64_t session_bytes(int64_t session_id) const;
  /// Session id a key is attributed to (-1 for un-namespaced keys).
  static int64_t SessionOfKey(const std::string& key);

  /// Reserves transient working memory on a band for the duration of a
  /// subtask (fused intermediates never hit the store but still occupy
  /// worker memory). Returns OutOfMemory when it cannot fit.
  Status ReserveTransient(int band, int64_t bytes);
  void ReleaseTransient(int band, int64_t bytes);

  /// Drops everything (end of run).
  void Clear();

 private:
  struct Entry {
    ChunkDataPtr data;        // null when spilled
    int band = 0;
    StorageLevel level = StorageLevel::kMemory;
    /// Logical payload bytes (transfer/spill metering; unique within the
    /// chunk but blind to sharing with other chunks).
    int64_t nbytes = 0;
    /// Bytes not backed by shared buffers (index labels, scalars) —
    /// charged against the band budget per chunk, unconditionally.
    int64_t overhead_bytes = 0;
    /// Distinct underlying buffers (id, bytes); charged against the band
    /// budget once per buffer across all chunks the band holds.
    std::vector<std::pair<uint64_t, int64_t>> buffers;
    std::string spill_path;
    uint64_t lru_tick = 0;
    /// Bands holding a cached replica (transfer charged once per band).
    std::vector<int> replicas;
    /// Owning session parsed from the key prefix (-1 = un-namespaced).
    int64_t session = -1;
    /// May be spilled even when Config::enable_spill is off (exchange
    /// shuffle blocks).
    bool force_spillable = false;
  };

  /// One shared buffer held on a band: budget bytes + chunk refcount.
  struct BandBuffer {
    int64_t bytes = 0;
    int refs = 0;
  };

  /// Fills an entry's accounting fields (nbytes/overhead/buffers) from its
  /// payload. Called on Put and again after a spill fault-back, because
  /// deserialization mints fresh buffers.
  static void FillAccounting(Entry* e, const ChunkData& data);

  /// Bytes Charge would actually add on `band`: overhead plus every buffer
  /// the band does not already hold. Caller holds mu_.
  int64_t ChargeDeltaLocked(int band, const Entry& e) const;
  void ChargeLocked(int band, const Entry& e);
  void UnchargeLocked(int band, const Entry& e);
  /// Drops replica-byte metering for every band caching this entry.
  void ReleaseReplicasLocked(const Entry& e);

  /// Ensures `bytes` fit on `band`, spilling LRU chunks if allowed.
  /// Caller holds mu_.
  Status EnsureCapacityLocked(int band, int64_t bytes);
  /// Entry-aware variant: recomputes the prospective charge after every
  /// spill, since evicting a chunk that shares buffers with `e` shrinks
  /// what `e` still needs. Caller holds mu_.
  Status EnsureEntryCapacityLocked(int band, const Entry& e);
  /// `forced_only` restricts victims to force-spillable entries — the only
  /// ones allowed to leave memory when Config::enable_spill is off.
  Status SpillOneLocked(int band, bool forced_only = false);
  /// Spills `victim` (an in-memory entry) to disk: uncharges its band,
  /// decrements its session's in-memory bytes, meters spill counters.
  Status SpillEntryLocked(const std::string& key, Entry* victim);
  /// Spills the session's least-recently-used in-memory chunk (any band),
  /// skipping `exclude`. Quota degradation step: the tenant pays with its
  /// own cold data before it is failed. Caller holds mu_.
  Status SpillSessionOneLocked(int64_t session_id,
                               const std::string& exclude,
                               bool forced_only = false);
  /// Adjusts the session's in-memory byte accounting + gauge (no-op for
  /// session -1). Caller holds mu_.
  void AddSessionBytesLocked(int64_t session_id, int64_t delta);
  /// Makes room under the session quota for `incoming` more bytes by
  /// spilling the session's own chunks; returns kQuotaExceeded naming the
  /// session, its usage, and the quota when it cannot. Caller holds mu_.
  Status EnsureSessionQuotaLocked(int64_t session_id, int64_t incoming,
                                  const std::string& incoming_key);

  const int num_bands_;
  const int64_t band_limit_;
  const bool enable_spill_;
  /// Per-session in-memory byte cap (-1 disables; see Config).
  const int64_t session_quota_;
  const std::string spill_dir_;
  Metrics* const metrics_;
  const TraceConfig trace_;
  /// Per-band registry gauges (band_peak_bytes/<b>, band_spill_bytes/<b>,
  /// band_replica_bytes/<b>), registered at construction; pointers are
  /// stable for metrics_'s life.
  std::vector<Gauge*> peak_gauges_;
  std::vector<Gauge*> spill_gauges_;
  std::vector<Gauge*> replica_gauges_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::vector<int64_t> band_used_;
  /// Shared buffers resident per band, refcounted across chunks — the
  /// mechanism that keeps a buffer charged once however many views of it
  /// the band stores.
  std::vector<std::unordered_map<uint64_t, BandBuffer>> band_buffers_;
  /// Replica-held logical bytes per band (metered, not budgeted; see
  /// DESIGN.md §5).
  std::vector<int64_t> band_replica_bytes_;
  std::vector<char> band_dead_;
  /// Keys lost to band death / chunk-loss events, pending recompute.
  std::unordered_set<std::string> lost_;
  /// In-memory logical bytes per tenant session, and the lazily registered
  /// session_bytes_used/<id> gauge mirroring each.
  std::unordered_map<int64_t, int64_t> session_bytes_;
  std::unordered_map<int64_t, Gauge*> session_gauges_;
  uint64_t tick_ = 0;
  uint64_t spill_file_seq_ = 0;
};

}  // namespace xorbits::services

#endif  // XORBITS_SERVICES_STORAGE_SERVICE_H_
