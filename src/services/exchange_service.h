#ifndef XORBITS_SERVICES_EXCHANGE_SERVICE_H_
#define XORBITS_SERVICES_EXCHANGE_SERVICE_H_

#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/result.h"
#include "services/chunk_data.h"
#include "services/meta_service.h"
#include "services/storage_service.h"

namespace xorbits::services {

/// Pipelined block exchange (DESIGN.md §11): the streaming shuffle path
/// between mappers and reducers. A shuffle mapper hands each finished
/// partition to `PushPartition`, which cuts it into blocks of at most
/// Config::shuffle_block_bytes rows-worth of payload, stores each block
/// under "<partition_key>#<seq>" (force-spillable, so cold blocks leave
/// memory even when general spill is off), and *seals* the partition by
/// recording its block range in the MetaService. Sealing fires the
/// executor's listener, which makes reducers runnable as soon as every
/// input partition is sealed — not when every mapper subtask completes.
///
/// Wire accounting rides the v4 serialization (packed dictionary codes +
/// RLE): every block is serialized once at push time and its encoded size
/// metered as `shuffle_wire_bytes`, against the logical `shuffle_memory_-
/// bytes` — the two-tier accounting behind the CI compression gate
/// (wire <= 0.7x memory on dict-encoded keys).
///
/// Flow control: when the producing band's usage is past
/// Config::exchange_backpressure_watermark of its budget, the push first
/// spills the stream's own cold blocks (`StorageService::SpillByPrefix`)
/// and meters the stall as `exchange_backpressure_us`. When nothing is
/// spillable the push proceeds anyway — backpressure degrades, it never
/// deadlocks.
///
/// Recovery: blocks are ordinary storage keys under the mapper's
/// "<base>@<p>" namespace, so band-death tombstoning and lineage recovery
/// ("re-run the producing mapper") cover them with no extra machinery; a
/// deterministic re-run re-publishes byte-identical blocks and reseals the
/// same range.
class ExchangeService {
 public:
  ExchangeService(const Config& config, Metrics* metrics,
                  StorageService* storage, MetaService* meta);

  ExchangeService(const ExchangeService&) = delete;
  ExchangeService& operator=(const ExchangeService&) = delete;

  /// Called after a partition seals (block range recorded, all blocks
  /// stored), with the partition key. Invoked on the pushing band's worker
  /// thread with no exchange locks held; must be thread-safe.
  void set_seal_listener(std::function<void(const std::string&)> listener) {
    seal_listener_ = std::move(listener);
  }

  /// Storage key of one block: "<partition_key>#<seq>". '#' sorts after
  /// '@' inside the mapper's namespace, so prefix sweeps of "<base>@" and
  /// BaseKey() stripping at the first '@' both cover block keys.
  static std::string BlockKey(const std::string& partition_key, int64_t seq);

  /// Cuts `data` into blocks, stores them on `band`, seals the partition.
  /// Appends the published block keys to `published_keys` and adds the
  /// logical/encoded byte totals to `memory_bytes`/`wire_bytes` (any of the
  /// three may be null). Empty partitions publish one zero-row block so the
  /// schema still crosses the exchange.
  Status PushPartition(const std::string& partition_key, ChunkDataPtr data,
                       int band, std::vector<std::string>* published_keys,
                       int64_t* memory_bytes, int64_t* wire_bytes);

  /// True once `partition_key` has sealed (its block range is recorded).
  bool IsSealed(const std::string& partition_key) const;

  /// Sealed with every block still readable (present or spilled, not
  /// tombstoned). Recovery's input-availability precheck for "@p" inputs.
  bool PartitionIntact(const std::string& partition_key) const;

  /// Reads and reassembles a sealed partition on `requesting_band`.
  /// Adds the *wire* bytes this call actually moved across bands to
  /// `transferred_wire_bytes` (compression is what shrinks UC10 transfer
  /// time). On kChunkLost, `lost_key` names the missing block so lineage
  /// recovery re-runs the producing mapper.
  Result<ChunkDataPtr> FetchPartition(const std::string& partition_key,
                                      int requesting_band,
                                      int64_t* transferred_wire_bytes,
                                      std::string* lost_key);

 private:
  /// Encoded (v4) size of one block, and the side table that remembers it
  /// so fetch can meter transfer on wire bytes. Caller holds mu_.
  int64_t WireBytesLocked(const std::string& block_key,
                          int64_t logical_bytes) const;

  const int64_t block_bytes_;
  const double watermark_;
  Metrics* const metrics_;
  StorageService* const storage_;
  MetaService* const meta_;
  const TraceConfig trace_;
  std::function<void(const std::string&)> seal_listener_;

  mutable std::mutex mu_;
  /// Encoded size of each published block ("<partition>#<seq>" -> bytes).
  std::unordered_map<std::string, int64_t> wire_bytes_;
};

}  // namespace xorbits::services

#endif  // XORBITS_SERVICES_EXCHANGE_SERVICE_H_
