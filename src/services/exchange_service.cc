#include "services/exchange_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/trace_names.h"
#include "common/tracing.h"
#include "dataframe/kernels.h"

namespace xorbits::services {

namespace {

int64_t WallUsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ExchangeService::ExchangeService(const Config& config, Metrics* metrics,
                                 StorageService* storage, MetaService* meta)
    : block_bytes_(config.shuffle_block_bytes),
      watermark_(config.exchange_backpressure_watermark),
      metrics_(metrics),
      storage_(storage),
      meta_(meta),
      trace_(config.trace) {}

std::string ExchangeService::BlockKey(const std::string& partition_key,
                                      int64_t seq) {
  return partition_key + "#" + std::to_string(seq);
}

Status ExchangeService::PushPartition(const std::string& partition_key,
                                      ChunkDataPtr data, int band,
                                      std::vector<std::string>* published_keys,
                                      int64_t* memory_bytes,
                                      int64_t* wire_bytes) {
  TraceSpan span(trace_.sink, trace_.pid, kTrackStorage,
                 trace::kSpanExchangePush);
  // Deterministic row split: block boundaries depend only on the partition
  // payload and the configured block size, never on thread timing — the
  // bedrock of byte-identical re-runs and recovery re-publication.
  std::vector<ChunkDataPtr> blocks;
  if (data->is_dataframe() && data->rows() > 0 &&
      data->nbytes() > block_bytes_) {
    const int64_t rows = data->rows();
    const int64_t bytes_per_row = std::max<int64_t>(1, data->nbytes() / rows);
    const int64_t rows_per_block =
        std::max<int64_t>(1, block_bytes_ / bytes_per_row);
    const dataframe::DataFrame& df = data->dataframe();
    for (int64_t off = 0; off < rows; off += rows_per_block) {
      const int64_t count = std::min(rows_per_block, rows - off);
      blocks.push_back(MakeChunk(df.SliceRows(off, count)));
    }
  } else {
    // Small partitions, empty partitions (one zero-row block keeps the
    // schema flowing), and non-dataframe payloads ship as a single block.
    blocks.push_back(std::move(data));
  }

  // The stream's own namespace: backpressure spills cold blocks under it.
  const size_t at = partition_key.rfind('@');
  const std::string stream_prefix =
      (at == std::string::npos ? partition_key
                               : partition_key.substr(0, at + 1));

  const int64_t band_limit = storage_->band_limit();
  const int64_t high_water =
      static_cast<int64_t>(static_cast<double>(band_limit) * watermark_);
  for (int64_t seq = 0; seq < static_cast<int64_t>(blocks.size()); ++seq) {
    const std::string block_key = BlockKey(partition_key, seq);
    const ChunkDataPtr& block = blocks[seq];
    const int64_t logical = block->nbytes();

    // Flow control: the receiving band is near its budget — push this
    // stream's own cold blocks to disk first. If nothing is spillable we
    // proceed regardless (progress over throttling; Put's own capacity
    // path is the final arbiter).
    const int64_t used = storage_->band_used_bytes(band);
    if (used + logical > high_water) {
      const auto t0 = std::chrono::steady_clock::now();
      const int64_t freed = storage_->SpillByPrefix(
          stream_prefix, band, used + logical - high_water);
      const int64_t stall_us = WallUsSince(t0);
      ChargeScoped(CounterId::kExchangeBackpressureUs, stall_us);
      if (trace_.sink != nullptr) {
        trace_.sink->Instant(trace_.pid, kTrackStorage,
                             trace::kEventExchangeBackpressure,
                             {Arg("partition", partition_key),
                              Arg("freed_bytes", freed),
                              Arg("band", int64_t{band})});
      }
    }

    // Wire size = the v4 encoding the block ships (and spills) as. Packed
    // dictionary codes + RLE are what buy the <= 0.7x gate on dict keys.
    XORBITS_ASSIGN_OR_RETURN(std::string encoded, SerializeChunk(*block));
    const int64_t wire = static_cast<int64_t>(encoded.size());

    // Idempotent publication: lineage recovery may re-run a mapper while
    // the original attempt is still streaming (blocks are recoverable
    // mid-subtask). The split is deterministic, so both writers carry
    // identical bytes — a block that is already stored, or loses a racing
    // insert, counts as published.
    if (!storage_->Has(block_key)) {
      Status put =
          storage_->Put(block_key, block, band, /*force_spillable=*/true);
      if (!put.ok() && !storage_->Has(block_key)) return put;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      wire_bytes_[block_key] = wire;
    }
    ChargeScoped(CounterId::kShuffleBlocksProduced);
    ChargeScoped(CounterId::kShuffleMemoryBytes, logical);
    ChargeScoped(CounterId::kShuffleWireBytes, wire);
    if (published_keys != nullptr) published_keys->push_back(block_key);
    if (memory_bytes != nullptr) *memory_bytes += logical;
    if (wire_bytes != nullptr) *wire_bytes += wire;
  }

  // Seal: the block range in the MetaService is the durable record that
  // every block of this partition exists — the reducer's green light.
  meta_->PutBlockRange(partition_key,
                       static_cast<int64_t>(blocks.size()));
  if (trace_.sink != nullptr) {
    trace_.sink->Instant(
        trace_.pid, kTrackStorage, trace::kEventExchangeSeal,
        {Arg("partition", partition_key),
         Arg("blocks", static_cast<int64_t>(blocks.size()))});
  }
  if (seal_listener_) seal_listener_(partition_key);
  return Status::OK();
}

bool ExchangeService::IsSealed(const std::string& partition_key) const {
  return meta_->HasBlockRange(partition_key);
}

bool ExchangeService::PartitionIntact(
    const std::string& partition_key) const {
  Result<int64_t> range = meta_->GetBlockRange(partition_key);
  if (!range.ok()) return false;
  for (int64_t seq = 0; seq < *range; ++seq) {
    if (!storage_->Has(BlockKey(partition_key, seq))) return false;
  }
  return true;
}

int64_t ExchangeService::WireBytesLocked(const std::string& block_key,
                                         int64_t logical_bytes) const {
  auto it = wire_bytes_.find(block_key);
  return it == wire_bytes_.end() ? logical_bytes : it->second;
}

Result<ChunkDataPtr> ExchangeService::FetchPartition(
    const std::string& partition_key, int requesting_band,
    int64_t* transferred_wire_bytes, std::string* lost_key) {
  TraceSpan span(trace_.sink, trace_.pid, kTrackBandBase + requesting_band,
                 trace::kSpanExchangeFetch);
  XORBITS_ASSIGN_OR_RETURN(int64_t blocks,
                           meta_->GetBlockRange(partition_key));
  std::vector<ChunkDataPtr> parts;
  parts.reserve(static_cast<size_t>(blocks));
  for (int64_t seq = 0; seq < blocks; ++seq) {
    const std::string block_key = BlockKey(partition_key, seq);
    bool transferred = false;
    Result<ChunkDataPtr> block =
        storage_->Get(block_key, requesting_band, &transferred);
    if (!block.ok()) {
      if (lost_key != nullptr && block.status().IsChunkLost()) {
        *lost_key = block_key;
      }
      return block.status();
    }
    if (transferred && transferred_wire_bytes != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      *transferred_wire_bytes +=
          WireBytesLocked(block_key, (*block)->nbytes());
    }
    parts.push_back(std::move(*block));
  }
  ChargeScoped(CounterId::kShuffleBlocksConsumed, blocks);

  if (parts.size() == 1) return parts[0];
  std::vector<const dataframe::DataFrame*> frames;
  frames.reserve(parts.size());
  for (const ChunkDataPtr& p : parts) {
    XORBITS_ASSIGN_OR_RETURN(const dataframe::DataFrame* df, AsDataFrame(p));
    frames.push_back(df);
  }
  XORBITS_ASSIGN_OR_RETURN(dataframe::DataFrame whole,
                           dataframe::Concat(frames));
  return MakeChunk(std::move(whole));
}

}  // namespace xorbits::services
