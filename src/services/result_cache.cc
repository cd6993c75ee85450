#include "services/result_cache.h"

#include <cstdint>

#include "common/content_hash.h"
#include "common/trace_names.h"
#include "common/tracing.h"

namespace xorbits::services {

ResultCache::ResultCache(const Config& config, StorageService* storage,
                         Metrics* metrics)
    : storage_(storage),
      metrics_(metrics),
      budget_bytes_(config.result_cache_budget_bytes),
      trace_(config.trace),
      bytes_gauge_(
          metrics->registry.GetGauge(trace::kGaugeCacheBytes, "bytes")),
      entries_gauge_(
          metrics->registry.GetGauge(trace::kGaugeCacheEntries, "entries")) {}

std::string ResultCache::HashHex(const std::string& s) {
  common::ContentHasher h;
  h.Update(s.data(), s.size());
  return h.Finish().Hex();
}

std::string ResultCache::KeyForSig(const std::string& sig) {
  return "cache/" + sig;
}

std::optional<ResultCache::Hit> ResultCache::LookupAndPin(
    const std::string& sig) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(sig);
  // A doomed entry is semantically gone (its source changed); an entry
  // whose chunk was lost (band death) and not yet recovered still counts
  // as a hit — lineage recovery recomputes the bytes on first read.
  if (it == entries_.end() || it->second.doomed) {
    metrics_->Add(CounterId::kCacheMisses);
    return std::nullopt;
  }
  Entry& e = it->second;
  ++e.pins;
  e.lru_tick = ++tick_;
  metrics_->Add(CounterId::kCacheHits);
  return Hit{e.key, e.meta};
}

void ResultCache::Unpin(const std::vector<std::string>& sigs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& sig : sigs) {
    auto it = entries_.find(sig);
    if (it == entries_.end()) continue;
    Entry& e = it->second;
    if (e.pins > 0) --e.pins;
    if (e.pins == 0 && e.doomed) DropLocked(it);
  }
  // Publishes that arrived while everything was pinned may have left the
  // cache over budget; settle now that there are evictable entries.
  EvictToBudgetLocked();
  UpdateGaugesLocked();
}

void ResultCache::Publish(const std::string& sig, const ChunkDataPtr& data,
                          int band, const ChunkMeta& meta,
                          const std::vector<std::string>& tags) {
  if (data == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(sig) > 0) return;  // racing publisher won; keep theirs
  const std::string key = KeyForSig(sig);
  // After lineage recovery the chunk may already sit in storage under the
  // cache key (recovery re-runs the producing subtask, which re-publishes);
  // Put would fail fatal on the duplicate, so only store when absent.
  if (!storage_->Has(key)) {
    Status st = storage_->Put(key, data, band);
    if (!st.ok()) return;  // OOM/dead band: cache misses out, run unharmed
  }
  Entry e;
  e.key = key;
  e.meta = meta;
  e.meta.band = band;
  e.nbytes = meta.nbytes >= 0 ? meta.nbytes : 0;
  e.lru_tick = ++tick_;
  e.tags = tags;
  bytes_ += e.nbytes;
  entries_.emplace(sig, std::move(e));
  metrics_->Add(CounterId::kCachePublishes);
  EvictToBudgetLocked();
  UpdateGaugesLocked();
}

int64_t ResultCache::Invalidate(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& e = it->second;
    bool match = false;
    for (const std::string& t : e.tags) {
      if (t == tag) {
        match = true;
        break;
      }
    }
    if (!match) {
      ++it;
      continue;
    }
    ++dropped;
    metrics_->Add(CounterId::kCacheInvalidations);
    if (trace_.sink != nullptr) {
      trace_.sink->Instant(trace_.pid, kTrackStorage,
                           trace::kEventCacheInvalidate,
                           {Arg("key", e.key), Arg("source", tag)});
    }
    if (e.pins > 0) {
      // A consumer is mid-run on the old bytes; serving them to completion
      // is the read-committed behaviour we want. Gone for new probes now,
      // dropped for real on last unpin.
      e.doomed = true;
      ++it;
    } else {
      it = DropLocked(it);
    }
  }
  UpdateGaugesLocked();
  return dropped;
}

int64_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

bool ResultCache::Contains(const std::string& sig) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(sig);
  return it != entries_.end() && !it->second.doomed;
}

std::unordered_map<std::string, ResultCache::Entry>::iterator
ResultCache::DropLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  // Tombstone, don't Delete: a reader that raced this drop must see
  // recoverable kChunkLost (lineage recomputes the bytes), never kKeyError.
  (void)storage_->DropChunk(it->second.key);
  bytes_ -= it->second.nbytes;
  return entries_.erase(it);
}

void ResultCache::EvictToBudgetLocked() {
  while (bytes_ > budget_bytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.pins > 0) continue;
      if (victim == entries_.end() ||
          it->second.lru_tick < victim->second.lru_tick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything pinned; over-budget
    metrics_->Add(CounterId::kCacheEvictions);
    if (trace_.sink != nullptr) {
      trace_.sink->Instant(trace_.pid, kTrackStorage, trace::kEventCacheEvict,
                           {Arg("key", victim->second.key),
                            Arg("bytes", victim->second.nbytes)});
    }
    DropLocked(victim);
  }
}

void ResultCache::UpdateGaugesLocked() {
  bytes_gauge_->Set(bytes_);
  entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
}

}  // namespace xorbits::services
