#include "services/storage_service.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "common/trace_names.h"
#include "common/tracing.h"
#include "dataframe/dict.h"

namespace xorbits::services {

namespace {

// A spill file is the serialized chunk plus an 8-byte FNV-1a trailer over
// it, so a torn write or a flipped byte reads back as corrupt instead of
// decoding into different values.
void AppendSpillTrailer(std::string* buf) {
  const uint64_t h = dataframe::HashBytes(buf->data(), buf->size());
  buf->append(reinterpret_cast<const char*>(&h), sizeof(h));
}

/// Verifies and strips the trailer; false when the file is corrupt.
bool CheckSpillTrailer(std::string* buf) {
  if (buf->size() < sizeof(uint64_t)) return false;
  const size_t n = buf->size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, buf->data() + n, sizeof(stored));
  if (stored != dataframe::HashBytes(buf->data(), n)) return false;
  buf->resize(n);
  return true;
}

}  // namespace

StorageService::StorageService(const Config& config, Metrics* metrics)
    : num_bands_(config.total_bands()),
      band_limit_(config.band_memory_limit),
      enable_spill_(config.enable_spill),
      session_quota_(config.session_memory_quota_bytes),
      spill_dir_(config.spill_dir),
      metrics_(metrics),
      trace_(config.trace),
      band_used_(config.total_bands(), 0),
      band_buffers_(config.total_bands()),
      band_replica_bytes_(config.total_bands(), 0),
      band_dead_(config.total_bands(), 0) {
  peak_gauges_.reserve(num_bands_);
  spill_gauges_.reserve(num_bands_);
  replica_gauges_.reserve(num_bands_);
  for (int b = 0; b < num_bands_; ++b) {
    peak_gauges_.push_back(metrics_->registry.GetGauge(
        trace::kGaugeBandPeakBytesPrefix + std::to_string(b), "bytes"));
    spill_gauges_.push_back(metrics_->registry.GetGauge(
        trace::kGaugeBandSpillBytesPrefix + std::to_string(b), "bytes"));
    replica_gauges_.push_back(metrics_->registry.GetGauge(
        trace::kGaugeBandReplicaBytesPrefix + std::to_string(b), "bytes"));
  }
  if (enable_spill_) {
    std::error_code ec;
    std::filesystem::create_directories(spill_dir_, ec);
  }
}

StorageService::~StorageService() { Clear(); }

int64_t StorageService::SessionOfKey(const std::string& key) {
  // Tenant keys are namespaced "s<digits>/..." by ChunkGraph::set_key_prefix;
  // anything else (cache entries, test fixtures) is unattributed. Shuffle
  // partitions "s7/c3_0@2" inherit the prefix, so every byte a session's
  // subtasks publish lands on its own account.
  if (key.size() < 3 || key[0] != 's') return -1;
  size_t i = 1;
  while (i < key.size() && key[i] >= '0' && key[i] <= '9') ++i;
  if (i == 1 || i >= key.size() || key[i] != '/') return -1;
  return std::stoll(key.substr(1, i - 1));
}

void StorageService::AddSessionBytesLocked(int64_t session_id,
                                           int64_t delta) {
  if (session_id < 0 || delta == 0) return;
  int64_t& bytes = session_bytes_[session_id];
  bytes += delta;
  Gauge*& g = session_gauges_[session_id];
  if (g == nullptr) {
    g = metrics_->registry.GetGauge(
        trace::kGaugeSessionBytesPrefix + std::to_string(session_id),
        "bytes");
  }
  g->Set(bytes);
}

int64_t StorageService::session_bytes(int64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = session_bytes_.find(session_id);
  return it == session_bytes_.end() ? 0 : it->second;
}

Status StorageService::EnsureSessionQuotaLocked(
    int64_t session_id, int64_t incoming, const std::string& incoming_key) {
  if (session_quota_ < 0 || session_id < 0) return Status::OK();
  auto quota_detail = [&](const std::string& why) {
    if (trace_.sink != nullptr) {
      trace_.sink->Instant(trace_.pid, kTrackStorage,
                           trace::kEventQuotaExceeded,
                           {Arg("session", session_id),
                            Arg("requested_bytes", incoming),
                            Arg("used_bytes", session_bytes_[session_id]),
                            Arg("quota_bytes", session_quota_)});
    }
    return "session " + std::to_string(session_id) +
           " memory quota exceeded (" + why + "): requested " +
           std::to_string(incoming) + " bytes for '" + incoming_key +
           "', in-memory " + std::to_string(session_bytes_[session_id]) +
           " of quota " + std::to_string(session_quota_) + " bytes";
  };
  if (incoming > session_quota_) {
    metrics_->Add(CounterId::kOomEvents);
    return Status::QuotaExceeded(
        quota_detail("single chunk exceeds whole quota"));
  }
  // Graceful degradation, step one: the session pays with its own cold
  // data. Co-tenants' chunks are never touched on this path — a session
  // can only be slowed (spill round-trips) or failed by its own footprint.
  while (session_bytes_[session_id] + incoming > session_quota_) {
    Status s = SpillSessionOneLocked(session_id, incoming_key,
                                     /*forced_only=*/!enable_spill_);
    if (!s.ok()) {
      metrics_->Add(CounterId::kOomEvents);
      if (!enable_spill_) {
        return Status::QuotaExceeded(quota_detail("spill disabled"));
      }
      return Status::QuotaExceeded(
          quota_detail("cannot spill: " + s.message()));
    }
  }
  return Status::OK();
}

void StorageService::FillAccounting(Entry* e, const ChunkData& data) {
  e->nbytes = data.nbytes();
  e->overhead_bytes = data.overhead_nbytes();
  std::vector<common::BufferRef> refs;
  data.AppendBufferRefs(&refs);
  e->buffers = common::UniqueBuffers(std::move(refs));
}

int64_t StorageService::ChargeDeltaLocked(int band, const Entry& e) const {
  int64_t delta = e.overhead_bytes;
  const auto& held = band_buffers_[band];
  for (const auto& [id, bytes] : e.buffers) {
    if (held.find(id) == held.end()) delta += bytes;
  }
  return delta;
}

void StorageService::ChargeLocked(int band, const Entry& e) {
  for (const auto& [id, bytes] : e.buffers) {
    BandBuffer& bb = band_buffers_[band][id];
    if (bb.refs == 0) {
      bb.bytes = bytes;
      band_used_[band] += bytes;
    }
    bb.refs++;
  }
  band_used_[band] += e.overhead_bytes;
}

void StorageService::UnchargeLocked(int band, const Entry& e) {
  auto& held = band_buffers_[band];
  for (const auto& [id, bytes] : e.buffers) {
    auto it = held.find(id);
    if (it == held.end()) continue;
    if (--it->second.refs == 0) {
      band_used_[band] -= it->second.bytes;
      held.erase(it);
    }
  }
  band_used_[band] -= e.overhead_bytes;
}

void StorageService::ReleaseReplicasLocked(const Entry& e) {
  for (int b : e.replicas) {
    band_replica_bytes_[b] -= e.nbytes;
    replica_gauges_[b]->Set(band_replica_bytes_[b]);
  }
}

Status StorageService::Put(const std::string& key, ChunkDataPtr data,
                           int band, bool force_spillable) {
  if (!data) return Status::Invalid("Put of null chunk: " + key);
  if (band < 0 || band >= num_bands_) {
    return Status::Invalid("Put on bad band " + std::to_string(band));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (band_dead_[band]) {
    return Status::WorkerLost("Put of '" + key + "' on dead band " +
                              std::to_string(band));
  }
  if (entries_.count(key)) {
    return Status::Invalid("duplicate chunk key: " + key);
  }
  Entry e;
  e.band = band;
  e.lru_tick = ++tick_;
  e.session = SessionOfKey(key);
  e.force_spillable = force_spillable;
  FillAccounting(&e, *data);
  e.data = std::move(data);
  const int64_t bytes = e.nbytes;
  // Quota before band budget: a tenant over its own cap must not get to
  // evict co-tenants' chunks from the band while making room for itself.
  XORBITS_RETURN_NOT_OK(EnsureSessionQuotaLocked(e.session, bytes, key));
  XORBITS_RETURN_NOT_OK(EnsureEntryCapacityLocked(band, e));
  lost_.erase(key);  // a recomputed payload resurrects a lost key
  ChargeLocked(band, e);
  AddSessionBytesLocked(e.session, bytes);
  entries_.emplace(key, std::move(e));
  metrics_->Add(CounterId::kChunksStored);
  metrics_->Add(CounterId::kBytesStored, bytes);
  metrics_->RaiseTo(CounterId::kPeakBandBytes, band_used_[band]);
  metrics_->chunk_bytes->Observe(bytes);
  peak_gauges_[band]->SetMax(band_used_[band]);
  return Status::OK();
}

Result<ChunkDataPtr> StorageService::Get(const std::string& key,
                                         int requesting_band,
                                         bool* transferred) {
  if (transferred != nullptr) *transferred = false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (lost_.count(key)) {
      return Status::ChunkLost("chunk '" + key +
                               "' was lost (dead band or chunk-loss event) "
                               "and awaits lineage recompute");
    }
    return Status::KeyError("no chunk with key '" + key + "'");
  }
  Entry& e = it->second;
  e.lru_tick = ++tick_;
  if (e.level == StorageLevel::kDisk) {
    // Fault back into memory on the owning band. A spill file that is gone
    // (worker disk fault) or no longer decodes (torn write, bit rot) leaves the payload unrecoverable from storage
    // alone: tombstone it, drop the bad file so no retry re-reads it, and
    // let the executor's lineage recovery recompute it.
    const auto lose = [&](const std::string& why) {
      lost_.insert(key);
      const std::string path = e.spill_path;
      std::error_code ec;
      std::filesystem::remove(path, ec);
      entries_.erase(it);
      return Status::ChunkLost("spill file " + path + " for chunk '" + key +
                               "' " + why + "; lineage recompute required");
    };
    std::ifstream in(e.spill_path, std::ios::binary);
    if (!in) return lose("is gone");
    std::string buf((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    if (!CheckSpillTrailer(&buf)) return lose("fails its checksum");
    Result<ChunkDataPtr> decoded = DeserializeChunk(buf);
    if (!decoded.ok()) {
      return lose("is corrupt (" + decoded.status().message() + ")");
    }
    ChunkDataPtr data = decoded.MoveValue();
    // Deserialization minted fresh buffers (identical windows inside the
    // chunk were reunified by the v2 back-references) — rebuild the
    // accounting fields before recharging the band.
    FillAccounting(&e, *data);
    XORBITS_RETURN_NOT_OK(EnsureEntryCapacityLocked(e.band, e));
    std::filesystem::remove(e.spill_path);
    e.spill_path.clear();
    e.data = std::move(data);
    e.level = StorageLevel::kMemory;
    ChargeLocked(e.band, e);
    AddSessionBytesLocked(e.session, e.nbytes);
    // A fault-back may transiently push the session over quota (the reader
    // needs the payload in memory no matter what); rebalance by spilling
    // its other cold chunks best-effort rather than failing the read.
    if (session_quota_ >= 0 && e.session >= 0) {
      while (session_bytes_[e.session] > session_quota_ &&
             SpillSessionOneLocked(e.session, key).ok()) {
      }
    }
    metrics_->RaiseTo(CounterId::kPeakBandBytes, band_used_[e.band]);
    peak_gauges_[e.band]->SetMax(band_used_[e.band]);
  }
  if (requesting_band >= 0 && requesting_band != e.band) {
    bool cached = false;
    for (int b : e.replicas) {
      if (b == requesting_band) {
        cached = true;
        break;
      }
    }
    if (!cached) {
      metrics_->Add(CounterId::kBytesTransferred, e.nbytes);
      e.replicas.push_back(requesting_band);
      band_replica_bytes_[requesting_band] += e.nbytes;
      replica_gauges_[requesting_band]->Set(
          band_replica_bytes_[requesting_band]);
      if (transferred != nullptr) *transferred = true;
    }
  }
  return e.data;
}

bool StorageService::Has(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) > 0;
}

Status StorageService::Delete(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // Deleting a lost key settles its tombstone (the consumer that needed
    // it is being rolled back or recomputed).
    if (lost_.erase(key) > 0) return Status::OK();
    return Status::KeyError("delete of unknown chunk '" + key + "'");
  }
  if (it->second.level == StorageLevel::kMemory) {
    UnchargeLocked(it->second.band, it->second);
    AddSessionBytesLocked(it->second.session, -it->second.nbytes);
  } else {
    std::filesystem::remove(it->second.spill_path);
  }
  ReleaseReplicasLocked(it->second);
  entries_.erase(it);
  return Status::OK();
}

void StorageService::DeleteByPrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      if (it->second.level == StorageLevel::kMemory) {
        UnchargeLocked(it->second.band, it->second);
        AddSessionBytesLocked(it->second.session, -it->second.nbytes);
      } else {
        std::filesystem::remove(it->second.spill_path);
      }
      ReleaseReplicasLocked(it->second);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = lost_.begin(); it != lost_.end();) {
    if (it->rfind(prefix, 0) == 0) {
      it = lost_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::string> StorageService::MarkBandDead(int band) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> lost_keys;
  if (band < 0 || band >= num_bands_ || band_dead_[band]) return lost_keys;
  band_dead_[band] = 1;
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& e = it->second;
    if (e.band == band) {
      // Memory and spilled chunks both die with the band — spill files
      // live on the dead worker's local disk.
      if (e.level == StorageLevel::kDisk) {
        std::filesystem::remove(e.spill_path);
      } else {
        AddSessionBytesLocked(e.session, -e.nbytes);
      }
      ReleaseReplicasLocked(e);
      lost_keys.push_back(it->first);
      lost_.insert(it->first);
      it = entries_.erase(it);
    } else {
      // Cached replicas on the dead band are gone; surviving consumers
      // pay the transfer again on their next read.
      auto& reps = e.replicas;
      reps.erase(std::remove(reps.begin(), reps.end(), band), reps.end());
      ++it;
    }
  }
  band_used_[band] = 0;
  band_buffers_[band].clear();
  band_replica_bytes_[band] = 0;
  replica_gauges_[band]->Set(0);
  std::sort(lost_keys.begin(), lost_keys.end());
  return lost_keys;
}

bool StorageService::band_dead(int band) const {
  std::lock_guard<std::mutex> lock(mu_);
  return band >= 0 && band < num_bands_ && band_dead_[band];
}

void StorageService::DropByPrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      if (it->second.level == StorageLevel::kMemory) {
        UnchargeLocked(it->second.band, it->second);
        AddSessionBytesLocked(it->second.session, -it->second.nbytes);
      } else {
        std::filesystem::remove(it->second.spill_path);
      }
      ReleaseReplicasLocked(it->second);
      lost_.insert(it->first);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

Status StorageService::DropChunk(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::KeyError("drop of unknown chunk '" + key + "'");
  }
  if (it->second.level == StorageLevel::kMemory) {
    UnchargeLocked(it->second.band, it->second);
    AddSessionBytesLocked(it->second.session, -it->second.nbytes);
  } else {
    std::filesystem::remove(it->second.spill_path);
  }
  ReleaseReplicasLocked(it->second);
  entries_.erase(it);
  lost_.insert(key);
  return Status::OK();
}

bool StorageService::IsLost(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return lost_.count(key) > 0;
}

std::vector<std::string> StorageService::SortedKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, e] : entries_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

Result<int> StorageService::BandOf(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::KeyError("no chunk with key '" + key + "'");
  }
  return it->second.band;
}

int64_t StorageService::band_used_bytes(int band) const {
  std::lock_guard<std::mutex> lock(mu_);
  return band_used_[band];
}

Status StorageService::ReserveTransient(int band, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (band_dead_[band]) {
    return Status::WorkerLost("transient reservation on dead band " +
                              std::to_string(band));
  }
  XORBITS_RETURN_NOT_OK(EnsureCapacityLocked(band, bytes));
  band_used_[band] += bytes;
  metrics_->RaiseTo(CounterId::kPeakBandBytes, band_used_[band]);
  return Status::OK();
}

void StorageService::ReleaseTransient(int band, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  band_used_[band] -= bytes;
}

void StorageService::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries_) {
    if (e.level == StorageLevel::kDisk) {
      std::filesystem::remove(e.spill_path);
    }
  }
  entries_.clear();
  lost_.clear();
  std::fill(band_used_.begin(), band_used_.end(), 0);
  for (auto& held : band_buffers_) held.clear();
  std::fill(band_replica_bytes_.begin(), band_replica_bytes_.end(), 0);
  for (Gauge* g : replica_gauges_) g->Set(0);
  session_bytes_.clear();
  for (auto& [sid, g] : session_gauges_) g->Set(0);
}

Status StorageService::EnsureCapacityLocked(int band, int64_t bytes) {
  // Diagnosable OOM: every message names the band and its occupancy so a
  // failed chaos/OOM run pinpoints which band overflowed and by how much.
  auto oom_detail = [&](const std::string& why) {
    if (trace_.sink != nullptr) {
      trace_.sink->Instant(trace_.pid, kTrackStorage, trace::kEventOom,
                           {Arg("band", int64_t{band}),
                            Arg("requested_bytes", bytes),
                            Arg("used_bytes", band_used_[band])});
    }
    return why + " on band " + std::to_string(band) + ": requested " +
           std::to_string(bytes) + " bytes, used " +
           std::to_string(band_used_[band]) + " of budget " +
           std::to_string(band_limit_) + " bytes";
  };
  if (bytes > band_limit_) {
    metrics_->Add(CounterId::kOomEvents);
    return Status::OutOfMemory(oom_detail("chunk exceeds whole band budget"));
  }
  while (band_used_[band] + bytes > band_limit_) {
    // With spill disabled only force-spillable entries (exchange blocks)
    // may leave memory; when none remain this is a genuine OOM.
    Status s = SpillOneLocked(band, /*forced_only=*/!enable_spill_);
    if (!s.ok()) {
      metrics_->Add(CounterId::kOomEvents);
      if (!enable_spill_) {
        return Status::OutOfMemory(
            oom_detail("over budget (spill disabled)"));
      }
      return Status::OutOfMemory(
          oom_detail("over budget and cannot spill (" + s.message() + ")"));
    }
  }
  return Status::OK();
}

Status StorageService::EnsureEntryCapacityLocked(int band, const Entry& e) {
  auto oom_detail = [&](const std::string& why, int64_t bytes) {
    if (trace_.sink != nullptr) {
      trace_.sink->Instant(trace_.pid, kTrackStorage, trace::kEventOom,
                           {Arg("band", int64_t{band}),
                            Arg("requested_bytes", bytes),
                            Arg("used_bytes", band_used_[band])});
    }
    return why + " on band " + std::to_string(band) + ": requested " +
           std::to_string(bytes) + " bytes, used " +
           std::to_string(band_used_[band]) + " of budget " +
           std::to_string(band_limit_) + " bytes";
  };
  int64_t delta = ChargeDeltaLocked(band, e);
  if (delta > band_limit_) {
    metrics_->Add(CounterId::kOomEvents);
    return Status::OutOfMemory(
        oom_detail("chunk exceeds whole band budget", delta));
  }
  while (band_used_[band] + delta > band_limit_) {
    Status s = SpillOneLocked(band, /*forced_only=*/!enable_spill_);
    if (!s.ok()) {
      metrics_->Add(CounterId::kOomEvents);
      if (!enable_spill_) {
        return Status::OutOfMemory(
            oom_detail("over budget (spill disabled)", delta));
      }
      return Status::OutOfMemory(oom_detail(
          "over budget and cannot spill (" + s.message() + ")", delta));
    }
    // Spilling may have evicted a chunk sharing buffers with `e`, in which
    // case `e` now needs to bring those bytes itself.
    delta = ChargeDeltaLocked(band, e);
  }
  return Status::OK();
}

Status StorageService::SpillOneLocked(int band, bool forced_only) {
  // Pick the least-recently-used in-memory chunk on this band.
  Entry* victim = nullptr;
  std::string victim_key;
  for (auto& [key, e] : entries_) {
    if (e.band != band || e.level != StorageLevel::kMemory) continue;
    if (forced_only && !e.force_spillable) continue;
    if (!victim || e.lru_tick < victim->lru_tick) {
      victim = &e;
      victim_key = key;
    }
  }
  if (!victim) return Status::Invalid("nothing left to spill");
  return SpillEntryLocked(victim_key, victim);
}

int64_t StorageService::SpillByPrefix(const std::string& prefix, int band,
                                      int64_t target_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t spilled = 0;
  while (spilled < target_bytes) {
    Entry* victim = nullptr;
    std::string victim_key;
    for (auto& [key, e] : entries_) {
      if (e.band != band || e.level != StorageLevel::kMemory) continue;
      if (key.compare(0, prefix.size(), prefix) != 0) continue;
      if (!victim || e.lru_tick < victim->lru_tick) {
        victim = &e;
        victim_key = key;
      }
    }
    if (victim == nullptr) break;
    const int64_t bytes = victim->nbytes;
    if (!SpillEntryLocked(victim_key, victim).ok()) break;
    spilled += bytes;
  }
  return spilled;
}

Status StorageService::SpillSessionOneLocked(int64_t session_id,
                                             const std::string& exclude,
                                             bool forced_only) {
  // Quota degradation picks from the session's own chunks across all
  // bands: LRU first, never the key currently being stored/faulted back.
  Entry* victim = nullptr;
  std::string victim_key;
  for (auto& [key, e] : entries_) {
    if (e.session != session_id || e.level != StorageLevel::kMemory) {
      continue;
    }
    if (forced_only && !e.force_spillable) continue;
    if (key == exclude) continue;
    if (!victim || e.lru_tick < victim->lru_tick) {
      victim = &e;
      victim_key = key;
    }
  }
  if (!victim) {
    return Status::Invalid("session " + std::to_string(session_id) +
                           " has nothing left to spill");
  }
  return SpillEntryLocked(victim_key, victim);
}

Status StorageService::SpillEntryLocked(const std::string& key,
                                        Entry* victim) {
  XORBITS_ASSIGN_OR_RETURN(std::string buf, SerializeChunk(*victim->data));
  AppendSpillTrailer(&buf);
  // Lazily created: force-spillable entries (exchange blocks) can spill
  // even when enable_spill is off, in which case the constructor made no
  // directory. Idempotent and cheap next to the file write.
  {
    std::error_code ec;
    std::filesystem::create_directories(spill_dir_, ec);
  }
  const std::string path =
      spill_dir_ + "/spill_" + std::to_string(++spill_file_seq_) + ".bin";
  {
    std::ofstream out(path, std::ios::binary);
    if (!out) return Status::IOError("cannot open spill file " + path);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out) return Status::IOError("spill write failed " + path);
  }
  const int band = victim->band;
  UnchargeLocked(band, *victim);
  AddSessionBytesLocked(victim->session, -victim->nbytes);
  metrics_->Add(CounterId::kBytesSpilled, victim->nbytes);
  metrics_->Add(CounterId::kSpillEvents);
  spill_gauges_[band]->Add(victim->nbytes);
  if (trace_.sink != nullptr) {
    trace_.sink->Instant(trace_.pid, kTrackStorage, trace::kEventSpill,
                         {Arg("key", key),
                          Arg("bytes", victim->nbytes),
                          Arg("band", int64_t{band})});
  }
  victim->data.reset();
  victim->level = StorageLevel::kDisk;
  victim->spill_path = path;
  if (victim->force_spillable) {
    // Only exchange blocks are force-spillable; count every one that
    // leaves memory, whether backpressure or band capacity pushed it out.
    ChargeScoped(CounterId::kShuffleBlocksSpilled);
  }
  XORBITS_LOG(Debug) << "spilled " << key << " (" << victim->nbytes
                     << " bytes) from band " << band;
  return Status::OK();
}

}  // namespace xorbits::services
