#include "services/meta_service.h"

#include "common/trace_names.h"

namespace xorbits::services {

void MetaService::BindObservability(Metrics* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_entries_ =
      metrics->registry.GetGauge(trace::kGaugeMetaEntries, "entries");
  lineage_entries_ =
      metrics->registry.GetGauge(trace::kGaugeLineageEntries, "entries");
  UpdateGaugesLocked();
}

void MetaService::UpdateGaugesLocked() {
  if (meta_entries_ != nullptr) {
    meta_entries_->Set(static_cast<int64_t>(metas_.size()));
  }
  if (lineage_entries_ != nullptr) {
    lineage_entries_->Set(static_cast<int64_t>(lineages_.size()));
  }
}

void MetaService::Put(const std::string& key, ChunkMeta meta) {
  std::lock_guard<std::mutex> lock(mu_);
  metas_[key] = std::move(meta);
  UpdateGaugesLocked();
}

Result<ChunkMeta> MetaService::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metas_.find(key);
  if (it == metas_.end()) {
    return Status::KeyError("no meta for chunk '" + key + "'");
  }
  return it->second;
}

bool MetaService::Has(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return metas_.count(key) > 0;
}

void MetaService::Delete(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  metas_.erase(key);
  UpdateGaugesLocked();
}

void MetaService::DeleteByPrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = metas_.begin(); it != metas_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = metas_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = lineages_.begin(); it != lineages_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = lineages_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = block_ranges_.begin(); it != block_ranges_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = block_ranges_.erase(it);
    } else {
      ++it;
    }
  }
  UpdateGaugesLocked();
}

int64_t MetaService::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(metas_.size());
}

void MetaService::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  metas_.clear();
  lineages_.clear();
  block_ranges_.clear();
  UpdateGaugesLocked();
}

void MetaService::PutLineage(const std::string& key, ChunkLineage lineage) {
  std::lock_guard<std::mutex> lock(mu_);
  lineages_[key] = std::move(lineage);
  UpdateGaugesLocked();
}

Result<ChunkLineage> MetaService::GetLineage(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lineages_.find(key);
  if (it == lineages_.end()) {
    return Status::KeyError("no lineage for chunk '" + key + "'");
  }
  return it->second;
}

bool MetaService::HasLineage(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return lineages_.count(key) > 0;
}

void MetaService::DeleteLineageBySession(int64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lineages_.begin(); it != lineages_.end();) {
    if (it->second.session == session) {
      it = lineages_.erase(it);
    } else {
      ++it;
    }
  }
  UpdateGaugesLocked();
}

int64_t MetaService::lineage_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lineages_.size());
}

void MetaService::PutBlockRange(const std::string& partition_key,
                                int64_t blocks) {
  std::lock_guard<std::mutex> lock(mu_);
  block_ranges_[partition_key] = blocks;
}

Result<int64_t> MetaService::GetBlockRange(
    const std::string& partition_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = block_ranges_.find(partition_key);
  if (it == block_ranges_.end()) {
    return Status::KeyError("no block range for partition '" + partition_key +
                            "'");
  }
  return it->second;
}

bool MetaService::HasBlockRange(const std::string& partition_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return block_ranges_.count(partition_key) > 0;
}

int64_t MetaService::block_range_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(block_ranges_.size());
}

}  // namespace xorbits::services
