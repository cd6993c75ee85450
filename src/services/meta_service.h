#ifndef XORBITS_SERVICES_META_SERVICE_H_
#define XORBITS_SERVICES_META_SERVICE_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "graph/graph.h"

namespace xorbits::services {

/// Chunk-level execution metadata recorded by workers and consumed by the
/// tiling process (paper §IV-B step 2: "store it in the meta service so
/// that the tiling process can later access it").
struct ChunkMeta {
  int64_t rows = -1;
  int64_t cols = -1;
  int64_t nbytes = -1;
  int band = -1;
  std::vector<std::string> columns;  // dataframe chunks only
};

/// Provenance of one persisted chunk, recorded by the executor when the
/// producing subtask completes and consumed by lineage-based recovery:
/// when storage reports a chunk lost, the whole producing subtask (its
/// fused node group, whose intermediates were never persisted) is
/// re-executed after recursively recovering any external inputs that are
/// also gone. Node pointers stay valid for the session lifetime —
/// ChunkGraph is an arena that never frees nodes while the pipeline runs.
struct ChunkLineage {
  /// The producing subtask's fused chunk-node group, in execution order.
  std::vector<graph::ChunkNode*> nodes;
  /// The subset of `nodes` that was persisted (the subtask's outputs).
  std::vector<graph::ChunkNode*> outputs;
  /// Storage keys the producing execution read from outside the group
  /// (shuffle reducers list per-partition keys).
  std::vector<std::string> input_keys;
  /// All storage keys the producing execution wrote — output node keys,
  /// plus every "<key>@<partition>" for shuffle mappers. Recovery deletes
  /// survivors in this list before re-running so re-Puts don't collide.
  std::vector<std::string> output_keys;
  /// Session whose chunk-graph arena owns `nodes` (-1 = not session-bound).
  /// Result-cache lineage for `cache/` keys points into a tenant's arena;
  /// when that session closes its cache lineage must go with it or the
  /// pointers dangle (DeleteLineageBySession) — the cached bytes stay.
  int64_t session = -1;
};

/// Thread-safe key -> ChunkMeta registry shared by workers (writers, during
/// execute) and the supervisor-side tiling driver (reader, during tile).
/// Also the system of record for chunk lineage (keyed by the producing
/// node's base key, without any "@partition" suffix).
class MetaService {
 public:
  /// Registers the meta_entries / lineage_entries gauges on `metrics` and
  /// keeps them current from then on. Optional: the service works (and the
  /// gauges simply stay absent) when never bound.
  void BindObservability(Metrics* metrics);

  void Put(const std::string& key, ChunkMeta meta);
  Result<ChunkMeta> Get(const std::string& key) const;
  bool Has(const std::string& key) const;
  void Delete(const std::string& key);
  /// Drops every meta and lineage entry whose key starts with `prefix`.
  /// Used when a tenant session closes: its "s<id>/" namespace is swept
  /// from the shared registry in one pass.
  void DeleteByPrefix(const std::string& prefix);
  int64_t size() const;
  void Clear();

  void PutLineage(const std::string& key, ChunkLineage lineage);
  Result<ChunkLineage> GetLineage(const std::string& key) const;
  bool HasLineage(const std::string& key) const;
  int64_t lineage_size() const;
  /// Drops every lineage entry tagged with `session` regardless of key
  /// prefix — the session-close sweep for `cache/` lineage, whose keys are
  /// deliberately outside the closing tenant's "s<id>/" namespace.
  void DeleteLineageBySession(int64_t session);

  // --- shuffle block ranges (DESIGN.md §11) ---
  //
  // Lineage at block granularity: a sealed record "<mapper>@<p>" -> N says
  // the exchange published exactly blocks "#0".."#N-1" for that partition.
  // The record is the reducer's green light (all blocks exist) and the
  // recovery contract (a lost block re-runs only the producing mapper,
  // whose deterministic re-emission reseals the same range).

  /// Seals `partition_key` with `blocks` published blocks. Resealing after
  /// a mapper re-run overwrites (the deterministic recompute publishes the
  /// same count).
  void PutBlockRange(const std::string& partition_key, int64_t blocks);
  /// Number of blocks sealed for `partition_key`; KeyError when unsealed.
  Result<int64_t> GetBlockRange(const std::string& partition_key) const;
  /// True once the partition's block stream has sealed.
  bool HasBlockRange(const std::string& partition_key) const;
  int64_t block_range_size() const;

 private:
  /// Pushes current map sizes into the bound gauges. Caller holds mu_.
  void UpdateGaugesLocked();

  mutable std::mutex mu_;
  std::unordered_map<std::string, ChunkMeta> metas_;
  std::unordered_map<std::string, ChunkLineage> lineages_;
  /// Sealed shuffle partitions: "<mapper>@<p>" -> block count.
  std::unordered_map<std::string, int64_t> block_ranges_;
  Gauge* meta_entries_ = nullptr;     // bound via BindObservability
  Gauge* lineage_entries_ = nullptr;
};

}  // namespace xorbits::services

#endif  // XORBITS_SERVICES_META_SERVICE_H_
