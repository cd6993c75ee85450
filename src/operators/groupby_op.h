#ifndef XORBITS_OPERATORS_GROUPBY_OP_H_
#define XORBITS_OPERATORS_GROUPBY_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "dataframe/groupby.h"
#include "operators/operator.h"

namespace xorbits::operators {

/// Map stage of the paper's map-combine-reduce model: per-chunk partial
/// aggregation (Fig. 3(b)'s GroupbyAgg::map). Fusible with upstream reads.
class GroupByMapChunkOp : public ChunkOp {
 public:
  GroupByMapChunkOp(std::vector<std::string> keys,
                    std::vector<dataframe::AggSpec> specs)
      : keys_(std::move(keys)), specs_(std::move(specs)) {}
  const char* type_name() const override { return "GroupByAgg::map"; }
  Status Execute(ExecutionContext& ctx) const override;

 private:
  std::vector<std::string> keys_;
  std::vector<dataframe::AggSpec> specs_;
};

/// Combine stage: concatenates partials and re-aggregates (pre-aggregation
/// that keeps any single node from being overwhelmed).
class GroupByCombineChunkOp : public ChunkOp {
 public:
  GroupByCombineChunkOp(std::vector<std::string> keys,
                        std::vector<dataframe::AggSpec> combine_specs)
      : keys_(std::move(keys)), specs_(std::move(combine_specs)) {}
  const char* type_name() const override { return "GroupByAgg::combine"; }
  Status Execute(ExecutionContext& ctx) const override;

 private:
  std::vector<std::string> keys_;
  std::vector<dataframe::AggSpec> specs_;
};

/// Reduce/finalize stage: converts combined partial columns into the
/// user-visible aggregation outputs.
class GroupByFinalizeChunkOp : public ChunkOp {
 public:
  GroupByFinalizeChunkOp(std::vector<std::string> keys,
                         std::vector<dataframe::AggSpec> user_specs)
      : keys_(std::move(keys)), specs_(std::move(user_specs)) {}
  const char* type_name() const override { return "GroupByAgg::agg"; }
  Status Execute(ExecutionContext& ctx) const override;

 private:
  std::vector<std::string> keys_;
  std::vector<dataframe::AggSpec> specs_;
};

/// Generic hash-shuffle map: routes rows to `partitions` buckets by the
/// hash of the key columns. Non-fusible (a scheduling boundary).
class HashPartitionChunkOp : public ChunkOp {
 public:
  HashPartitionChunkOp(std::vector<std::string> keys, int partitions)
      : keys_(std::move(keys)), partitions_(partitions) {}
  const char* type_name() const override { return "HashPartition"; }
  bool fusible() const override { return false; }
  bool is_shuffle_map() const override { return true; }
  Status Execute(ExecutionContext& ctx) const override;

 private:
  std::vector<std::string> keys_;
  int partitions_;
};

/// Shuffle-reduce for groupby: gathers one hash partition from every
/// mapper, concatenates, and aggregates. With `decomposed`, inputs are map
/// partials (combine specs + finalize); otherwise raw rows (direct agg).
class GroupByShuffleReduceChunkOp : public ChunkOp {
 public:
  GroupByShuffleReduceChunkOp(int partition, std::vector<std::string> keys,
                              std::vector<dataframe::AggSpec> user_specs,
                              bool decomposed)
      : partition_(partition),
        keys_(std::move(keys)),
        user_specs_(std::move(user_specs)),
        decomposed_(decomposed) {}
  const char* type_name() const override { return "GroupByAgg::reduce"; }
  std::vector<std::string> InputKeys(
      const graph::ChunkNode& node) const override;
  Status Execute(ExecutionContext& ctx) const override;

 private:
  int partition_;
  std::vector<std::string> keys_;
  std::vector<dataframe::AggSpec> user_specs_;
  bool decomposed_;
};

/// df.groupby(keys).agg(specs) — the flagship dynamic-tiling operator:
/// tiling samples the first map chunks, measures the aggregation ratio, and
/// picks tree- vs shuffle-reduce (auto reduce selection, Fig. 6(a)).
class GroupByAggOp : public TileableOp {
 public:
  GroupByAggOp(std::vector<std::string> keys,
               std::vector<dataframe::AggSpec> specs)
      : keys_(std::move(keys)), specs_(std::move(specs)) {}
  const char* type_name() const override { return "GroupByAgg"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  std::optional<std::vector<std::set<std::string>>> RequiredInputColumns(
      const graph::TileableNode& node,
      const std::set<std::string>& out_columns) const override;

  const std::vector<std::string>& keys() const { return keys_; }
  const std::vector<dataframe::AggSpec>& specs() const { return specs_; }

 private:
  std::vector<std::string> keys_;
  std::vector<dataframe::AggSpec> specs_;
};

}  // namespace xorbits::operators

#endif  // XORBITS_OPERATORS_GROUPBY_OP_H_
