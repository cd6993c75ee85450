#ifndef XORBITS_OPERATORS_MERGE_OP_H_
#define XORBITS_OPERATORS_MERGE_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "dataframe/join.h"
#include "operators/operator.h"

namespace xorbits::operators {

/// Joins one left chunk against a gathered right side (broadcast join leg),
/// probing the hash table memoized on the right payload.
class MergeChunkOp : public ChunkOp {
 public:
  explicit MergeChunkOp(dataframe::MergeOptions options)
      : options_(std::move(options)) {}
  const char* type_name() const override { return "Merge"; }
  Status Execute(ExecutionContext& ctx) const override;

 private:
  dataframe::MergeOptions options_;
};

/// Shuffle-reduce join: gathers hash partition `partition` from the left
/// mappers (inputs [0, left_count)) and right mappers (the rest), then
/// joins the two sides.
class MergeShuffleReduceChunkOp : public ChunkOp {
 public:
  MergeShuffleReduceChunkOp(int partition, int left_count,
                            dataframe::MergeOptions options)
      : partition_(partition),
        left_count_(left_count),
        options_(std::move(options)) {}
  const char* type_name() const override { return "Merge::reduce"; }
  std::vector<std::string> InputKeys(
      const graph::ChunkNode& node) const override;
  Status Execute(ExecutionContext& ctx) const override;

 private:
  int partition_;
  int left_count_;
  dataframe::MergeOptions options_;
};

/// df.merge: with dynamic tiling, samples both sides' real sizes and
/// broadcasts the small one (sidestepping skewed hash shuffles — the
/// TPCx-AI UC10 scenario); static engines hash-shuffle both sides, so a
/// hot key funnels everything to one reducer.
class MergeOp : public TileableOp {
 public:
  explicit MergeOp(dataframe::MergeOptions options)
      : options_(std::move(options)) {}
  const char* type_name() const override { return "MergeOp"; }
  TileTask Tile(TileContext& ctx, graph::TileableNode* node) override;
  std::optional<std::vector<std::set<std::string>>> RequiredInputColumns(
      const graph::TileableNode& node,
      const std::set<std::string>& out_columns) const override;
  const dataframe::MergeOptions& options() const { return options_; }

 private:
  dataframe::MergeOptions options_;
};

}  // namespace xorbits::operators

#endif  // XORBITS_OPERATORS_MERGE_OP_H_
