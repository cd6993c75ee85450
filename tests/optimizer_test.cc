#include <gtest/gtest.h>

#include "core/xorbits.h"
#include "operators/dataframe_ops.h"
#include "operators/groupby_op.h"
#include "operators/source_ops.h"
#include "operators/tensor_ops.h"
#include "optimizer/column_pruning.h"
#include "optimizer/fusion.h"
#include "io/xparquet.h"
#include "optimizer/op_fusion.h"

namespace xorbits::optimizer {
namespace {

using dataframe::CmpOp;
using graph::ChunkGraph;
using graph::ChunkNode;
using operators::Assignment;
using operators::Col;
using operators::CompareExpr;
using operators::EvalChunkOp;
using operators::Lit;

std::shared_ptr<EvalChunkOp> Eval(std::vector<Assignment> a,
                                  operators::ExprPtr filter = nullptr,
                                  std::vector<std::string> proj = {}) {
  return std::make_shared<EvalChunkOp>(std::move(a), std::move(filter),
                                       std::move(proj));
}

TEST(OpFusionTest, MergesAssignmentChain) {
  ChunkGraph g;
  Metrics metrics;
  ChunkNode* src = g.AddNode(Eval({{"a", Lit(1.0)}}), {});
  ChunkNode* mid = g.AddNode(Eval({{"b", Lit(2.0)}}), {src});
  ChunkNode* out = g.AddNode(Eval({{"c", Lit(3.0)}}), {mid});
  auto fused = FuseElementwiseChains({src, mid, out}, &metrics);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0], out);
  const auto* op = dynamic_cast<const EvalChunkOp*>(out->op.get());
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->assignments().size(), 3u);
  EXPECT_EQ(metrics.Get(CounterId::kOpFusionHits), 2);
  EXPECT_TRUE(out->inputs.empty());
}

TEST(OpFusionTest, MergesConsecutiveFilters) {
  ChunkGraph g;
  Metrics metrics;
  ChunkNode* f1 = g.AddNode(
      Eval({}, CompareExpr(Col("x"), CmpOp::kGt, Lit(1.0))), {});
  ChunkNode* f2 = g.AddNode(
      Eval({}, CompareExpr(Col("x"), CmpOp::kLt, Lit(9.0))), {f1});
  auto fused = FuseElementwiseChains({f1, f2}, &metrics);
  ASSERT_EQ(fused.size(), 1u);
  const auto* op = dynamic_cast<const EvalChunkOp*>(fused[0]->op.get());
  ASSERT_NE(op, nullptr);
  EXPECT_NE(op->filter(), nullptr);
  EXPECT_EQ(op->filter()->kind, operators::Expr::Kind::kAnd);
}

TEST(OpFusionTest, DoesNotFuseAcrossProjectionOrFanout) {
  ChunkGraph g;
  Metrics metrics;
  // Upstream projection blocks fusion.
  ChunkNode* p = g.AddNode(Eval({}, nullptr, {"x"}), {});
  ChunkNode* e = g.AddNode(Eval({{"y", Lit(1.0)}}), {p});
  auto fused = FuseElementwiseChains({p, e}, &metrics);
  EXPECT_EQ(fused.size(), 2u);
  // Fan-out (two consumers) blocks fusion.
  ChunkNode* src = g.AddNode(Eval({{"a", Lit(1.0)}}), {});
  ChunkNode* c1 = g.AddNode(Eval({{"b", Lit(2.0)}}), {src});
  ChunkNode* c2 = g.AddNode(Eval({{"c", Lit(3.0)}}), {src});
  auto fused2 = FuseElementwiseChains({src, c1, c2}, &metrics);
  EXPECT_EQ(fused2.size(), 3u);
}

TEST(OpFusionTest, FilterThenAssignNotReordered) {
  ChunkGraph g;
  Metrics metrics;
  // f1 filters; downstream assigns. Merging would change row counts the
  // assignment sees, so it must not fuse under the current rules... it is
  // safe only when downstream has no assignments.
  ChunkNode* f1 = g.AddNode(
      Eval({}, CompareExpr(Col("x"), CmpOp::kGt, Lit(1.0))), {});
  ChunkNode* a1 = g.AddNode(Eval({{"y", Lit(1.0)}}), {f1});
  auto fused = FuseElementwiseChains({f1, a1}, &metrics);
  EXPECT_EQ(fused.size(), 2u);
}

TEST(SubtaskFusionTest, StraightChainBecomesOneSubtask) {
  ChunkGraph g;
  Metrics metrics;
  ChunkNode* a = g.AddNode(Eval({{"a", Lit(1.0)}}), {});
  ChunkNode* b = g.AddNode(Eval({{"b", Lit(1.0)}}), {a});
  ChunkNode* c = g.AddNode(Eval({{"c", Lit(1.0)}}), {b});
  auto st = BuildSubtaskGraph({a, b, c}, {c}, /*enable_fusion=*/true,
                              &metrics);
  ASSERT_EQ(st.subtasks.size(), 1u);
  EXPECT_EQ(st.subtasks[0].chunk_nodes.size(), 3u);
  // Only the tail (and explicit target) persists; a and b are transient.
  ASSERT_EQ(st.subtasks[0].outputs.size(), 1u);
  EXPECT_EQ(st.subtasks[0].outputs[0], c);
}

TEST(SubtaskFusionTest, FusionDisabledKeepsUnitsSeparate) {
  ChunkGraph g;
  Metrics metrics;
  ChunkNode* a = g.AddNode(Eval({{"a", Lit(1.0)}}), {});
  ChunkNode* b = g.AddNode(Eval({{"b", Lit(1.0)}}), {a});
  auto st = BuildSubtaskGraph({a, b}, {b}, /*enable_fusion=*/false,
                              &metrics);
  EXPECT_EQ(st.subtasks.size(), 2u);
  // Dependency edges wired.
  EXPECT_TRUE(st.subtasks[1].preds == std::vector<int>{0} ||
              st.subtasks[0].preds == std::vector<int>{1});
}

TEST(SubtaskFusionTest, MultiOutputSiblingsShareSubtask) {
  ChunkGraph g;
  Metrics metrics;
  auto qr = std::make_shared<operators::QRChunkOp>();
  ChunkNode* src = g.AddNode(Eval({{"a", Lit(1.0)}}), {});
  ChunkNode* q = g.AddNode(qr, {src}, 0);
  ChunkNode* r = g.AddNode(qr, {src}, 1);
  auto st = BuildSubtaskGraph({src, q, r}, {q, r}, true, &metrics);
  // q and r are one execution unit: same subtask.
  int q_st = -1, r_st = -1;
  for (const auto& s : st.subtasks) {
    for (const ChunkNode* n : s.chunk_nodes) {
      if (n == q) q_st = s.id;
      if (n == r) r_st = s.id;
    }
  }
  EXPECT_EQ(q_st, r_st);
}

TEST(SubtaskFusionTest, NonFusibleShuffleIsolated) {
  ChunkGraph g;
  Metrics metrics;
  auto part = std::make_shared<operators::HashPartitionChunkOp>(
      std::vector<std::string>{"k"}, 2);
  ChunkNode* a = g.AddNode(Eval({{"a", Lit(1.0)}}), {});
  ChunkNode* m = g.AddNode(part, {a});
  ChunkNode* red = g.AddNode(
      std::make_shared<operators::GroupByShuffleReduceChunkOp>(
          0, std::vector<std::string>{"k"},
          std::vector<dataframe::AggSpec>{}, false),
      {m});
  auto st = BuildSubtaskGraph({a, m, red}, {red}, true, &metrics);
  EXPECT_EQ(st.subtasks.size(), 3u);
}

TEST(SubtaskFusionTest, ExecutedInputsBecomeExternal) {
  ChunkGraph g;
  Metrics metrics;
  ChunkNode* done = g.AddNode(Eval({{"a", Lit(1.0)}}), {});
  done->executed = true;
  ChunkNode* next = g.AddNode(Eval({{"b", Lit(1.0)}}), {done});
  auto st = BuildSubtaskGraph({next}, {next}, true, &metrics);
  ASSERT_EQ(st.subtasks.size(), 1u);
  ASSERT_EQ(st.subtasks[0].external_inputs.size(), 1u);
  EXPECT_EQ(st.subtasks[0].external_inputs[0], done);
  EXPECT_TRUE(st.subtasks[0].preds.empty());
}

TEST(ColumnPruningTest, InstallsPrunedSetOnParquetSource) {
  // read(a,b,c,d) -> filter on a -> select {b} as sink: source needs {a,b}.
  core::Session session(Config{});
  std::string path = "/tmp/xorbits_prune_opt.xpq";
  auto df = dataframe::DataFrame::Make(
                {"a", "b", "c", "d"},
                {dataframe::Column::Int64({1, 2}),
                 dataframe::Column::Int64({3, 4}),
                 dataframe::Column::Int64({5, 6}),
                 dataframe::Column::Int64({7, 8})})
                .MoveValue();
  ASSERT_TRUE(xorbits::io::WriteXpq(path, df).ok());
  auto ref = ReadParquet(&session, path);
  ASSERT_TRUE(ref.ok());
  auto filtered = ref->Filter(
      CompareExpr(Col("a"), CmpOp::kGt, Lit(int64_t{0})));
  auto selected = filtered->Select({"b"});
  ASSERT_TRUE(selected.ok());
  auto topo = session.tileable_graph().TopologicalOrder();
  PruneColumns(topo, {selected->node()});
  auto* read =
      dynamic_cast<operators::ReadXpqOp*>(ref->node()->op.get());
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->pruned_columns(),
            (std::vector<std::string>{"a", "b"}));
  // And execution still produces the right answer.
  auto out = selected->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_columns(), 1);
  EXPECT_EQ(out->num_rows(), 2);
  std::remove(path.c_str());
}

TEST(ColumnPruningTest, SinkNeedsAllKeepsEverything) {
  core::Session session(Config{});
  std::string path = "/tmp/xorbits_prune_all.xpq";
  auto df = dataframe::DataFrame::Make(
                {"a", "b"}, {dataframe::Column::Int64({1}),
                             dataframe::Column::Int64({2})})
                .MoveValue();
  ASSERT_TRUE(xorbits::io::WriteXpq(path, df).ok());
  auto ref = ReadParquet(&session, path);
  auto topo = session.tileable_graph().TopologicalOrder();
  PruneColumns(topo, {ref->node()});
  auto* read = dynamic_cast<operators::ReadXpqOp*>(ref->node()->op.get());
  EXPECT_TRUE(read->pruned_columns().empty());  // empty = read everything
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xorbits::optimizer
