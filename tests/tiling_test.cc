// Behavioural tests of the dynamic-tiling machinery itself: the coroutine
// switch between construction and execution, iterative tiling across
// chained unknown-shape operators, incremental re-materialization, and the
// static/dynamic divergence the ablation benches rely on.

#include <gtest/gtest.h>

#include "core/xorbits.h"
#include "dataframe/kernels.h"
#include "operators/operator.h"

namespace xorbits {
namespace {

using dataframe::CmpOp;
using dataframe::Column;
using dataframe::DataFrame;
using operators::Col;
using operators::CompareExpr;
using operators::Lit;

Config ManyChunks(bool dynamic = true) {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  c.chunk_store_limit = 1 << 12;
  c.dynamic_tiling = dynamic;
  return c;
}

DataFrame Numbers(int64_t n) {
  std::vector<int64_t> v(n);
  for (int64_t i = 0; i < n; ++i) v[i] = i;
  return DataFrame::Make({"v"}, {Column::Int64(v)}).MoveValue();
}

TEST(TileTaskTest, CoroutineYieldsAndReturns) {
  // Drive a TileTask by hand: yield twice, then finish with a status.
  struct Maker {
    static operators::TileTask Make(int* stage) {
      *stage = 1;
      std::vector<graph::ChunkNode*> empty;
      co_yield empty;
      *stage = 2;
      co_yield empty;
      *stage = 3;
      co_return Status::Invalid("done-with-error");
    }
  };
  int stage = 0;
  operators::TileTask task = Maker::Make(&stage);
  EXPECT_EQ(stage, 0);  // lazily started
  EXPECT_TRUE(task.Resume());
  EXPECT_EQ(stage, 1);
  EXPECT_TRUE(task.Resume());
  EXPECT_EQ(stage, 2);
  EXPECT_FALSE(task.Resume());  // finished
  EXPECT_EQ(stage, 3);
  EXPECT_EQ(task.result().code(), StatusCode::kInvalid);
}

TEST(TilingDriverTest, ChainedUnknownShapesYieldIteratively) {
  // filter -> filter -> iloc: each stage's shape is unknown until the
  // previous executed (the paper's iterative tiling).
  core::Session session(ManyChunks());
  auto df = FromPandas(&session, Numbers(2000));
  auto f1 = df->Filter(CompareExpr(Col("v"), CmpOp::kGe, Lit(int64_t{500})));
  auto f2 = f1->Filter(
      CompareExpr(Col("v"), CmpOp::kLt, Lit(int64_t{1500})));
  auto row = f2->Iloc(123);
  auto out = row->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->GetColumn("v").ValueOrDie()->int64_data()[0], 623);
  EXPECT_GE(session.metrics().Get(CounterId::kDynamicYields), 1);
}

TEST(TilingDriverTest, IncrementalMaterializeReusesExecutedChunks) {
  core::Session session(ManyChunks());
  auto df = FromPandas(&session, Numbers(1000));
  auto f = df->Filter(CompareExpr(Col("v"), CmpOp::kLt, Lit(int64_t{600})));
  ASSERT_TRUE(f->Fetch().ok());
  const int64_t after_first =
      session.metrics().Get(CounterId::kSubtasksExecuted);
  // A second fetch of the same handle re-runs nothing.
  ASSERT_TRUE(f->Fetch().ok());
  EXPECT_EQ(session.metrics().Get(CounterId::kSubtasksExecuted), after_first);
  // Extending the pipeline only executes the new stage.
  auto g = f->GroupByAgg({"v"}, {{"", dataframe::AggFunc::kSize, "n"}});
  ASSERT_TRUE(g->Fetch().ok());
  EXPECT_GT(session.metrics().Get(CounterId::kSubtasksExecuted), after_first);
}

TEST(TilingDriverTest, StaticModeNeverYields) {
  core::Session session(ManyChunks(/*dynamic=*/false));
  auto df = FromPandas(&session, Numbers(1000));
  auto f = df->Filter(CompareExpr(Col("v"), CmpOp::kLt, Lit(int64_t{300})));
  auto g = f->GroupByAgg({"v"}, {{"", dataframe::AggFunc::kSize, "n"}});
  ASSERT_TRUE(g->Fetch().ok());
  EXPECT_EQ(session.metrics().Get(CounterId::kDynamicYields), 0);
}

TEST(TilingDriverTest, DynamicPicksTreeForSmallAggregations) {
  // 5 distinct groups: the sampled aggregation ratio is tiny, so auto
  // reduce selection must choose tree-reduce -> a single output chunk.
  core::Session session(ManyChunks());
  std::vector<int64_t> k(3000);
  for (int64_t i = 0; i < 3000; ++i) k[i] = i % 5;
  auto raw = DataFrame::Make({"k"}, {Column::Int64(k)}).MoveValue();
  auto df = FromPandas(&session, raw);
  auto g = df->GroupByAgg({"k"}, {{"", dataframe::AggFunc::kSize, "n"}});
  ASSERT_TRUE(g->Fetch().ok());
  EXPECT_EQ(g->node()->chunks.size(), 1u);  // tree-reduce converges to one
}

TEST(TilingDriverTest, StaticShufflesProduceMultipleChunks) {
  core::Session session(ManyChunks(/*dynamic=*/false));
  std::vector<int64_t> k(3000);
  for (int64_t i = 0; i < 3000; ++i) k[i] = i % 5;
  auto raw = DataFrame::Make({"k"}, {Column::Int64(k)}).MoveValue();
  auto df = FromPandas(&session, raw);
  auto g = df->GroupByAgg({"k"}, {{"", dataframe::AggFunc::kSize, "n"}});
  ASSERT_TRUE(g->Fetch().ok());
  // Without runtime metadata the engine shuffles at planned width.
  EXPECT_GT(g->node()->chunks.size(), 1u);
}

TEST(TilingDriverTest, BroadcastAvoidsShufflingBigSide) {
  // Big left, tiny right: dynamic sampling must choose broadcast, keeping
  // the big side's chunk count in the join output.
  core::Session session(ManyChunks());
  auto left = FromPandas(&session, Numbers(4000));
  auto right = FromPandas(
      &session, DataFrame::Make({"v", "w"},
                                {Column::Int64({1, 2, 3}),
                                 Column::Int64({10, 20, 30})})
                    .MoveValue());
  dataframe::MergeOptions opts;
  opts.on = {"v"};
  auto joined = left->Merge(*right, opts);
  ASSERT_TRUE(joined.ok());
  ASSERT_TRUE(joined->Fetch().ok());
  // Broadcast keeps one join chunk per left chunk; a shuffle would collapse
  // to ChooseChunkCount(small estimate) chunks instead.
  EXPECT_EQ(joined->node()->chunks.size(), left->node()->chunks.size());
}

TEST(TilingDriverTest, TimeoutReportsHang) {
  Config c = ManyChunks();
  c.task_deadline_ms = 1;  // everything exceeds one millisecond
  core::Session session(std::move(c));
  auto df = FromPandas(&session, Numbers(200000));
  auto g = df->GroupByAgg({"v"}, {{"", dataframe::AggFunc::kSize, "n"}});
  auto out = g->Fetch();
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsTimeout());
}

TEST(TilingDriverTest, SampleExecutionIsNarrow) {
  // Sampling one chunk must not execute the whole source: after the first
  // yield-driven partial run, unexecuted source chunks remain.
  core::Session session(ManyChunks());
  auto df = FromPandas(&session, Numbers(4000));
  auto f = df->Filter(CompareExpr(Col("v"), CmpOp::kGe, Lit(int64_t{0})));
  auto g = f->GroupByAgg({"v"}, {{"", dataframe::AggFunc::kSize, "n"}});
  ASSERT_TRUE(g->Fetch().ok());
  // Yields happened, and the total subtask count stays near one pass over
  // the data (sampling reuses, not repeats, the sampled chunks).
  const int64_t subtasks = session.metrics().Get(CounterId::kSubtasksExecuted);
  const int64_t chunks =
      static_cast<int64_t>(df->node()->chunks.size());
  EXPECT_GE(session.metrics().Get(CounterId::kDynamicYields), 1);
  EXPECT_LE(subtasks, chunks * 6);
}

}  // namespace
}  // namespace xorbits
