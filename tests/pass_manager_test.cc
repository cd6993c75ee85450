// Tests of the optimizer pass framework (src/optimizer/pass.h): pipeline
// resolution from the explicit config spec, the graph
// invariant verifier, the new predicate-pushdown / CSE / dead-node-elim
// passes (including byte-identity of the optimized plans), column-pruning
// edge cases expressed through the framework, and the per-pass gauges that
// feed the run report's optimizer section.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/tracing.h"
#include "core/xorbits.h"
#include "graph/rewrite.h"
#include "io/xparquet.h"
#include "operators/dataframe_ops.h"
#include "operators/source_ops.h"
#include "optimizer/pass.h"
#include "optimizer/pass_manager.h"

namespace xorbits::optimizer {
namespace {

using dataframe::CmpOp;
using dataframe::Column;
using dataframe::DataFrame;
using operators::Col;
using operators::CompareExpr;
using operators::Lit;

/// 200-row table with four columns; `a` is 0..199 so range predicates have
/// a predictable selectivity.
std::string WriteTestTable(const char* name) {
  std::string path = std::string("/tmp/xorbits_passmgr_") + name + ".xpq";
  std::vector<int64_t> a, d;
  std::vector<double> b;
  std::vector<std::string> c;
  for (int64_t i = 0; i < 200; ++i) {
    a.push_back(i);
    b.push_back(static_cast<double>(i) * 0.5);
    c.push_back("row" + std::to_string(i));
    d.push_back(i % 7);
  }
  auto df = DataFrame::Make({"a", "b", "c", "d"},
                            {Column::Int64(a), Column::Float64(b),
                             Column::String(c), Column::Int64(d)})
                .MoveValue();
  EXPECT_TRUE(io::WriteXpq(path, df).ok());
  return path;
}

/// Small chunks so one source tiles to several chunks and per-chunk
/// predicate evaluation actually skips payload reads: the test table's
/// `a` + `b` columns (a little over 3200 bytes) tile to four chunks of 50
/// rows.
Config SmallChunkConfig() {
  Config c;
  c.chunk_store_limit = 1000;
  return c;
}

void ExpectFramesEqual(const DataFrame& x, const DataFrame& y) {
  ASSERT_EQ(x.num_rows(), y.num_rows());
  ASSERT_EQ(x.num_columns(), y.num_columns());
  for (int c = 0; c < x.num_columns(); ++c) {
    EXPECT_EQ(x.column_name(c), y.column_name(c));
    const auto& cx = x.column(c);
    const auto& cy = y.column(c);
    ASSERT_EQ(cx.dtype(), cy.dtype()) << x.column_name(c);
    for (int64_t i = 0; i < x.num_rows(); ++i) {
      ASSERT_EQ(cx.IsNull(i), cy.IsNull(i)) << x.column_name(c);
      if (cx.IsNull(i)) continue;
      switch (cx.dtype()) {
        case dataframe::DType::kInt64:
          EXPECT_EQ(cx.int64_data()[i], cy.int64_data()[i]);
          break;
        case dataframe::DType::kFloat64:
          EXPECT_EQ(cx.float64_data()[i], cy.float64_data()[i]);
          break;
        default:
          EXPECT_EQ(cx.string_data()[i], cy.string_data()[i]);
      }
    }
  }
}

// --- pipeline resolution ---------------------------------------------------

TEST(PassPipelineTest, UnknownPassNameFailsMaterialize) {
  const std::string path = WriteTestTable("unknown");
  Config cfg;
  cfg.optimizer.tileable = {"no_such_pass"};
  core::Session session(cfg);
  auto ref = ReadParquet(&session, path);
  ASSERT_TRUE(ref.ok());
  auto out = ref->Fetch();
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("unknown tileable pass"),
            std::string::npos)
      << out.status();
  std::remove(path.c_str());
}

TEST(PassPipelineTest, RemovedLateMaterializationPassIsUnknown) {
  // Late materialization is how reads and filters run, not a pass: a spec
  // naming it is rejected like any other unknown pass.
  const std::string path = WriteTestTable("late_pass");
  Config cfg;
  cfg.optimizer.chunk = {"op_fusion", "cse", "late_materialization"};
  core::Session session(cfg);
  auto ref = ReadParquet(&session, path);
  ASSERT_TRUE(ref.ok());
  auto out = ref->Fetch();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalid) << out.status();
  EXPECT_NE(out.status().message().find("late_materialization"),
            std::string::npos)
      << out.status();
  std::remove(path.c_str());
}

TEST(PassPipelineTest, ExplicitEmptyPipelineMatchesFullPipeline) {
  const std::string path = WriteTestTable("identity");
  auto query = [&](Config cfg) {
    core::Session session(std::move(cfg));
    auto ref = ReadParquet(&session, path);
    auto f = ref->Filter(CompareExpr(Col("a"), CmpOp::kGt, Lit(int64_t{120})));
    auto sel = f->Select({"a", "b"});
    return sel->Fetch().MoveValue();
  };
  Config off = SmallChunkConfig();
  off.optimizer.tileable = {};
  off.optimizer.chunk = {};
  off.optimizer.subtask = {};
  // Full default pipeline (pushdown + pruning + DNE + fusion + CSE) must be
  // observationally identical to no optimizer at all.
  ExpectFramesEqual(query(SmallChunkConfig()), query(off));
  std::remove(path.c_str());
}

TEST(PassPipelineTest, BoundResultCacheLeadsChunkPipelineOnce) {
  const std::string path = WriteTestTable("cache_once");
  auto run = [&](Config cfg) {
    core::Session session(std::move(cfg));
    auto ref = ReadParquet(&session, path);
    auto f = ref->Filter(CompareExpr(Col("a"), CmpOp::kGt, Lit(int64_t{50})));
    EXPECT_TRUE(f->Fetch().ok());
    std::vector<std::pair<std::string, int64_t>> slots;
    for (const auto& [k, v] : session.metrics().Snapshot().gauges) {
      const std::string prefix = "optimizer_pass_runs/c";
      if (k.rfind(prefix, 0) == 0 && v > 0) {
        slots.emplace_back(k.substr(prefix.size() - 1), v);
      }
    }
    std::sort(slots.begin(), slots.end());
    return slots;
  };
  // The spec names result_cache in the middle; a bound cache still runs it
  // once, at the head, and every listed pass runs as often as it does.
  Config cached;
  cached.enable_result_cache = true;
  cached.optimizer.chunk = {kPassOpFusion, kPassResultCache, kPassCse};
  const auto with_cache = run(cached);
  ASSERT_EQ(with_cache.size(), 3u);
  EXPECT_EQ(with_cache[0].first, "c0_result_cache");
  EXPECT_EQ(with_cache[1].first, "c1_op_fusion");
  EXPECT_EQ(with_cache[2].first, "c2_cse");
  EXPECT_EQ(with_cache[0].second, with_cache[1].second);
  // The default spec gains the cache pass the same way.
  Config cached_default;
  cached_default.enable_result_cache = true;
  const auto defaults = run(cached_default);
  ASSERT_EQ(defaults.size(), 3u);
  EXPECT_EQ(defaults[0].first, "c0_result_cache");
  EXPECT_EQ(defaults[1].first, "c1_op_fusion");
  EXPECT_EQ(defaults[2].first, "c2_cse");
  // Without a cache the name is dropped from the pipeline.
  Config uncached = cached;
  uncached.enable_result_cache = false;
  const auto without = run(uncached);
  ASSERT_EQ(without.size(), 2u);
  EXPECT_EQ(without[0].first, "c0_op_fusion");
  EXPECT_EQ(without[1].first, "c1_cse");
  std::remove(path.c_str());
}

// --- invariant verifier ----------------------------------------------------

TEST(GraphVerifierTest, CatchesBrokenTileableList) {
  graph::TileableGraph g;
  auto op = std::make_shared<operators::EvalOp>(
      std::vector<operators::Assignment>{{"x", Lit(1.0)}}, nullptr,
      std::vector<std::string>{});
  graph::TileableNode* a = g.AddNode(op, {});
  graph::TileableNode* b = g.AddNode(op, {a});
  EXPECT_TRUE(graph::VerifyTileableList({a, b}, {b}).ok());
  // Consumer before producer.
  Status s = graph::VerifyTileableList({b, a}, {b});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("does not precede"), std::string::npos);
  // Duplicate entry.
  s = graph::VerifyTileableList({a, a, b}, {b});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("twice"), std::string::npos);
  // Sink optimized away.
  s = graph::VerifyTileableList({a}, {b});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dropped"), std::string::npos);
  // Input of an untiled node neither tiled nor scheduled.
  s = graph::VerifyTileableList({b}, {b});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("neither tiled nor in the list"),
            std::string::npos);
}

TEST(GraphVerifierTest, CatchesBrokenChunkClosure) {
  graph::ChunkGraph g;
  auto op = std::make_shared<operators::EvalChunkOp>(
      std::vector<operators::Assignment>{{"x", Lit(1.0)}}, nullptr,
      std::vector<std::string>{});
  graph::ChunkNode* a = g.AddNode(op, {});
  graph::ChunkNode* b = g.AddNode(op, {a});
  EXPECT_TRUE(graph::VerifyChunkClosure({a, b}, {b}).ok());
  // Unexecuted input missing from the closure.
  Status s = graph::VerifyChunkClosure({b}, {b});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("neither executed nor in the closure"),
            std::string::npos);
  // Executed nodes must not re-enter a pending closure.
  a->executed = true;
  s = graph::VerifyChunkClosure({a, b}, {b});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("executed"), std::string::npos);
  // A target optimized out of the closure is an error.
  a->executed = false;
  s = graph::VerifyChunkClosure({a}, {a, b});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("optimized out"), std::string::npos);
}

// --- predicate pushdown ----------------------------------------------------

TEST(PredicatePushdownTest, PushesFilterAndReducesBytesRead) {
  const std::string path = WriteTestTable("pushdown");
  auto query = [&](Config cfg, int64_t* bytes, int64_t* pushed) {
    core::Session session(std::move(cfg));
    auto ref = ReadParquet(&session, path);
    auto f = ref->Filter(
        CompareExpr(Col("a"), CmpOp::kGt, Lit(int64_t{160})));
    auto sel = f->Select({"a", "b"});
    DataFrame out = sel->Fetch().MoveValue();
    // The premise below: the source really tiled to chunks of 50 rows.
    EXPECT_EQ(sel->node()->chunks.size(), 4u);
    *bytes = session.metrics().Get(CounterId::kSourceBytesRead);
    *pushed = session.metrics().Get(CounterId::kPredicatesPushed);
    return out;
  };
  // Baseline: pruning only. Pushdown run reads predicate columns first and
  // skips payload columns for chunks where nothing matches (rows 0..149
  // live in three all-miss chunks of 50). `source_bytes_read` counts every
  // row group a lazy column fetches, whenever a consumer decodes it
  // (DESIGN.md §10).
  Config pruned_only = SmallChunkConfig();
  pruned_only.optimizer.tileable = {kPassColumnPruning};
  pruned_only.optimizer.chunk = {kPassOpFusion, kPassCse};
  Config push_cfg = SmallChunkConfig();
  push_cfg.optimizer.chunk = {kPassOpFusion, kPassCse};
  int64_t base_bytes = 0, base_pushed = 0, push_bytes = 0, pushed = 0;
  DataFrame base = query(std::move(pruned_only), &base_bytes, &base_pushed);
  DataFrame opt = query(std::move(push_cfg), &push_bytes, &pushed);
  ExpectFramesEqual(base, opt);
  EXPECT_EQ(base_pushed, 0);
  EXPECT_GE(pushed, 1);
  EXPECT_GT(base_bytes, 0);
  EXPECT_LT(push_bytes, base_bytes);
  std::remove(path.c_str());
}

TEST(PredicatePushdownTest, StackedFiltersCollapseIntoSource) {
  const std::string path = WriteTestTable("stacked");
  Config cfg = SmallChunkConfig();
  core::Session session(std::move(cfg));
  auto ref = ReadParquet(&session, path);
  auto f1 = ref->Filter(CompareExpr(Col("a"), CmpOp::kGt, Lit(int64_t{20})));
  auto f2 = f1->Filter(CompareExpr(Col("a"), CmpOp::kLt, Lit(int64_t{40})));
  // Neither filter is the sink (a sink node must produce the user-visible
  // result itself, so the pass refuses to bypass it).
  auto sel = f2->Select({"a", "b"});
  DataFrame out = sel->Fetch().MoveValue();
  EXPECT_EQ(out.num_rows(), 19);
  // Both predicates reached the source: two pushdown rewrites, and the
  // chain collapsed so no Eval filter remains between source and sink.
  EXPECT_EQ(session.metrics().Get(CounterId::kPredicatesPushed), 2);
  std::remove(path.c_str());
}

TEST(PredicatePushdownTest, SharedSourceIsNotRewritten) {
  const std::string path = WriteTestTable("shared");
  core::Session session(Config{});
  auto ref = ReadParquet(&session, path);
  // Two consumers: the filter and a projection. Pushing the filter into the
  // shared source would corrupt the sibling's rows.
  auto f = ref->Filter(CompareExpr(Col("a"), CmpOp::kGt, Lit(int64_t{150})));
  auto sibling = ref->Select({"b"});
  DataFrame filtered = f->Fetch().MoveValue();
  EXPECT_EQ(filtered.num_rows(), 49);
  EXPECT_EQ(session.metrics().Get(CounterId::kPredicatesPushed), 0);
  DataFrame all = sibling->Fetch().MoveValue();
  EXPECT_EQ(all.num_rows(), 200);
  std::remove(path.c_str());
}

// --- chunk-level CSE -------------------------------------------------------

TEST(CsePassTest, DeduplicatesIdenticalSourceReads) {
  const std::string path = WriteTestTable("cse");
  auto query = [&](Config cfg, int64_t* hits, int64_t* executed) {
    core::Session session(std::move(cfg));
    auto r1 = ReadParquet(&session, path);
    auto r2 = ReadParquet(&session, path);
    dataframe::MergeOptions on;
    on.on = {"a"};
    auto right = r2->Select({"a", "d"});
    auto m = r1->Select({"a", "b"})->Merge(*right, on);
    DataFrame out = m->Fetch().MoveValue();
    *hits = session.metrics().Get(CounterId::kCseHits);
    *executed = session.metrics().Get(CounterId::kSubtasksExecuted);
    return out;
  };
  Config no_cse = SmallChunkConfig();
  no_cse.optimizer.chunk = {kPassOpFusion};
  int64_t base_hits = 0, base_exec = 0, hits = 0, exec = 0;
  DataFrame base = query(std::move(no_cse), &base_hits, &base_exec);
  DataFrame opt = query(SmallChunkConfig(), &hits, &exec);
  EXPECT_EQ(base_hits, 0);
  // Both plans read the same file twice with the same pruned columns; CSE
  // collapses the duplicate chunk reads, executing strictly fewer subtasks.
  EXPECT_GE(hits, 1);
  EXPECT_LT(exec, base_exec);
  ExpectFramesEqual(base, opt);
  std::remove(path.c_str());
}

// --- dead-node elimination -------------------------------------------------

TEST(DeadNodeElimTest, AbandonedBranchIsNeitherTiledNorExecuted) {
  const std::string path = WriteTestTable("dne");
  core::Session session(Config{});
  auto ref = ReadParquet(&session, path);
  // A branch that is built but never fetched must not cost anything.
  auto dead = ref->Assign("z", CompareExpr(Col("a"), CmpOp::kGt,
                                           Lit(int64_t{0})));
  auto live = ref->Select({"a"});
  DataFrame out = live->Fetch().MoveValue();
  EXPECT_EQ(out.num_columns(), 1);
  EXPECT_GE(session.metrics().Get(CounterId::kDeadNodesEliminated), 1);
  EXPECT_FALSE(dead->node()->tiled);
  // Fetching the branch later revives it (incremental Materialize).
  DataFrame dead_out = dead->Fetch().MoveValue();
  EXPECT_EQ(dead_out.num_rows(), 200);
  std::remove(path.c_str());
}

// --- column pruning through the framework ----------------------------------

TEST(ColumnPruningPassTest, NarrowsThroughProjectionAndRenameChain) {
  const std::string path = WriteTestTable("chain");
  core::Session session(Config{});
  auto ref = ReadParquet(&session, path);
  auto renamed = ref->Rename({{"a", "x"}});
  auto wide = renamed->Select({"x", "b"});
  auto narrow = wide->Select({"x"});
  DataFrame out = narrow->Fetch().MoveValue();
  EXPECT_EQ(out.num_columns(), 1);
  EXPECT_EQ(out.column_name(0), "x");
  EXPECT_EQ(out.num_rows(), 200);
  // The requirement narrowed through the rename back to the original name.
  auto* read = dynamic_cast<operators::ReadXpqOp*>(ref->node()->op.get());
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->pruned_columns(), (std::vector<std::string>{"a"}));
  std::remove(path.c_str());
}

TEST(ColumnPruningPassTest, SinkNeedingFullSchemaDisablesPruning) {
  const std::string path = WriteTestTable("fullschema");
  core::Session session(Config{});
  auto ref = ReadParquet(&session, path);
  DataFrame out = ref->Fetch().MoveValue();
  EXPECT_EQ(out.num_columns(), 4);
  auto* read = dynamic_cast<operators::ReadXpqOp*>(ref->node()->op.get());
  ASSERT_NE(read, nullptr);
  EXPECT_TRUE(read->pruned_columns().empty());
  std::remove(path.c_str());
}

TEST(ColumnPruningPassTest, ComposesWithDeadNodeElimInSpecOrder) {
  const std::string path = WriteTestTable("dne_prune");
  // Explicit pipeline: eliminate dead branches BEFORE planning reads, so a
  // never-fetched consumer cannot widen the source's column set (the
  // default order runs DNE last and would keep column d alive).
  Config cfg;
  cfg.optimizer.tileable = {kPassDeadNodeElim, kPassColumnPruning};
  core::Session session(std::move(cfg));
  auto ref = ReadParquet(&session, path);
  auto dead = ref->Select({"d"});
  auto live = ref->Select({"a"});
  DataFrame out = live->Fetch().MoveValue();
  EXPECT_EQ(out.num_columns(), 1);
  auto* read = dynamic_cast<operators::ReadXpqOp*>(ref->node()->op.get());
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->pruned_columns(), (std::vector<std::string>{"a"}));
  // Reviving the dead branch widens the plan and still works.
  DataFrame dead_out = dead->Fetch().MoveValue();
  EXPECT_EQ(dead_out.num_columns(), 1);
  EXPECT_EQ(dead_out.column_name(0), "d");
  std::remove(path.c_str());
}

// --- run report ------------------------------------------------------------

TEST(PassReportTest, RunReportListsPassesInPipelineOrder) {
  const std::string path = WriteTestTable("report");
  Tracer tracer;
  int session_pid = 0;
  {
    Config cfg;
    cfg.trace.sink = &tracer;
    core::Session session(std::move(cfg));
    session_pid = session.config().trace.pid;
    auto ref = ReadParquet(&session, path);
    auto f = ref->Filter(CompareExpr(Col("a"), CmpOp::kGt, Lit(int64_t{10})));
    ASSERT_TRUE(f->Fetch().ok());
  }
  // A session registers its own process next to its cluster's; the pass
  // gauges are the session's, the per-band peaks the cluster's.
  const auto pids = tracer.process_ids();
  ASSERT_EQ(pids.size(), 2u);
  const int cluster_pid = pids[0] == session_pid ? pids[1] : pids[0];
  EXPECT_NE(tracer.RenderRunReport(cluster_pid).find("band 0"),
            std::string::npos);
  const std::string report = tracer.RenderRunReport(session_pid);
  ASSERT_NE(report.find("optimizer passes"), std::string::npos);
  // Tileable slots precede chunk slots precede subtask slots.
  const size_t t0 = report.find("t0_predicate_pushdown");
  const size_t c0 = report.find("c0_op_fusion");
  const size_t s0 = report.find("s0_graph_fusion");
  ASSERT_NE(t0, std::string::npos);
  ASSERT_NE(c0, std::string::npos);
  ASSERT_NE(s0, std::string::npos);
  EXPECT_LT(t0, c0);
  EXPECT_LT(c0, s0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xorbits::optimizer
