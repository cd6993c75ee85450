#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/xorbits.h"
#include "dataframe/kernels.h"
#include "io/serialize.h"
#include "operators/merge_op.h"
#include "services/storage_service.h"

namespace xorbits {
namespace {

using core::Session;
using dataframe::AggFunc;
using dataframe::CmpOp;
using dataframe::Column;
using dataframe::DataFrame;
using operators::BinaryExpr;
using operators::Col;
using operators::CompareExpr;
using operators::Lit;

Config TestConfig(EngineKind kind = EngineKind::kXorbits) {
  Config c = Config::Preset(kind);
  c.num_workers = 2;
  c.bands_per_worker = 2;
  if (kind == EngineKind::kPandasLike) {
    c.num_workers = 1;
    c.bands_per_worker = 1;
  }
  c.band_memory_limit = 32LL << 20;
  // Small chunks => real multi-chunk plans: SampleFrame(1000) tiles to
  // about ten chunks, past the 4-band floor.
  c.chunk_store_limit = 1LL << 12;
  c.task_deadline_ms = 30000;
  return c;
}

DataFrame SampleFrame(int64_t n) {
  std::vector<int64_t> k(n), v(n);
  std::vector<double> x(n);
  std::vector<std::string> s(n);
  for (int64_t i = 0; i < n; ++i) {
    k[i] = i % 7;
    v[i] = i;
    x[i] = 0.5 * i;
    s[i] = (i % 3 == 0) ? "apple" : "banana";
  }
  return DataFrame::Make({"k", "v", "x", "s"},
                         {Column::Int64(k), Column::Int64(v),
                          Column::Float64(x), Column::String(s)})
      .MoveValue();
}

TEST(EngineTest, FromPandasRoundTrip) {
  Session session(TestConfig());
  auto df = FromPandas(&session, SampleFrame(1000));
  ASSERT_TRUE(df.ok());
  auto out = df->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_rows(), 1000);
  EXPECT_EQ(out->GetColumn("v").ValueOrDie()->int64_data()[999], 999);
  // Multi-chunk plan actually happened, by size rather than band count.
  EXPECT_GT(df->node()->chunks.size(), 4u);
  EXPECT_GT(session.metrics().Get(CounterId::kSubtasksExecuted), 1);
}

TEST(EngineTest, FilterMatchesSingleNode) {
  Session session(TestConfig());
  auto df = FromPandas(&session, SampleFrame(1000));
  auto filtered = df->Filter(CompareExpr(Col("v"), CmpOp::kLt, Lit(int64_t{100})));
  ASSERT_TRUE(filtered.ok());
  auto out = filtered->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_rows(), 100);
}

TEST(EngineTest, AssignComputesExpressions) {
  Session session(TestConfig());
  auto df = FromPandas(&session, SampleFrame(500));
  auto out = df->Assign("y", BinaryExpr(Col("x"), dataframe::BinOp::kMul,
                                        Lit(2.0)))
                 .ValueOrDie()
                 .Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_DOUBLE_EQ(out->GetColumn("y").ValueOrDie()->float64_data()[10],
                   10.0);
}

// The paper's running example (Listing 2 / Fig. 3(c)): filter then iloc.
TEST(EngineTest, FilterThenIlocDynamic) {
  Session session(TestConfig(EngineKind::kXorbits));
  auto df = FromPandas(&session, SampleFrame(1000));
  auto filtered = df->Filter(CompareExpr(Col("k"), CmpOp::kEq, Lit(int64_t{3})));
  auto row = filtered->Iloc(10);
  ASSERT_TRUE(row.ok());
  auto out = row->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->num_rows(), 1);
  // Rows with k==3 are v = 3, 10, 17, ...; the 10th (0-based) is 73.
  EXPECT_EQ(out->GetColumn("v").ValueOrDie()->int64_data()[0], 73);
  EXPECT_GT(session.metrics().Get(CounterId::kDynamicYields), 0);
}

TEST(EngineTest, FilterThenIlocFailsOnDaskLike) {
  Session session(TestConfig(EngineKind::kDaskLike));
  auto df = FromPandas(&session, SampleFrame(1000));
  auto filtered = df->Filter(CompareExpr(Col("k"), CmpOp::kEq, Lit(int64_t{3})));
  auto out = filtered->Iloc(10)->Fetch();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotImplemented);
}

TEST(EngineTest, FilterThenIlocWorksOnModinLike) {
  Session session(TestConfig(EngineKind::kModinLike));
  auto df = FromPandas(&session, SampleFrame(1000));
  auto filtered = df->Filter(CompareExpr(Col("k"), CmpOp::kEq, Lit(int64_t{3})));
  auto out = filtered->Iloc(10)->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->GetColumn("v").ValueOrDie()->int64_data()[0], 73);
}

class EngineSweep : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineSweep, GroupByAggMatchesSingleNode) {
  Session session(TestConfig(GetParam()));
  DataFrame raw = SampleFrame(997);
  auto expected = dataframe::GroupByAgg(
      raw, {"k"},
      {{"v", AggFunc::kSum, "vs"}, {"x", AggFunc::kMean, "xm"},
       {"", AggFunc::kSize, "n"}});
  ASSERT_TRUE(expected.ok());

  auto df = FromPandas(&session, raw);
  auto grouped = df->GroupByAgg(
      {"k"}, {{"v", AggFunc::kSum, "vs"}, {"x", AggFunc::kMean, "xm"},
              {"", AggFunc::kSize, "n"}});
  ASSERT_TRUE(grouped.ok());
  auto out_r = grouped->Fetch();
  ASSERT_TRUE(out_r.ok()) << out_r.status();
  // Shuffle output arrives partition-by-partition; sort for comparison.
  auto out = dataframe::SortValues(*out_r, {"k"});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), expected->num_rows());
  for (int64_t g = 0; g < out->num_rows(); ++g) {
    EXPECT_EQ(out->GetColumn("k").ValueOrDie()->int64_data()[g],
              expected->GetColumn("k").ValueOrDie()->int64_data()[g]);
    EXPECT_EQ(out->GetColumn("vs").ValueOrDie()->int64_data()[g],
              expected->GetColumn("vs").ValueOrDie()->int64_data()[g]);
    EXPECT_NEAR(out->GetColumn("xm").ValueOrDie()->float64_data()[g],
                expected->GetColumn("xm").ValueOrDie()->float64_data()[g],
                1e-9);
    EXPECT_EQ(out->GetColumn("n").ValueOrDie()->int64_data()[g],
              expected->GetColumn("n").ValueOrDie()->int64_data()[g]);
  }
}

TEST_P(EngineSweep, MergeMatchesSingleNode) {
  Session session(TestConfig(GetParam()));
  DataFrame left_raw = SampleFrame(500);
  DataFrame right_raw =
      DataFrame::Make({"k", "w"},
                      {Column::Int64({0, 1, 2, 3, 4, 5, 6}),
                       Column::Int64({10, 11, 12, 13, 14, 15, 16})})
          .MoveValue();
  dataframe::MergeOptions opts;
  opts.on = {"k"};
  auto expected = dataframe::Merge(left_raw, right_raw, opts);
  ASSERT_TRUE(expected.ok());

  auto left = FromPandas(&session, left_raw);
  auto right = FromPandas(&session, right_raw);
  auto joined = left->Merge(*right, opts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->columns(),
            (std::vector<std::string>{"k", "v", "x", "s", "w"}));
  auto out_r = joined->Fetch();
  ASSERT_TRUE(out_r.ok()) << out_r.status();
  ASSERT_EQ(out_r->num_rows(), expected->num_rows());
  // Compare as sorted-by-v multisets (shuffle reorders rows).
  auto out = dataframe::SortValues(*out_r, {"v"});
  auto exp = dataframe::SortValues(*expected, {"v"});
  for (int64_t i = 0; i < out->num_rows(); ++i) {
    EXPECT_EQ(out->GetColumn("w").ValueOrDie()->int64_data()[i],
              exp->GetColumn("w").ValueOrDie()->int64_data()[i]);
  }
}

TEST_P(EngineSweep, SortValuesGloballyOrdered) {
  Session session(TestConfig(GetParam()));
  auto df = FromPandas(&session, SampleFrame(800));
  auto sorted = df->SortValues({"k", "v"}, {true, false});
  ASSERT_TRUE(sorted.ok());
  auto out = sorted->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->num_rows(), 800);
  const auto& k = out->GetColumn("k").ValueOrDie()->int64_data();
  const auto& v = out->GetColumn("v").ValueOrDie()->int64_data();
  for (int64_t i = 1; i < 800; ++i) {
    ASSERT_LE(k[i - 1], k[i]);
    if (k[i - 1] == k[i]) ASSERT_GE(v[i - 1], v[i]);
  }
}

TEST_P(EngineSweep, SortValuesMatchesSingleNodeWithNulls) {
  // A range-partitioned sort concatenates its partitions in order, so rows
  // must route where the sort puts them: nulls last in either direction.
  Session session(TestConfig(GetParam()));
  const int64_t n = 6000;  // several times the chunk store limit
  DataFrame raw = SampleFrame(n);
  std::vector<int64_t> k(n);
  std::vector<uint8_t> valid(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    k[i] = (i * 37) % 101;
    if (i % 9 == 0) valid[i] = 0;
  }
  ASSERT_TRUE(raw.SetColumn("k", Column::Int64(k, valid)).ok());
  auto df = FromPandas(&session, raw);
  ASSERT_TRUE(df.ok());
  for (bool ascending : {true, false}) {
    auto sorted = df->SortValues({"k", "v"}, {ascending, true});
    ASSERT_TRUE(sorted.ok());
    auto out = sorted->Fetch();
    ASSERT_TRUE(out.ok()) << out.status();
    auto want = dataframe::SortValues(raw, {"k", "v"}, {ascending, true});
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(out->num_rows(), n);
    const Column& got_k = *out->GetColumn("k").ValueOrDie();
    const Column& want_k = *want->GetColumn("k").ValueOrDie();
    const auto& got_v = out->GetColumn("v").ValueOrDie()->int64_data();
    const auto& want_v = want->GetColumn("v").ValueOrDie()->int64_data();
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(got_k.IsValid(i), want_k.IsValid(i))
          << "row " << i << " ascending=" << ascending;
      ASSERT_EQ(got_v[i], want_v[i]) << "row " << i;
    }
  }
}

TEST_P(EngineSweep, DropDuplicatesAndHead) {
  Session session(TestConfig(GetParam()));
  auto df = FromPandas(&session, SampleFrame(700));
  auto dedup = df->DropDuplicates({"k"});
  ASSERT_TRUE(dedup.ok());
  auto out = dedup->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_rows(), 7);

  auto head = df->Head(42)->Fetch();
  ASSERT_TRUE(head.ok()) << head.status();
  EXPECT_EQ(head->num_rows(), 42);
  EXPECT_EQ(head->GetColumn("v").ValueOrDie()->int64_data()[41], 41);
}

TEST_P(EngineSweep, WholeFrameAgg) {
  Session session(TestConfig(GetParam()));
  auto df = FromPandas(&session, SampleFrame(300));
  auto agg = df->Agg({{"v", AggFunc::kSum, "total"},
                      {"x", AggFunc::kMax, "xmax"}});
  ASSERT_TRUE(agg.ok());
  auto out = agg->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetColumn("total").ValueOrDie()->int64_data()[0],
            299 * 300 / 2);
  EXPECT_DOUBLE_EQ(out->GetColumn("xmax").ValueOrDie()->float64_data()[0],
                   149.5);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineSweep,
                         ::testing::Values(EngineKind::kXorbits,
                                           EngineKind::kPandasLike,
                                           EngineKind::kDaskLike,
                                           EngineKind::kModinLike,
                                           EngineKind::kSparkLike));

TEST(EngineTest, FilterGroupbyPipeline) {
  Session session(TestConfig());
  auto df = FromPandas(&session, SampleFrame(2000));
  auto filtered = df->Filter(
      CompareExpr(Col("v"), CmpOp::kGe, Lit(int64_t{1000})));
  auto grouped = filtered->GroupByAgg({"s"}, {{"v", AggFunc::kCount, "n"}});
  auto out_r = grouped->Fetch();
  ASSERT_TRUE(out_r.ok()) << out_r.status();
  auto out = dataframe::SortValues(*out_r, {"s"});
  ASSERT_EQ(out->num_rows(), 2);
  // v in [1000, 2000): 334 multiples of 3 -> "apple".
  EXPECT_EQ(out->GetColumn("n").ValueOrDie()->int64_data()[0], 333);
  EXPECT_EQ(out->GetColumn("n").ValueOrDie()->int64_data()[1], 667);
}

TEST(EngineTest, RenameAndSelect) {
  Session session(TestConfig());
  auto df = FromPandas(&session, SampleFrame(100));
  auto renamed = df->Rename({{"v", "value"}});
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(renamed->HasColumn("value"));
  auto out = renamed->Select({"value", "k"})->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_columns(), 2);
  EXPECT_EQ(out->column_name(0), "value");
}

TEST(EngineTest, MissingColumnCaughtAtCallTime) {
  Session session(TestConfig());
  auto df = FromPandas(&session, SampleFrame(10));
  EXPECT_EQ(df->Select({"nope"}).status().code(), StatusCode::kKeyError);
  EXPECT_EQ(df->GroupByAgg({"nope"}, {{"v", AggFunc::kSum, "s"}})
                .status()
                .code(),
            StatusCode::kKeyError);
  EXPECT_EQ(df->Filter(CompareExpr(Col("nope"), CmpOp::kEq, Lit(int64_t{1})))
                .status()
                .code(),
            StatusCode::kKeyError);
}

TEST(EngineTest, ConcatFramesAcrossChunks) {
  Session session(TestConfig());
  auto a = FromPandas(&session, SampleFrame(100));
  auto b = FromPandas(&session, SampleFrame(50));
  auto cat = ConcatFrames({*a, *b});
  ASSERT_TRUE(cat.ok());
  auto out = cat->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_rows(), 150);
}

TEST(EngineTest, OomWhenBandBudgetTiny) {
  Config c = TestConfig(EngineKind::kModinLike);
  c.band_memory_limit = 4096;  // far below the frame size
  Session session(c);
  auto df = FromPandas(&session, SampleFrame(5000));
  dataframe::MergeOptions opts;
  opts.on = {"k"};
  auto joined = df->Merge(*FromPandas(&session, SampleFrame(5000)), opts);
  ASSERT_TRUE(joined.ok());
  auto out = joined->Fetch();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kOutOfMemory);
  EXPECT_GT(session.metrics().parent()->Get(CounterId::kOomEvents), 0);
}

TEST(EngineTest, SpillAvoidsOom) {
  Config c = TestConfig(EngineKind::kXorbits);
  c.band_memory_limit = 400 << 10;  // pressure, but single chunks fit
  c.enable_spill = true;
  c.spill_dir = "/tmp/xorbits_engine_spill";
  Session session(c);
  auto df = FromPandas(&session, SampleFrame(4000));
  auto out = df->Assign("y", BinaryExpr(Col("x"), dataframe::BinOp::kMul,
                                        Lit(3.0)))
                 .ValueOrDie()
                 .Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_rows(), 4000);
}

// --- tensors through the public API ---

TEST(EngineTensorTest, RandomQrInvariants) {
  Session session(TestConfig());
  auto a = RandomNormal(&session, {400, 8}, 7);
  ASSERT_TRUE(a.ok());
  auto qr = a->QR();
  ASSERT_TRUE(qr.ok()) << qr.status();
  auto q = qr->first.Fetch();
  auto r = qr->second.Fetch();
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(q->shape(), (std::vector<int64_t>{400, 8}));
  EXPECT_EQ(r->shape(), (std::vector<int64_t>{8, 8}));
  auto qtq = tensor::MatMul(*tensor::Transpose(*q), *q);
  EXPECT_LT(*tensor::MaxAbsDiff(*qtq, tensor::NDArray::Eye(8)), 1e-9);
  // Q R reproduces the original matrix.
  auto full = a->Fetch();
  ASSERT_TRUE(full.ok());
  auto recon = tensor::MatMul(*q, *r);
  EXPECT_LT(*tensor::MaxAbsDiff(*full, *recon), 1e-9);
}

TEST(EngineTensorTest, LstsqRecoversCoefficients) {
  Session session(TestConfig());
  // y = X beta exactly; lstsq must recover beta.
  Rng rng(3);
  tensor::NDArray x = tensor::NDArray::RandomNormal({600, 5}, rng);
  tensor::NDArray beta_true =
      tensor::NDArray::Make({1, -2, 3, 0.5, 4}, {5, 1}).MoveValue();
  tensor::NDArray y = *tensor::MatMul(x, beta_true);
  auto xr = FromNumpy(&session, x);
  auto yr = FromNumpy(&session, y);
  auto beta = Lstsq(*xr, *yr);
  ASSERT_TRUE(beta.ok());
  auto out = beta->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_LT(*tensor::MaxAbsDiff(*out, beta_true), 1e-8);
}

TEST(EngineTensorTest, EwiseAndSum) {
  Session session(TestConfig());
  auto a = RandomUniform(&session, {500, 4}, 1);
  auto b = a->MulScalar(2.0);
  ASSERT_TRUE(b.ok());
  auto diff = b->Sub(*a);  // == a
  ASSERT_TRUE(diff.ok());
  auto sum_ref = diff->Sum();
  ASSERT_TRUE(sum_ref.ok());
  auto total = sum_ref->Fetch();
  ASSERT_TRUE(total.ok()) << total.status();
  auto direct = a->Fetch();
  EXPECT_NEAR(total->at(0, 0), tensor::SumAll(*direct), 1e-8);
}

TEST(EngineTensorTest, MatMulAgainstSingleNode) {
  Session session(TestConfig());
  Rng rng(9);
  tensor::NDArray a = tensor::NDArray::RandomNormal({300, 6}, rng);
  tensor::NDArray b = tensor::NDArray::RandomNormal({6, 3}, rng);
  auto ar = FromNumpy(&session, a);
  auto br = FromNumpy(&session, b);
  auto out = ar->MatMul(*br)->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_LT(*tensor::MaxAbsDiff(*out, *tensor::MatMul(a, b)), 1e-10);
}

TEST(EngineTest, MetricsRecordFusion) {
  Session session(TestConfig());
  auto df = FromPandas(&session, SampleFrame(1000));
  // Chain of elementwise ops: op fusion and graph fusion both apply.
  auto step1 = df->Assign("a1", BinaryExpr(Col("x"), dataframe::BinOp::kAdd,
                                           Lit(1.0)));
  auto step2 = step1->Assign("a2", BinaryExpr(Col("a1"),
                                              dataframe::BinOp::kMul,
                                              Lit(2.0)));
  auto out = step2->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(session.metrics().Get(CounterId::kOpFusionHits), 0);
  EXPECT_GT(session.metrics().Get(CounterId::kFusedSubtasks), 0);
  EXPECT_DOUBLE_EQ(out->GetColumn("a2").ValueOrDie()->float64_data()[3],
                   (1.5 + 1.0) * 2.0);
}


// --- broadcast joins share one hash table per payload (DESIGN.md §7) ---

DataFrame DimFrame() {
  return DataFrame::Make({"k", "w"},
                         {Column::Int64({0, 1, 2, 3, 4, 5}),
                          Column::Int64({10, 11, 12, 13, 14, 15})})
      .MoveValue();
}

TEST(EngineTest, BroadcastMergeBuildsOneTableAndMatchesPandasLike) {
  dataframe::MergeOptions opts;
  opts.on = {"k"};
  Session session(TestConfig());
  auto left = FromPandas(&session, SampleFrame(4000));
  auto joined = left->Merge(*FromPandas(&session, DimFrame()), opts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  auto out = joined->Fetch();
  ASSERT_TRUE(out.ok()) << out.status();
  // Every left chunk probed the broadcast side; one table served them all.
  EXPECT_GE(joined->node()->chunks.size(), 8u);
  EXPECT_EQ(session.metrics().Get(CounterId::kJoinTablesBuilt), 1);

  Session oracle(TestConfig(EngineKind::kPandasLike));
  auto want = FromPandas(&oracle, SampleFrame(4000))
                  ->Merge(*FromPandas(&oracle, DimFrame()), opts)
                  ->Fetch();
  ASSERT_TRUE(want.ok()) << want.status();
  // Same rows (the oracle may order them otherwise: compare sorted by the
  // unique left id).
  ASSERT_EQ(out->column_names(), want->column_names());
  auto got_sorted = dataframe::SortValues(*out, {"v"});
  auto want_sorted = dataframe::SortValues(*want, {"v"});
  ASSERT_TRUE(got_sorted.ok() && want_sorted.ok());
  ASSERT_EQ(got_sorted->num_rows(), want_sorted->num_rows());
  for (int c = 0; c < got_sorted->num_columns(); ++c) {
    std::string got_bytes, want_bytes;
    for (int64_t i = 0; i < got_sorted->num_rows(); ++i) {
      got_sorted->column(c).AppendKeyBytes(i, &got_bytes);
      want_sorted->column(c).AppendKeyBytes(i, &want_bytes);
    }
    EXPECT_TRUE(got_bytes == want_bytes) << got_sorted->column_name(c);
  }
}

TEST(EngineTest, SpilledBroadcastPayloadBuildsAFreshTable) {
  Config c = TestConfig();
  c.enable_spill = true;
  c.spill_dir = "/tmp/xorbits_engine_join_spill";
  Metrics metrics;
  MetricsScope scope(&metrics);
  services::StorageService store(c, &metrics);
  ASSERT_TRUE(store.Put("dim", services::MakeChunk(DimFrame()), 0).ok());
  dataframe::MergeOptions opts;
  opts.on = {"k"};
  const operators::MergeChunkOp op(opts);
  const DataFrame left = SampleFrame(4000);
  auto probe_all = [&]() {
    std::vector<std::string> outs;
    for (int64_t lo = 0; lo < 4000; lo += 500) {
      operators::ExecutionContext ctx;
      ctx.inputs = {services::MakeChunk(left.SliceRows(lo, 500)),
                    store.Get("dim", static_cast<int>(lo / 500) % 4)
                        .ValueOrDie()};
      ctx.outputs.resize(1);
      Status st = op.Execute(ctx);
      EXPECT_TRUE(st.ok()) << st;
      outs.push_back(
          io::SerializeDataFrame(ctx.outputs[0]->dataframe()).ValueOrDie());
    }
    return outs;
  };
  const std::vector<std::string> first = probe_all();
  EXPECT_EQ(metrics.Get(CounterId::kJoinTablesBuilt), 1);
  // Spill the payload; the next reads fault back a new one, which builds
  // its own table.
  ASSERT_GT(store.SpillByPrefix("dim", 0, 1), 0);
  const std::vector<std::string> second = probe_all();
  EXPECT_EQ(metrics.Get(CounterId::kJoinTablesBuilt), 2);
  EXPECT_EQ(second, first);
  for (size_t i = 0; i < first.size(); ++i) {
    auto want = dataframe::Merge(
        left.SliceRows(static_cast<int64_t>(i) * 500, 500), DimFrame(), opts);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(first[i], io::SerializeDataFrame(*want).ValueOrDie()) << i;
  }
  std::filesystem::remove_all(c.spill_dir);
}

}  // namespace
}  // namespace xorbits
