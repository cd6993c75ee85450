#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace xorbits {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::OutOfMemory("band 3 over budget");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(s.ToString(), "OutOfMemory: band 3 over budget");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IOError("disk full").WithContext("writing chunk");
  EXPECT_EQ(s.ToString(), "IOError: writing chunk: disk full");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, EveryCodeHasName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  XORBITS_ASSIGN_OR_RETURN(int h, Half(x));
  XORBITS_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> r = Half(4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  Result<int> e = Half(3);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalid);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = QuarterViaMacro(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(QuarterViaMacro(6).ok());  // fails at second Half
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).MoveValue();
  EXPECT_EQ(*v, 7);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count++; });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) pool.Submit([&count] { count++; });
  });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ConfigTest, PresetsMatchDocumentedPolicies) {
  using Passes = std::vector<std::string>;
  const Passes full_tileable = {"predicate_pushdown", "column_pruning",
                                "dead_node_elim"};
  const Passes fusion_only = {"graph_fusion"};

  // Config{} and the Xorbits preset run the full pipelines.
  for (const Config& x : {Config{}, Config::Preset(EngineKind::kXorbits)}) {
    EXPECT_TRUE(x.dynamic_tiling);
    EXPECT_EQ(x.optimizer.tileable, full_tileable);
    EXPECT_EQ(x.optimizer.chunk, (Passes{"op_fusion", "cse"}));
    EXPECT_EQ(x.optimizer.subtask, fusion_only);
  }

  Config p = Config::Preset(EngineKind::kPandasLike);
  EXPECT_EQ(p.total_bands(), 1);
  EXPECT_FALSE(p.dynamic_tiling);
  EXPECT_EQ(p.optimizer.tileable, Passes{});
  EXPECT_EQ(p.optimizer.chunk, Passes{});
  EXPECT_EQ(p.optimizer.subtask, Passes{});

  for (EngineKind k : {EngineKind::kDaskLike, EngineKind::kSparkLike}) {
    Config c = Config::Preset(k);
    EXPECT_FALSE(c.dynamic_tiling) << EngineKindName(k);
    EXPECT_EQ(c.optimizer.tileable, full_tileable) << EngineKindName(k);
    EXPECT_EQ(c.optimizer.chunk, Passes{}) << EngineKindName(k);
    EXPECT_EQ(c.optimizer.subtask, fusion_only) << EngineKindName(k);
  }
  EXPECT_EQ(Config::Preset(EngineKind::kDaskLike).reduce_policy,
            ReducePolicy::kTree);

  Config m = Config::Preset(EngineKind::kModinLike);
  EXPECT_FALSE(m.enable_spill);
  EXPECT_EQ(m.reduce_policy, ReducePolicy::kShuffle);
  EXPECT_EQ(m.optimizer.tileable, Passes{});
  EXPECT_EQ(m.optimizer.chunk, Passes{});
  EXPECT_EQ(m.optimizer.subtask, fusion_only);
}

TEST(MetricsTest, PeakUpdatesMonotonically) {
  Metrics m;
  m.RaiseTo(CounterId::kPeakBandBytes, 100);
  m.RaiseTo(CounterId::kPeakBandBytes, 50);
  m.RaiseTo(CounterId::kPeakBandBytes, 200);
  EXPECT_EQ(m.Get(CounterId::kPeakBandBytes), 200);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, ZipfIsSkewedAndBounded) {
  Rng rng(1);
  int64_t zero_hits = 0;
  const int64_t n = 10000;
  for (int64_t i = 0; i < n; ++i) {
    int64_t v = rng.Zipf(100, 1.5);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    if (v == 0) zero_hits++;
  }
  // Heavy head: the first key should dominate.
  EXPECT_GT(zero_hits, n / 4);
}

TEST(RngTest, StringHasRequestedLength) {
  Rng rng(3);
  EXPECT_EQ(rng.String(12).size(), 12u);
}

}  // namespace
}  // namespace xorbits
