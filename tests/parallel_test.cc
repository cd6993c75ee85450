// Stress tests for the morsel-driven ThreadPool and determinism tests
// proving that parallel kernels produce byte-identical results at any
// thread count (the contract that lets the executor divide parallel CPU
// across modeled slots without changing answers).

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dataframe/dataframe.h"
#include "dataframe/groupby.h"
#include "dataframe/join.h"
#include "dataframe/kernels.h"
#include "tensor/ndarray.h"
#include "test_util.h"

namespace xorbits {
namespace {

using dataframe::AggFunc;
using dataframe::AggSpec;
using dataframe::Column;
using dataframe::DataFrame;
using dataframe::JoinType;
using dataframe::MergeOptions;
using test_util::Fingerprint;

// ---------------------------------------------------------------------------
// Pool stress
// ---------------------------------------------------------------------------

TEST(ThreadPoolStressTest, ConcurrentSubmitAndWaitIdle) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 200;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
        if (i % 50 == 0) pool.WaitIdle();
      }
      pool.WaitIdle();
    });
  }
  for (auto& t : submitters) t.join();
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), kThreads * kPerThread);
}

TEST(ThreadPoolStressTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  constexpr int64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, kN, 1000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  SetCurrentThreadPool(prev);
}

TEST(ThreadPoolStressTest, NestedParallelForRunsInlineAndCompletes) {
  ThreadPool pool(3);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  std::atomic<int64_t> total{0};
  ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // Nested loops must not deadlock and must cover their range.
      ParallelFor(0, 100, 10, [&](int64_t ilo, int64_t ihi) {
        total.fetch_add(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(total.load(), 64 * 100);
  SetCurrentThreadPool(prev);
}

TEST(ThreadPoolStressTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  EXPECT_THROW(
      ParallelFor(0, 1000, 10,
                  [&](int64_t lo, int64_t /*hi*/) {
                    if (lo >= 500) throw std::runtime_error("morsel failed");
                  }),
      std::runtime_error);
  // Pool must stay usable after an exception.
  std::atomic<int> ok{0};
  ParallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
    ok.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ok.load(), 100);
  SetCurrentThreadPool(prev);
}

TEST(ThreadPoolStressTest, ParallelReduceMatchesSerialFold) {
  ThreadPool pool(4);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  constexpr int64_t kN = 123457;
  const int64_t sum = ParallelReduce(
      0, kN, 1000, int64_t{0},
      [](int64_t lo, int64_t hi) {
        int64_t s = 0;
        for (int64_t i = lo; i < hi; ++i) s += i;
        return s;
      },
      [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
  SetCurrentThreadPool(prev);
}

TEST(ThreadPoolStressTest, CpuScopeSeesPoolThreadWork) {
  ThreadPool pool(4);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  ParallelCpuScope scope;
  std::atomic<double> sink{0};
  ParallelFor(0, 1 << 22, 1 << 16, [&](int64_t lo, int64_t hi) {
    double s = 0;
    for (int64_t i = lo; i < hi; ++i) s += static_cast<double>(i) * 1e-9;
    sink.fetch_add(s, std::memory_order_relaxed);
  });
  // All morsel CPU must be visible, and the share run on this thread can
  // never exceed the total.
  EXPECT_GT(scope.total_us(), 0);
  EXPECT_LE(scope.inline_us(), scope.total_us());
  SetCurrentThreadPool(prev);
}

// ---------------------------------------------------------------------------
// Core budget: fan out only onto free cores
// ---------------------------------------------------------------------------

/// A CPU-bound morsel body: sums i * 1e-9 over [lo, hi).
double Burn(int64_t lo, int64_t hi) {
  double s = 0;
  for (int64_t i = lo; i < hi; ++i) s += static_cast<double>(i) * 1e-9;
  return s;
}

/// Keeps Burn's work from being optimized away where its sum is unused.
std::atomic<double> g_burn_sink{0};
void BurnAndSink(int64_t lo, int64_t hi) {
  g_burn_sink.fetch_add(Burn(lo, hi), std::memory_order_relaxed);
}

TEST(CoreBudgetTest, EveryCoreHeldRunsInlineWithTheSameResult) {
  ASSERT_EQ(CoresInUse(), 0);
  ThreadPool pool(4);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  constexpr int64_t kN = 1 << 20;
  constexpr int64_t kGrain = 1 << 14;
  const auto map = [](int64_t lo, int64_t hi) { return Burn(lo, hi); };
  const auto add = [](double a, double b) { return a + b; };
  const double fanned = ParallelReduce(0, kN, kGrain, 0.0, map, add);

  ASSERT_EQ(ReserveCores(CoreBudget()), CoreBudget());
  EXPECT_EQ(ReserveCores(1), 0);
  Metrics metrics;
  MetricsScope metrics_scope(&metrics);
  ParallelCpuScope cpu;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  ParallelFor(0, kN, kGrain, [&](int64_t lo, int64_t hi) {
    if (std::this_thread::get_id() != caller) elsewhere++;
    BurnAndSink(lo, hi);
  });
  const double held = ParallelReduce(0, kN, kGrain, 0.0, map, add);
  ReleaseCores(CoreBudget());

  EXPECT_EQ(elsewhere.load(), 0);
  EXPECT_EQ(held, fanned);  // same morsels, same fold order: same bits
  // Inline morsels still count as parallel CPU, all of it on this thread.
  EXPECT_GT(cpu.total_us(), 0);
  EXPECT_EQ(cpu.inline_us(), cpu.total_us());
  EXPECT_EQ(metrics.Get(CounterId::kMorselFanoutsDeclined), 2);
  // One morsel, or no pool, never counts as a declined fan-out.
  ParallelFor(0, 10, kGrain, [](int64_t, int64_t) {});
  SetCurrentThreadPool(nullptr);
  ParallelFor(0, kN, kGrain, [](int64_t, int64_t) {});
  EXPECT_EQ(metrics.Get(CounterId::kMorselFanoutsDeclined), 2);
  SetCurrentThreadPool(prev);
  EXPECT_EQ(CoresInUse(), 0);
}

TEST(CoreBudgetTest, CoresComeBackAfterAThrowAndAfterNesting) {
  ASSERT_EQ(CoresInUse(), 0);
  ThreadPool pool(4);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  for (int rep = 0; rep < 20; ++rep) {
    EXPECT_THROW(ParallelFor(0, 1000, 10,
                             [&](int64_t lo, int64_t hi) {
                               BurnAndSink(lo, hi);
                               if (lo == 500) throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    EXPECT_EQ(CoresInUse(), 0) << "after throw, rep " << rep;
  }
  std::atomic<int64_t> total{0};
  ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ParallelFor(0, 100, 10, [&](int64_t ilo, int64_t ihi) {
        total.fetch_add(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(total.load(), 64 * 100);
  EXPECT_EQ(CoresInUse(), 0);
  {
    const CoreHold hold;
    EXPECT_EQ(CoresInUse(), 1);
  }
  EXPECT_EQ(CoresInUse(), 0);
  SetCurrentThreadPool(prev);
}

TEST(CoreBudgetTest, BusyThreadsNeverExceedTheBudget) {
  ASSERT_EQ(CoresInUse(), 0);
  ThreadPool pool(4);
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  constexpr int64_t kN = 20000;
  std::atomic<int> peak{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SetCurrentThreadPool(&pool);
      for (int r = 0; r < kRounds; ++r) {
        const CoreHold hold;  // like a band worker inside a subtask
        std::atomic<int64_t> covered{0};
        ParallelFor(0, kN, 500, [&](int64_t lo, int64_t hi) {
          const int seen = CoresInUse();
          int p = peak.load();
          while (seen > p && !peak.compare_exchange_weak(p, seen)) {
          }
          BurnAndSink(lo, hi);
          covered.fetch_add(hi - lo);
        });
        if (covered.load() != kN) wrong++;
      }
      SetCurrentThreadPool(nullptr);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), CoreBudget());
  EXPECT_EQ(CoresInUse(), 0);
}

// ---------------------------------------------------------------------------
// MetricsScope: which Metrics a counter raised below the session lands on
// ---------------------------------------------------------------------------

/// Charges one unit per row of [0, n) in 4-thread pool morsels.
void ChargeRowsInParallel(int64_t n) {
  ThreadPool pool(4);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  ParallelFor(0, n, 1000, [](int64_t lo, int64_t hi) {
    ChargeScoped(CounterId::kBytesMaterialized, hi - lo);
  });
  SetCurrentThreadPool(prev);
}

TEST(MetricsScopeTest, PoolMorselsChargeTheCallersScope) {
  Metrics metrics;
  {
    MetricsScope scope(&metrics);
    ChargeRowsInParallel(100000);
  }
  // Every morsel counted once, wherever it ran.
  EXPECT_EQ(metrics.Get(CounterId::kBytesMaterialized), 100000);
}

TEST(MetricsScopeTest, NestedScopeRestoresItsOuterScope) {
  Metrics outer, inner;
  MetricsScope outer_scope(&outer);
  EXPECT_EQ(MetricsScope::Current(), &outer);
  {
    MetricsScope inner_scope(&inner);
    EXPECT_EQ(MetricsScope::Current(), &inner);
    ChargeRowsInParallel(5000);
  }
  EXPECT_EQ(MetricsScope::Current(), &outer);
  ChargeScoped(CounterId::kBytesMaterialized, 7);
  EXPECT_EQ(inner.Get(CounterId::kBytesMaterialized), 5000);
  EXPECT_EQ(outer.Get(CounterId::kBytesMaterialized), 7);
}

TEST(MetricsScopeTest, NothingIsCountedOutsideAnyScope) {
  ASSERT_EQ(MetricsScope::Current(), nullptr);
  Metrics metrics;
  ChargeRowsInParallel(5000);  // no scope: dropped
  {
    MetricsScope scope(&metrics);
  }
  ChargeScoped(CounterId::kBytesMaterialized, 1);
  EXPECT_EQ(metrics.Get(CounterId::kBytesMaterialized), 0);
}

TEST(MetricsScopeTest, ScopedChargesRollUpToTheParent) {
  Metrics cluster;
  Metrics a(&cluster), b(&cluster);
  {
    MetricsScope scope(&a);
    ChargeRowsInParallel(3000);
  }
  {
    MetricsScope scope(&b);
    ChargeRowsInParallel(2000);
  }
  EXPECT_EQ(a.Get(CounterId::kBytesMaterialized), 3000);
  EXPECT_EQ(b.Get(CounterId::kBytesMaterialized), 2000);
  EXPECT_EQ(cluster.Get(CounterId::kBytesMaterialized), 5000);
  // A direct Add stays on the instance it names.
  a.Add(CounterId::kSubtasksExecuted);
  EXPECT_EQ(cluster.Get(CounterId::kSubtasksExecuted), 0);
}

// ---------------------------------------------------------------------------
// Determinism: byte-identical results at any thread count
// ---------------------------------------------------------------------------

/// Deterministic mixed-type test frame (LCG; no global RNG state).
DataFrame MakeFrame(int64_t n) {
  std::vector<int64_t> k1(n), ival(n);
  std::vector<double> dval(n);
  std::vector<std::string> k2(n);
  std::vector<uint8_t> validity(n, 1);
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int64_t i = 0; i < n; ++i) {
    k1[i] = static_cast<int64_t>(next() % 97);
    k2[i] = "g" + std::to_string(next() % 13);
    ival[i] = static_cast<int64_t>(next() % 1000) - 500;
    dval[i] = static_cast<double>(next() % 100000) / 7.0;
    if (next() % 50 == 0) validity[i] = 0;
  }
  DataFrame df;
  EXPECT_TRUE(df.SetColumn("k1", Column::Int64(std::move(k1))).ok());
  EXPECT_TRUE(df.SetColumn("k2", Column::String(std::move(k2))).ok());
  EXPECT_TRUE(df.SetColumn("i", Column::Int64(std::move(ival))).ok());
  EXPECT_TRUE(
      df.SetColumn("d", Column::Float64(std::move(dval), std::move(validity)))
          .ok());
  return df;
}

/// Runs `fn` with no pool and with pools of 1, 2 and 8 threads; all four
/// fingerprints must match exactly.
template <typename Fn>
void ExpectIdenticalAcrossThreadCounts(const Fn& fn) {
  ThreadPool* prev = SetCurrentThreadPool(nullptr);
  const std::string serial = fn();
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    SetCurrentThreadPool(&pool);
    EXPECT_EQ(fn(), serial) << "threads=" << threads;
    SetCurrentThreadPool(nullptr);
  }
  SetCurrentThreadPool(prev);
}

TEST(ParallelDeterminismTest, GroupByAggByteIdentical) {
  const DataFrame df = MakeFrame(40000);
  const std::vector<AggSpec> specs = {
      {"i", AggFunc::kSum, "i_sum"},     {"d", AggFunc::kSum, "d_sum"},
      {"d", AggFunc::kMean, "d_mean"},   {"d", AggFunc::kVar, "d_var"},
      {"d", AggFunc::kMin, "d_min"},     {"i", AggFunc::kMax, "i_max"},
      {"i", AggFunc::kFirst, "i_first"}, {"i", AggFunc::kLast, "i_last"},
      {"", AggFunc::kSize, "n"},         {"d", AggFunc::kCount, "d_cnt"},
  };
  ExpectIdenticalAcrossThreadCounts([&] {
    auto r = GroupByAgg(df, {"k1", "k2"}, specs, /*sort_keys=*/true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return Fingerprint(*r);
  });
}

TEST(ParallelDeterminismTest, MergeByteIdentical) {
  const DataFrame left = MakeFrame(20000);
  DataFrame right = MakeFrame(3000);
  for (JoinType how :
       {JoinType::kInner, JoinType::kLeft, JoinType::kOuter}) {
    MergeOptions opt;
    opt.on = {"k1"};
    opt.how = how;
    ExpectIdenticalAcrossThreadCounts([&] {
      auto r = Merge(left, right, opt);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      return Fingerprint(*r);
    });
  }
}

TEST(ParallelDeterminismTest, SortValuesByteIdentical) {
  const DataFrame df = MakeFrame(50000);
  ExpectIdenticalAcrossThreadCounts([&] {
    auto r = SortValues(df, {"k1", "d"}, {true, false});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return Fingerprint(*r);
  });
}

TEST(ParallelDeterminismTest, SortByteIdenticalAcrossEncodingsAndRadix) {
  // String keys through both string paths (dictionary rank vs in-place
  // compare), mixed with the radix-sorted fixed-width keys; frame sizes on
  // either side of the radix cutoff. Nulls sit in the float key.
  for (int64_t n : {900, 50000}) {
    const DataFrame plain = MakeFrame(n);
    DataFrame dict = plain;
    ASSERT_TRUE(
        dict.SetColumn("k2", plain.GetColumn("k2").ValueOrDie()->DictEncode())
            .ok());
    for (const auto& [by, asc] :
         std::vector<std::pair<std::vector<std::string>, std::vector<bool>>>{
             {{"k2", "d"}, {true, false}},
             {{"d", "k2", "k1"}, {false, true, true}},
             {{"k1", "i"}, {false, true}}}) {
      std::string reference;
      ExpectIdenticalAcrossThreadCounts([&] {
        auto r = SortValues(plain, by, asc);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        reference = Fingerprint(*r);
        return reference;
      });
      ExpectIdenticalAcrossThreadCounts([&] {
        auto r = SortValues(dict, by, asc);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        const std::string fp = Fingerprint(*r);
        EXPECT_EQ(fp, reference) << "dictionary vs plain, n=" << n;
        return fp;
      });
    }
  }
}

TEST(ParallelDeterminismTest, SortIsStable) {
  // Many duplicate keys: equal rows must keep their original order.
  const int64_t n = 30000;
  std::vector<int64_t> key(n), seq(n);
  uint64_t state = 7;
  for (int64_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    key[i] = static_cast<int64_t>(state >> 33) % 5;
    seq[i] = i;
  }
  DataFrame df;
  ASSERT_TRUE(df.SetColumn("k", Column::Int64(std::move(key))).ok());
  ASSERT_TRUE(df.SetColumn("seq", Column::Int64(std::move(seq))).ok());
  ThreadPool pool(8);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  auto r = SortValues(df, {"k"}, {true});
  ASSERT_TRUE(r.ok());
  const auto& k = r->GetColumn("k").ValueOrDie()->int64_data();
  const auto& s = r->GetColumn("seq").ValueOrDie()->int64_data();
  for (int64_t i = 1; i < n; ++i) {
    ASSERT_LE(k[i - 1], k[i]);
    if (k[i - 1] == k[i]) {
      ASSERT_LT(s[i - 1], s[i]) << "unstable at " << i;
    }
  }
  SetCurrentThreadPool(prev);
}

TEST(ParallelDeterminismTest, TensorKernelsByteIdentical) {
  const int64_t m = 120, k = 80, n = 96;
  std::vector<double> av(m * k), bv(k * n);
  uint64_t state = 11;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) / 1000.0 - 8.0;
  };
  for (auto& v : av) v = next();
  for (auto& v : bv) v = next();
  const tensor::NDArray a =
      tensor::NDArray::Make(av, {m, k}).ValueOrDie();
  const tensor::NDArray b =
      tensor::NDArray::Make(bv, {k, n}).ValueOrDie();

  auto fingerprint = [&] {
    auto prod = tensor::MatMul(a, b).ValueOrDie();
    const double s = tensor::SumAll(prod);
    const double nr = tensor::Norm(prod);
    std::string out(reinterpret_cast<const char*>(prod.data().data()),
                    prod.data().size() * sizeof(double));
    out.append(reinterpret_cast<const char*>(&s), sizeof(s));
    out.append(reinterpret_cast<const char*>(&nr), sizeof(nr));
    return out;
  };
  ExpectIdenticalAcrossThreadCounts(fingerprint);
}

}  // namespace
}  // namespace xorbits
