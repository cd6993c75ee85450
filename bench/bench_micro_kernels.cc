// google-benchmark microbenchmarks of the kernels that back the paper-level
// results: groupby aggregation, hash join, sort, fused vs. unfused
// elementwise evaluation, TSQR blocks, chunk serialization, the coloring
// algorithm, storage put/get, in-memory source fingerprints, and
// drop_duplicates.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/buffer.h"
#include "core/xorbits.h"
#include "io/xparquet.h"
#include "optimizer/pass.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "dataframe/groupby.h"
#include "dataframe/join.h"
#include "dataframe/kernels.h"
#include "graph/coloring.h"
#include "io/serialize.h"
#include "io/tpch_gen.h"
#include "operators/expr.h"
#include "operators/merge_op.h"
#include "services/storage_service.h"
#include "tensor/ndarray.h"
#include "workloads/pipelines.h"

namespace {

using namespace xorbits;  // NOLINT
using dataframe::AggFunc;
using dataframe::Column;
using dataframe::DataFrame;

DataFrame MakeFrame(int64_t n, int64_t cardinality) {
  Rng rng(7);
  std::vector<int64_t> k(n), v(n);
  std::vector<double> x(n);
  for (int64_t i = 0; i < n; ++i) {
    k[i] = rng.UniformInt(0, cardinality - 1);
    v[i] = i;
    x[i] = rng.Uniform();
  }
  return DataFrame::Make({"k", "v", "x"},
                         {Column::Int64(k), Column::Int64(v),
                          Column::Float64(x)})
      .MoveValue();
}

/// String-keyed variant of MakeFrame; `encoded` selects the dictionary
/// representation of the key column (values identical either way).
DataFrame MakeStringFrame(int64_t n, int64_t cardinality, bool encoded) {
  Rng rng(11);
  std::vector<std::string> k(n);
  std::vector<int64_t> v(n);
  std::vector<double> x(n);
  for (int64_t i = 0; i < n; ++i) {
    k[i] = "key_" + std::to_string(rng.UniformInt(0, cardinality - 1));
    v[i] = i;
    x[i] = rng.Uniform();
  }
  Column kc = Column::String(std::move(k));
  if (encoded) kc = kc.DictEncode();
  return DataFrame::Make({"k", "v", "x"},
                         {std::move(kc), Column::Int64(std::move(v)),
                          Column::Float64(std::move(x))})
      .MoveValue();
}

void BM_GroupByAgg(benchmark::State& state) {
  DataFrame df = MakeFrame(state.range(0), state.range(1));
  for (auto _ : state) {
    auto r = dataframe::GroupByAgg(df, {"k"},
                                   {{"v", AggFunc::kSum, "s"},
                                    {"x", AggFunc::kMean, "m"}});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByAgg)->Args({100000, 100})->Args({100000, 50000});

void BM_HashJoin(benchmark::State& state) {
  DataFrame left = MakeFrame(state.range(0), 1000);
  DataFrame right = MakeFrame(1000, 1000);
  dataframe::MergeOptions opts;
  opts.on = {"k"};
  for (auto _ : state) {
    auto r = dataframe::Merge(left, right, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(100000);

void BM_SortValues(benchmark::State& state) {
  DataFrame df = MakeFrame(state.range(0), 10000);
  for (auto _ : state) {
    auto r = dataframe::SortValues(df, {"k", "v"});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortValues)->Arg(100000);

void BM_EvalFused(benchmark::State& state) {
  using namespace operators;  // NOLINT
  DataFrame df = MakeFrame(state.range(0), 1000);
  // (x * 2 + 1) compared in one pass — the fused elementwise kernel.
  ExprPtr expr = CompareExpr(
      BinaryExpr(BinaryExpr(Col("x"), dataframe::BinOp::kMul, Lit(2.0)),
                 dataframe::BinOp::kAdd, Lit(1.0)),
      dataframe::CmpOp::kGt, Lit(1.7));
  for (auto _ : state) {
    auto r = EvalExpr(df, *expr);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvalFused)->Arg(100000);

void BM_EvalUnfused(benchmark::State& state) {
  // Same computation with materialized intermediates (what operator-level
  // fusion removes).
  DataFrame df = MakeFrame(state.range(0), 1000);
  for (auto _ : state) {
    auto t1 = dataframe::BinaryOpScalar(*df.GetColumn("x").ValueOrDie(),
                                        dataframe::Scalar::Float(2.0),
                                        dataframe::BinOp::kMul);
    auto t2 = dataframe::BinaryOpScalar(*t1, dataframe::Scalar::Float(1.0),
                                        dataframe::BinOp::kAdd);
    auto r = dataframe::CompareScalar(*t2, dataframe::Scalar::Float(1.7),
                                      dataframe::CmpOp::kGt);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvalUnfused)->Arg(100000);

void BM_QRBlock(benchmark::State& state) {
  Rng rng(3);
  tensor::NDArray a =
      tensor::NDArray::RandomNormal({state.range(0), 32}, rng);
  for (auto _ : state) {
    tensor::NDArray q, r;
    auto st = tensor::QRDecompose(a, &q, &r);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QRBlock)->Arg(4096);

void BM_SerializeChunk(benchmark::State& state) {
  auto chunk = services::MakeChunk(MakeFrame(state.range(0), 1000));
  for (auto _ : state) {
    auto buf = services::SerializeChunk(*chunk);
    auto back = services::DeserializeChunk(*buf);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * chunk->nbytes());
}
BENCHMARK(BM_SerializeChunk)->Arg(50000);

void BM_ColoringFusion(benchmark::State& state) {
  // Layered DAG: w nodes per layer, each feeding the next layer.
  const int layers = 20, width = static_cast<int>(state.range(0));
  std::vector<std::vector<int>> succ(layers * width);
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      succ[l * width + i].push_back((l + 1) * width + i);
    }
  }
  for (auto _ : state) {
    auto colors = graph::ColorForFusion(succ);
    benchmark::DoNotOptimize(colors);
  }
  state.SetItemsProcessed(state.iterations() * layers * width);
}
BENCHMARK(BM_ColoringFusion)->Arg(64);

void BM_StoragePutGet(benchmark::State& state) {
  Config config;
  config.num_workers = 1;
  config.bands_per_worker = 2;
  config.band_memory_limit = 1LL << 30;
  Metrics metrics;
  services::StorageService store(config, &metrics);
  auto chunk = services::MakeChunk(MakeFrame(10000, 100));
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = "k" + std::to_string(i++);
    benchmark::DoNotOptimize(store.Put(key, chunk, 0));
    benchmark::DoNotOptimize(store.Get(key, 1));
    benchmark::DoNotOptimize(store.Delete(key));
  }
}
BENCHMARK(BM_StoragePutGet);

void BM_TpchGen(benchmark::State& state) {
  for (auto _ : state) {
    auto t = io::tpch::Generate(0.001);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_TpchGen);

// ---------------------------------------------------------------------------
// Thread-count sweep: morsel-driven kernels at 1/2/4/8 pool threads.
//
// The container may expose a single core, so wall time cannot show the
// speedup; instead each run measures kernel CPU split into a serial share
// (band thread outside morsels) and a parallel share (all morsel CPU), and
// models time as serial + parallel/threads — exactly how the executor folds
// pool work into simulated_us. Output checksums prove the morsel
// decomposition is byte-identical at every thread count.
// ---------------------------------------------------------------------------

std::string FingerprintFrame(const DataFrame& df) {
  std::string out;
  for (int ci = 0; ci < df.num_columns(); ++ci) {
    out += df.column_name(ci);
    const Column& c = df.column(ci);
    for (int64_t i = 0; i < c.length(); ++i) {
      out += c.IsValid(i) ? 'v' : 'n';
      if (c.IsValid(i)) c.AppendKeyBytes(i, &out);
    }
  }
  return out;
}

struct SweepSample {
  int threads = 1;
  double wall_s = 0;
  int64_t serial_cpu_us = 0;
  int64_t par_cpu_us = 0;
  double modeled_us = 0;
  size_t checksum = 0;
};

/// Runs `run` under a pool of `threads` and measures the cost split the
/// executor's model uses. Three reps; keeps the lowest-modeled-time rep.
/// `fingerprint` hashes the last result outside the measured window so the
/// (serial) verification pass does not pollute the kernel's cost split.
SweepSample MeasureKernel(int threads, const std::function<void()>& run,
                          const std::function<std::string()>& fingerprint) {
  ThreadPool pool(threads);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  SweepSample best;
  best.threads = threads;
  // Untimed warmup: the first run after a frame is built pays allocator
  // growth and page-fault costs that belong to the process, not the
  // kernel; without it the first thread count measured eats them all.
  run();
  for (int rep = 0; rep < 3; ++rep) {
    SweepSample s;
    s.threads = threads;
    ParallelCpuScope scope;
    const int64_t cpu0 = ThreadCpuMicros();
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const int64_t band_cpu = ThreadCpuMicros() - cpu0;
    s.wall_s = std::chrono::duration<double>(t1 - t0).count();
    s.par_cpu_us = scope.total_us();
    s.serial_cpu_us = band_cpu - scope.inline_us();
    if (s.serial_cpu_us < 0) s.serial_cpu_us = 0;
    s.modeled_us = static_cast<double>(s.serial_cpu_us) +
                   static_cast<double>(s.par_cpu_us) / threads;
    s.checksum = std::hash<std::string>{}(fingerprint());
    if (rep == 0 || s.modeled_us < best.modeled_us) {
      const size_t keep = best.checksum;
      best = s;
      if (rep > 0 && keep != s.checksum) {
        std::fprintf(stderr, "checksum drift within thread count!\n");
      }
    }
  }
  SetCurrentThreadPool(prev);
  return best;
}

struct KernelSpec {
  const char* name;
  int64_t rows;
  std::function<void()> run;
  std::function<std::string()> fingerprint;
  /// Optional serial reference over plain (un-encoded) inputs; when set,
  /// the sweep also asserts every checksum matches it — dictionary
  /// encoding must be invisible in the output bytes.
  std::function<std::string()> plain_run;
};

// ---------------------------------------------------------------------------
// Buffer-sharing section: for slice / concat / shuffle-partition, build the
// derived chunks once eagerly (value data copied, the pre-CoW behaviour)
// and once through the shared-buffer paths, store base + derived chunks in
// a StorageService band, and report the band's resident bytes in each mode
// plus the wall time of the derivation itself. The gap is exactly what the
// copy-on-write payload layer saves at peak.
// ---------------------------------------------------------------------------

services::ChunkDataPtr WrapColumn(Column col) {
  return services::MakeChunk(
      DataFrame::Make({"v"}, {std::move(col)}).MoveValue());
}

int64_t PeakBandBytes(const std::vector<services::ChunkDataPtr>& chunks) {
  Config config;
  config.num_workers = 1;
  config.bands_per_worker = 1;
  config.band_memory_limit = 8LL << 30;
  Metrics metrics;
  services::StorageService store(config, &metrics);
  for (size_t i = 0; i < chunks.size(); ++i) {
    auto st = store.Put("c" + std::to_string(i), chunks[i], 0);
    if (!st.ok()) std::fprintf(stderr, "sharing bench put failed\n");
  }
  return store.band_used_bytes(0);
}

struct SharingSample {
  const char* op;
  int64_t rows = 0;
  int partitions = 0;
  int64_t peak_eager = 0;
  int64_t peak_shared = 0;
  int64_t bytes_shared = 0;  // buffer_bytes_shared of the shared build
  double wall_us_eager = 0;
  double wall_us_shared = 0;
};

/// Times `build(share)` and stores its chunks; `share` selects the view
/// path vs. the eager-copy path over an identical fresh base column.
SharingSample MeasureSharing(
    const char* op, int64_t rows, int partitions,
    const std::function<std::vector<services::ChunkDataPtr>(bool)>& build) {
  SharingSample s;
  s.op = op;
  s.rows = rows;
  s.partitions = partitions;
  for (bool share : {false, true}) {
    Metrics metrics;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<services::ChunkDataPtr> chunks;
    {
      MetricsScope scope(&metrics);
      chunks = build(share);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    const int64_t peak = PeakBandBytes(chunks);
    if (share) {
      s.wall_us_shared = us;
      s.peak_shared = peak;
      s.bytes_shared = metrics.Get(CounterId::kBufferBytesShared);
    } else {
      s.wall_us_eager = us;
      s.peak_eager = peak;
    }
  }
  return s;
}

void WriteSharingJson(FILE* f) {
  const int64_t n = 1 << 20;  // 8 MiB of int64 payload per base column
  const int parts = 8;
  std::vector<int64_t> values(n);
  for (int64_t i = 0; i < n; ++i) values[i] = i * 3 + 1;

  const auto slice_build = [&](bool share) {
    Column base = Column::Int64(values);
    std::vector<services::ChunkDataPtr> out;
    for (int p = 0; p < parts; ++p) {
      const int64_t lo = p * (n / parts);
      Column piece =
          share ? base.Slice(lo, n / parts)
                : Column::Int64(std::vector<int64_t>(
                      values.begin() + lo, values.begin() + lo + n / parts));
      out.push_back(WrapColumn(std::move(piece)));
    }
    out.push_back(WrapColumn(std::move(base)));
    return out;
  };

  const auto concat_build = [&](bool share) {
    Column base = Column::Int64(values);
    Column left = share ? base.Slice(0, n / 2)
                        : Column::Int64(std::vector<int64_t>(
                              values.begin(), values.begin() + n / 2));
    Column right = share ? base.Slice(n / 2, n / 2)
                         : Column::Int64(std::vector<int64_t>(
                               values.begin() + n / 2, values.end()));
    Column joined = Column::Concat({&left, &right}).ValueOrDie();
    std::vector<services::ChunkDataPtr> out;
    out.push_back(WrapColumn(std::move(base)));
    out.push_back(WrapColumn(std::move(joined)));
    return out;
  };

  // Range-partition shuffle: each mapper output is a contiguous index run
  // of the sorted input, the shape `Take` turns into an O(1) window.
  const auto shuffle_build = [&](bool share) {
    Column base = Column::Int64(values);
    std::vector<services::ChunkDataPtr> out;
    for (int p = 0; p < parts; ++p) {
      const int64_t lo = p * (n / parts);
      Column piece;
      if (share) {
        std::vector<int64_t> idx(n / parts);
        for (int64_t i = 0; i < n / parts; ++i) idx[i] = lo + i;
        piece = base.Take(idx);
      } else {
        piece = Column::Int64(std::vector<int64_t>(
            values.begin() + lo, values.begin() + lo + n / parts));
      }
      out.push_back(WrapColumn(std::move(piece)));
    }
    out.push_back(WrapColumn(std::move(base)));
    return out;
  };

  const SharingSample samples[] = {
      MeasureSharing("slice", n, parts, slice_build),
      MeasureSharing("concat", n, 2, concat_build),
      MeasureSharing("shuffle_partition", n, parts, shuffle_build),
  };

  std::fprintf(f, "  \"sharing\": [\n");
  for (size_t i = 0; i < std::size(samples); ++i) {
    const SharingSample& s = samples[i];
    const double ratio =
        s.peak_eager > 0
            ? static_cast<double>(s.peak_shared) / s.peak_eager
            : 0.0;
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"rows\": %" PRId64
                 ", \"partitions\": %d, \"peak_band_bytes_eager\": %" PRId64
                 ", \"peak_band_bytes_shared\": %" PRId64
                 ", \"shared_over_eager\": %.3f, \"bytes_shared\": %" PRId64
                 ", \"wall_us_eager\": %.1f, \"wall_us_shared\": %.1f}%s\n",
                 s.op, s.rows, s.partitions, s.peak_eager, s.peak_shared,
                 ratio, s.bytes_shared, s.wall_us_eager, s.wall_us_shared,
                 i + 1 < std::size(samples) ? "," : "");
    std::printf("sharing %s: peak %" PRId64 " -> %" PRId64
                " bytes (%.2fx), derive %.0fus -> %.0fus\n",
                s.op, s.peak_eager, s.peak_shared, ratio, s.wall_us_eager,
                s.wall_us_shared);
  }
  std::fprintf(f, "  ],\n");
}

// ---------------------------------------------------------------------------
// Optimizer section: a TPC-H Q4-shaped pipeline (orders narrowly filtered
// by a date range over date-clustered chunks, aggregated per priority from
// two identical reads, merged) run under three pipeline specs. The deltas
// isolate what each new pass buys: CSE collapses the duplicate source scan
// (fewer executed subtasks), predicate pushdown turns the date filter into
// two-phase reads that skip payload columns of all-miss chunks (fewer
// source bytes read). Results are byte-identical across modes.
// ---------------------------------------------------------------------------

struct OptimizerSample {
  const char* mode;
  int64_t subtasks = 0;
  int64_t source_bytes = 0;
  int64_t cse_hits = 0;
  int64_t predicates_pushed = 0;
  std::string checksum;
};

void WriteOptimizerJson(FILE* f) {
  const int64_t n = 40000;
  const std::string path = "/tmp/xorbits_bench_optimizer.xpq";
  std::vector<int64_t> key(n), date(n), prio(n);
  std::vector<double> price(n);
  Rng rng(29);
  for (int64_t i = 0; i < n; ++i) {
    key[i] = i;
    // Dates ascend with the row id, as in a freshly loaded orders table:
    // a narrow range predicate misses every chunk but the last few.
    date[i] = 8000 + i / 20;
    prio[i] = rng.UniformInt(1, 5);
    price[i] = 1000.0 + rng.Uniform() * 99000.0;
  }
  DataFrame orders =
      DataFrame::Make({"o_orderkey", "o_orderdate", "o_priority",
                       "o_totalprice"},
                      {Column::Int64(key), Column::Int64(date),
                       Column::Int64(prio), Column::Float64(price)})
          .MoveValue();
  if (!io::WriteXpq(path, orders).ok()) {
    std::fprintf(stderr, "optimizer bench: cannot write %s\n", path.c_str());
    return;
  }

  using dataframe::CmpOp;
  using operators::Col;
  using operators::Lit;
  const auto in_window = [] {
    return operators::AndExpr(
        operators::CompareExpr(Col("o_orderdate"), CmpOp::kGe,
                               Lit(int64_t{9900})),
        operators::CompareExpr(Col("o_orderdate"), CmpOp::kLt,
                               Lit(int64_t{9950})));
  };
  const auto run = [&](const char* mode, Config cfg) {
    core::Session session(std::move(cfg));
    // Two branches hand-written against separate reads of the same table —
    // the duplicate scan CSE exists to collapse. Both prune to the same
    // columns so the chunk-level reads are semantically identical.
    auto build = [&](dataframe::AggFunc fn, const char* out) {
      auto r = ReadParquet(&session, path);
      auto fil = r->Filter(in_window());
      return fil->GroupByAgg({"o_priority"}, {{"o_totalprice", fn, out}});
    };
    auto g1 = build(AggFunc::kSum, "revenue");
    auto g2 = build(AggFunc::kMax, "top_order");
    dataframe::MergeOptions on;
    on.on = {"o_priority"};
    auto joined = g1->Merge(*g2, on);
    auto sorted = joined->SortValues({"o_priority"});
    DataFrame out = sorted->Fetch().ValueOrDie();
    OptimizerSample s;
    s.mode = mode;
    s.subtasks = session.metrics().Get(CounterId::kSubtasksExecuted);
    s.source_bytes = session.metrics().Get(CounterId::kSourceBytesRead);
    s.cse_hits = session.metrics().Get(CounterId::kCseHits);
    s.predicates_pushed = session.metrics().Get(CounterId::kPredicatesPushed);
    s.checksum = FingerprintFrame(out);
    return s;
  };

  Config full;
  Config no_cse;
  no_cse.optimizer.chunk = {optimizer::kPassOpFusion};
  Config no_pushdown;
  no_pushdown.optimizer.tileable = {optimizer::kPassColumnPruning,
                                    optimizer::kPassDeadNodeElim};
  const OptimizerSample samples[] = {
      run("full", std::move(full)),
      run("no_cse", std::move(no_cse)),
      run("no_pushdown", std::move(no_pushdown)),
  };

  std::fprintf(f, "  \"optimizer\": [\n");
  for (size_t i = 0; i < std::size(samples); ++i) {
    const OptimizerSample& s = samples[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"subtasks_executed\": %" PRId64
                 ", \"source_bytes_read\": %" PRId64
                 ", \"cse_hits\": %" PRId64
                 ", \"predicates_pushed\": %" PRId64
                 ", \"identical_output\": %s}%s\n",
                 s.mode, s.subtasks, s.source_bytes, s.cse_hits,
                 s.predicates_pushed,
                 s.checksum == samples[0].checksum ? "true" : "false",
                 i + 1 < std::size(samples) ? "," : "");
    std::printf("optimizer %-12s subtasks=%" PRId64 " source_bytes=%" PRId64
                " cse_hits=%" PRId64 " pushed=%" PRId64 "\n",
                s.mode, s.subtasks, s.source_bytes, s.cse_hits,
                s.predicates_pushed);
  }
  std::fprintf(f, "  ]\n");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Selectivity sweep (DESIGN.md §10): the same scan+filter run eagerly
// (decode everything, compact at the filter) and late (lazy column thunks +
// selection vector, forced only by the final consumer), at selectivities
// from 0.1% to 100%. `bytes_materialized` deltas around each run show what
// late materialization skips: at 1% the late path should turn fewer than a
// quarter of the eager bytes dense (predicate column + selected rows vs.
// every column plus the compacted output). Outputs must be byte-identical.
// ---------------------------------------------------------------------------

struct SelectivitySample {
  double selectivity = 0;
  int64_t rows_kept = 0;
  int64_t eager_bytes = 0;
  int64_t late_bytes = 0;
  int64_t lazy_decodes = 0;
  bool identical = false;
};

/// One dataset: file at `path`, predicate `pred_col < max_value * s`.
/// Appends a JSON object for the dataset; returns false when any output
/// differs or the 1%-selectivity byte gate fails.
bool SweepSelectivity(FILE* f, const char* dataset, const std::string& path,
                      const std::string& pred_col, int64_t pred_max,
                      bool last) {
  using dataframe::CmpOp;
  const double selectivities[] = {0.001, 0.01, 0.1, 0.5, 1.0};
  std::vector<SelectivitySample> samples;
  bool ok = true;
  for (double sel : selectivities) {
    const int64_t threshold =
        sel >= 1.0 ? pred_max + 1
                   : static_cast<int64_t>(static_cast<double>(pred_max) * sel);
    const auto pred = operators::CompareExpr(
        operators::Col(pred_col), CmpOp::kLt, operators::Lit(threshold));

    SelectivitySample s;
    s.selectivity = sel;

    // Eager: decode every column at scan time, compact at the filter.
    Metrics eager;
    DataFrame eager_out;
    {
      MetricsScope scope(&eager);
      DataFrame eager_df = io::ReadXpq(path).ValueOrDie();
      Column eager_mask = operators::EvalExpr(eager_df, *pred).ValueOrDie();
      eager_out = dataframe::Filter(eager_df, eager_mask).ValueOrDie();
    }
    s.eager_bytes = eager.Get(CounterId::kBytesMaterialized);

    // Late: footer-only read, predicate column decodes to build the mask,
    // everything else resolves through the selection when the consumer
    // (the fingerprint, standing in for fetch/serialize) reads it.
    Metrics late;
    std::string late_fp;
    {
      MetricsScope scope(&late);
      DataFrame late_df = io::ReadXpqLazy(path).ValueOrDie();
      Column late_mask = operators::EvalExpr(late_df, *pred).ValueOrDie();
      DataFrame late_out =
          dataframe::FilterLate(late_df, late_mask).ValueOrDie();
      late_fp = FingerprintFrame(late_out);
    }
    s.late_bytes = late.Get(CounterId::kBytesMaterialized);
    s.lazy_decodes = late.Get(CounterId::kLazyColumnsDecoded);

    s.rows_kept = eager_out.num_rows();
    s.identical = late_fp == FingerprintFrame(eager_out);
    if (!s.identical) {
      std::fprintf(stderr, "selectivity %s@%.3f: eager/late outputs differ!\n",
                   dataset, sel);
      ok = false;
    }
    if (sel == 0.01 && s.late_bytes > s.eager_bytes / 4) {
      std::fprintf(stderr,
                   "selectivity %s@0.01: late bytes %" PRId64
                   " exceed 0.25x of eager %" PRId64 "\n",
                   dataset, s.late_bytes, s.eager_bytes);
      ok = false;
    }
    samples.push_back(s);
  }

  std::fprintf(f, "    {\"dataset\": \"%s\", \"sweep\": [\n", dataset);
  for (size_t i = 0; i < samples.size(); ++i) {
    const SelectivitySample& s = samples[i];
    const double ratio =
        s.eager_bytes > 0
            ? static_cast<double>(s.late_bytes) / s.eager_bytes
            : 0.0;
    std::fprintf(f,
                 "      {\"selectivity\": %.3f, \"rows_kept\": %" PRId64
                 ", \"bytes_materialized_eager\": %" PRId64
                 ", \"bytes_materialized_late\": %" PRId64
                 ", \"late_over_eager\": %.3f, \"lazy_columns_decoded\": "
                 "%" PRId64 ", \"identical_output\": %s}%s\n",
                 s.selectivity, s.rows_kept, s.eager_bytes, s.late_bytes,
                 ratio, s.lazy_decodes, s.identical ? "true" : "false",
                 i + 1 < samples.size() ? "," : "");
    std::printf("selectivity %-14s s=%.3f eager=%" PRId64 " late=%" PRId64
                " (%.3fx) identical=%s\n",
                dataset, s.selectivity, s.eager_bytes, s.late_bytes, ratio,
                s.identical ? "yes" : "NO");
  }
  std::fprintf(f, "    ]}%s\n", last ? "" : ",");
  return ok;
}

/// Census-shaped table: ten mixed-dtype columns with a uniform 0..n-1 id
/// the sweep predicates on (exact selectivities).
DataFrame MakeCensusFrame(int64_t n) {
  Rng rng(23);
  std::vector<int64_t> id(n), age(n), edu(n), marital(n), occ(n);
  std::vector<double> income(n), hours(n), weight(n);
  std::vector<std::string> name(n), city(n);
  for (int64_t i = 0; i < n; ++i) {
    id[i] = i;
    age[i] = rng.UniformInt(16, 95);
    edu[i] = rng.UniformInt(0, 16);
    marital[i] = rng.UniformInt(0, 6);
    occ[i] = rng.UniformInt(0, 500);
    income[i] = rng.Uniform() * 200000.0;
    hours[i] = 10.0 + rng.Uniform() * 60.0;
    weight[i] = rng.Uniform();
    name[i] = "person_" + std::to_string(rng.UniformInt(0, 99999));
    city[i] = "city_" + std::to_string(rng.UniformInt(0, 499));
  }
  return DataFrame::Make(
             {"id", "age", "edu", "marital", "occ", "income", "hours",
              "weight", "name", "city"},
             {Column::Int64(id), Column::Int64(age), Column::Int64(edu),
              Column::Int64(marital), Column::Int64(occ),
              Column::Float64(income), Column::Float64(hours),
              Column::Float64(weight), Column::String(name),
              Column::String(city)})
      .MoveValue();
}

/// Writes the `selectivity` JSON section (census + TPC-H lineitem files in
/// /tmp); returns false when any gate fails.
bool WriteSelectivityJson(FILE* f, int64_t rows) {
  std::fprintf(f, "  \"selectivity\": [\n");
  bool ok = true;

  const std::string census_path = "/tmp/xorbits_bench_census.xpq";
  DataFrame census = MakeCensusFrame(rows);
  if (io::WriteXpq(census_path, census).ok()) {
    ok = SweepSelectivity(f, "census", census_path, "id", rows,
                          /*last=*/false) &&
         ok;
    std::remove(census_path.c_str());
  } else {
    std::fprintf(stderr, "selectivity bench: cannot write census file\n");
    ok = false;
  }

  const std::string tpch_path = "/tmp/xorbits_bench_lineitem.xpq";
  const double scale = rows >= 100000 ? 0.01 : 0.002;
  auto tables = io::tpch::Generate(scale);
  if (tables.ok()) {
    const DataFrame& lineitem = tables->lineitem;
    int64_t max_key = 0;
    const Column& okey = *lineitem.GetColumn("l_orderkey").ValueOrDie();
    for (int64_t i = 0; i < okey.length(); ++i) {
      max_key = std::max(max_key, okey.int64_data()[i]);
    }
    if (io::WriteXpq(tpch_path, lineitem).ok()) {
      ok = SweepSelectivity(f, "tpch_lineitem", tpch_path, "l_orderkey",
                            max_key, /*last=*/true) &&
           ok;
      std::remove(tpch_path.c_str());
    } else {
      std::fprintf(stderr, "selectivity bench: cannot write lineitem file\n");
      ok = false;
    }
  } else {
    std::fprintf(stderr, "selectivity bench: tpch generation failed\n");
    ok = false;
  }
  std::fprintf(f, "  ],\n");
  return ok;
}

// ---------------------------------------------------------------------------
// Pipelined block exchange (DESIGN.md §11): OOM frontier at a fixed band
// budget, wire-vs-memory compression on dict-encoded TPC-H lineitem keys,
// and checksum identity against a single-band reference.
// ---------------------------------------------------------------------------

/// TPC-H lineitem key columns — int64 l_orderkey plus the dict-encoded
/// l_returnflag / l_linestatus flags — the frame the CI compression gate is
/// defined on (the int64 key ships full-width; the codes pack to 1 byte).
DataFrame LineitemKeyFrame(int64_t rows) {
  const double scale = static_cast<double>(rows) / (1500000.0 * 4.0) * 1.1;
  auto tables = io::tpch::Generate(std::max(scale, 0.001));
  if (!tables.ok()) return DataFrame();
  DataFrame li = tables->lineitem.SliceRows(
      0, std::min(rows, tables->lineitem.num_rows()));
  DataFrame out;
  (void)out.SetColumn("l_orderkey",
                      *li.GetColumn("l_orderkey").ValueOrDie());
  (void)out.SetColumn("l_returnflag",
                      li.GetColumn("l_returnflag").ValueOrDie()->DictEncode());
  (void)out.SetColumn("l_linestatus",
                      li.GetColumn("l_linestatus").ValueOrDie()->DictEncode());
  return out;
}

struct ShuffleProbe {
  bool completed = false;
  bool oom = false;       // failed with the OOM class (the frontier signal)
  double wall_s = 0;
  int64_t wire = 0;       // serialized bytes pushed through the exchange
  int64_t mem = 0;        // logical bytes of the same blocks
  int64_t spilled = 0;    // blocks pushed to disk by flow control
  size_t checksum = 0;
};

/// The cluster whose OOM frontier the sweep measures: 4 bands whose budget
/// is fixed at `band_budget`, small chunks and small exchange blocks.
Config ShuffleClusterConfig(int64_t band_budget) {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  c.cpus_per_band = 2;
  c.band_memory_limit = band_budget;
  c.chunk_store_limit = 128LL << 10;
  c.shuffle_block_bytes = 32 << 10;
  c.task_deadline_ms = 120000;
  return c;
}

/// One full shuffle (global sort of the `rows` head of the key frame) on a
/// session built from `c`. A single-band kPandasLike `c` sorts in one chunk
/// and is the reference the cluster run must match.
ShuffleProbe RunShuffleProbe(const DataFrame& keys, int64_t rows,
                             const Config& c, const char* label) {
  // Materialize a tight copy of the head `rows`: a zero-copy slice would
  // keep the full generated buffers alive and be charged at their whole
  // size, OOMing every probe regardless of `rows`.
  DataFrame head;
  {
    auto enc = services::SerializeChunk(
        *services::MakeChunk(keys.SliceRows(0, rows)));
    if (!enc.ok()) return ShuffleProbe{};
    auto dec = services::DeserializeChunk(*enc);
    if (!dec.ok()) return ShuffleProbe{};
    head = (*dec)->dataframe();
  }

  ShuffleProbe p;
  const auto t0 = std::chrono::steady_clock::now();
  Status st;
  {
    core::Session session(c);
    auto df = FromPandas(&session, head);
    if (df.ok()) {
      auto sorted = df->SortValues({"l_returnflag", "l_orderkey"});
      if (sorted.ok()) {
        auto out = sorted->Fetch();
        if (out.ok()) {
          p.completed = true;
          p.checksum = std::hash<std::string>{}(FingerprintFrame(*out));
        } else {
          st = out.status();
        }
      } else {
        st = sorted.status();
      }
    } else {
      st = df.status();
    }
    // The session charged its exchange counters to its own metrics.
    const Metrics& m = session.metrics();
    p.wire = m.Get(CounterId::kShuffleWireBytes);
    p.mem = m.Get(CounterId::kShuffleMemoryBytes);
    p.spilled = m.Get(CounterId::kShuffleBlocksSpilled);
  }
  p.oom = !p.completed && st.IsOutOfMemory();
  if (!p.completed && !p.oom) {
    std::fprintf(stderr, "shuffle probe rows=%" PRId64 " %s failed: %s\n",
                 rows, label, st.ToString().c_str());
  } else if (p.oom && std::getenv("XORBITS_SHUFFLE_DEBUG") != nullptr) {
    std::fprintf(stderr, "shuffle probe rows=%" PRId64 " %s OOM: %s\n", rows,
                 label, st.ToString().c_str());
  }
  p.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  return p;
}

/// Writes the `shuffle` JSON section: an SF sweep through the exchange at a
/// fixed band budget. Gates (returned as `ok`): every completed step's
/// output matches the single-band kPandasLike reference, and wire <= 0.7x
/// memory on the dict-keyed frame. `min_frontier_sf` > 0 additionally
/// requires the OOM frontier to reach that SF step.
bool WriteShuffleJson(FILE* f, int64_t base_rows, int64_t band_budget,
                      int64_t min_frontier_sf) {
  const std::vector<int64_t> sf = {1, 2, 3, 4, 6, 8};
  DataFrame keys = LineitemKeyFrame(base_rows * sf.back());
  if (keys.num_rows() < base_rows) {
    std::fprintf(stderr, "shuffle bench: lineitem generation failed\n");
    return false;
  }
  const Config cluster = ShuffleClusterConfig(band_budget);
  Config reference = Config::Preset(EngineKind::kPandasLike);
  reference.task_deadline_ms = cluster.task_deadline_ms;
  bool identical = true;
  bool wire_gate = true;
  int64_t frontier = 0;
  std::fprintf(f, "  \"shuffle\": {\n");
  std::fprintf(f,
               "    \"note\": \"global sort of dict-encoded lineitem keys; "
               "fixed band budget %" PRId64
               " bytes; frontier = largest row count that completes without "
               "OOM; identical = matches a single-band kPandasLike run\",\n",
               band_budget);
  std::fprintf(f, "    \"sweep\": [\n");
  for (size_t i = 0; i < sf.size(); ++i) {
    const int64_t rows = std::min(base_rows * sf[i], keys.num_rows());
    ShuffleProbe piped = RunShuffleProbe(keys, rows, cluster, "pipelined");
    bool same = true;
    if (piped.completed) {
      frontier = sf[i];
      ShuffleProbe ref = RunShuffleProbe(keys, rows, reference, "reference");
      same = ref.completed && ref.checksum == piped.checksum;
      if (!same) {
        std::fprintf(stderr,
                     "shuffle bench: output differs from the single-band "
                     "reference at rows=%" PRId64 "!\n",
                     rows);
        identical = false;
      }
    }
    if (piped.completed && piped.mem > 0 &&
        piped.wire > (piped.mem * 7) / 10) {
      std::fprintf(stderr,
                   "shuffle bench: wire %" PRId64 " > 0.7x memory %" PRId64
                   " at rows=%" PRId64 "!\n",
                   piped.wire, piped.mem, rows);
      wire_gate = false;
    }
    std::fprintf(
        f,
        "      {\"sf\": %" PRId64 ", \"rows\": %" PRId64
        ", \"pipelined\": {\"completed\": %s, \"oom\": %s, "
        "\"wall_s\": %.3f, \"shuffle_wire_bytes\": %" PRId64
        ", \"shuffle_memory_bytes\": %" PRId64
        ", \"wire_ratio\": %.3f, \"blocks_spilled\": %" PRId64
        "}, \"identical\": %s}%s\n",
        sf[i], rows, piped.completed ? "true" : "false",
        piped.oom ? "true" : "false", piped.wall_s, piped.wire, piped.mem,
        piped.mem > 0 ? static_cast<double>(piped.wire) /
                            static_cast<double>(piped.mem)
                      : 0.0,
        piped.spilled, same ? "true" : "false", i + 1 < sf.size() ? "," : "");
    std::printf("shuffle sf=%" PRId64 " pipelined=%s spilled=%" PRId64
                " identical=%s\n",
                sf[i], piped.completed ? "ok" : (piped.oom ? "OOM" : "fail"),
                piped.spilled, same ? "yes" : "NO");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"pipelined_oom_frontier_sf\": %" PRId64
               ", \"identical_outputs\": %s, \"wire_gate_0p7\": %s\n  },\n",
               frontier, identical ? "true" : "false",
               wire_gate ? "true" : "false");
  bool ok = identical && wire_gate;
  if (frontier < min_frontier_sf) {
    std::fprintf(stderr,
                 "shuffle bench: OOM frontier (SF %" PRId64
                 ") fell short of SF %" PRId64 "\n",
                 frontier, min_frontier_sf);
    ok = false;
  }
  return ok;
}

/// Returns true when every kernel produced byte-identical checksums at all
/// thread counts and (for the string-keyed kernels) across encodings.
// ---------------------------------------------------------------------------
// Broadcast join: one build side probed by many chunks, as the broadcast leg
// of a tiled merge runs it (DESIGN.md §7). `shared` runs MergeChunkOp, which
// builds one hash table per broadcast payload; `rebuild` calls Merge per
// chunk, which builds the table over the whole build side every time. Each
// rep starts from a fresh payload, so `shared` pays its one build inside
// the window. Both must give the same bytes.
// ---------------------------------------------------------------------------

struct BroadcastSample {
  std::vector<double> wall_ms;
  int64_t tables_built = 0;
  size_t checksum = 0;
};

bool WriteBroadcastJoinJson(FILE* f) {
  const int64_t kBuildRows = 75000;
  const int64_t kChunks = 32;
  const int64_t kChunkRows = 3000;
  const int kReps = 7;
  Rng rng(31);
  std::vector<int64_t> bk(kBuildRows), bv(kBuildRows);
  for (int64_t i = 0; i < kBuildRows; ++i) {
    bk[i] = i * 4;  // sparse keys: a hash table, not the direct map
    bv[i] = rng.UniformInt(0, 1000);
  }
  const DataFrame build =
      DataFrame::Make({"k", "w"}, {Column::Int64(bk), Column::Int64(bv)})
          .MoveValue();
  std::vector<DataFrame> probes;
  for (int64_t c = 0; c < kChunks; ++c) {
    std::vector<int64_t> k(kChunkRows), v(kChunkRows);
    for (int64_t i = 0; i < kChunkRows; ++i) {
      k[i] = rng.UniformInt(0, kBuildRows * 4 - 1);
      v[i] = c * kChunkRows + i;
    }
    probes.push_back(
        DataFrame::Make({"k", "v"}, {Column::Int64(k), Column::Int64(v)})
            .MoveValue());
  }
  dataframe::MergeOptions opts;
  opts.on = {"k"};
  const operators::MergeChunkOp op(opts);

  const auto measure = [&](bool shared) {
    BroadcastSample s;
    for (int rep = 0; rep <= kReps; ++rep) {  // rep 0 warms up
      Metrics metrics;
      MetricsScope scope(&metrics);
      std::string fingerprint;
      const services::ChunkDataPtr payload = services::MakeChunk(build);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<DataFrame> outs;
      for (const DataFrame& probe : probes) {
        if (shared) {
          operators::ExecutionContext ctx;
          ctx.inputs = {services::MakeChunk(probe), payload};
          ctx.outputs.resize(1);
          if (!op.Execute(ctx).ok()) return BroadcastSample{};
          outs.push_back(ctx.outputs[0]->dataframe());
        } else {
          outs.push_back(dataframe::Merge(probe, build, opts).ValueOrDie());
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      if (rep == 0) continue;
      s.wall_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      s.tables_built = metrics.Get(CounterId::kJoinTablesBuilt);
      for (const DataFrame& out : outs) fingerprint += FingerprintFrame(out);
      s.checksum = std::hash<std::string>{}(fingerprint);
    }
    std::sort(s.wall_ms.begin(), s.wall_ms.end());
    return s;
  };
  const BroadcastSample shared = measure(true);
  const BroadcastSample rebuild = measure(false);
  const bool ok = !shared.wall_ms.empty() && shared.tables_built == 1 &&
                  rebuild.tables_built == kChunks &&
                  shared.checksum == rebuild.checksum;
  const auto median = [](const BroadcastSample& s) {
    return s.wall_ms.empty() ? 0.0 : s.wall_ms[s.wall_ms.size() / 2];
  };
  const auto row = [&](const char* mode, const BroadcastSample& s) {
    const bool any = !s.wall_ms.empty();
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"wall_ms_median\": %.3f, "
                 "\"wall_ms_min\": %.3f, \"wall_ms_max\": %.3f, "
                 "\"tables_built\": %" PRId64 ", \"checksum\": \"%zx\"}",
                 mode, median(s), any ? s.wall_ms.front() : 0.0,
                 any ? s.wall_ms.back() : 0.0, s.tables_built, s.checksum);
  };
  std::fprintf(f,
               "  \"broadcast_join\": {\"build_rows\": %" PRId64
               ", \"probe_chunks\": %" PRId64 ", \"chunk_rows\": %" PRId64
               ", \"reps\": %d, \"host_cpus\": %d, \"identical\": %s, "
               "\"runs\": [\n",
               kBuildRows, kChunks, kChunkRows, kReps, CoreBudget(),
               shared.checksum == rebuild.checksum ? "true" : "false");
  row("shared", shared);
  std::fprintf(f, ",\n");
  row("rebuild", rebuild);
  std::fprintf(f, "\n  ]},\n");
  std::printf("broadcast_join: shared %.2f ms (%" PRId64
              " table) vs rebuild %.2f ms (%" PRId64 " tables) %s\n",
              median(shared), shared.tables_built, median(rebuild),
              rebuild.tables_built, ok ? "ok" : "FAIL");
  return ok;
}

// ---------------------------------------------------------------------------
// frame_fingerprint: the result cache's content fingerprint of an in-memory
// source (dataframe::ContentFingerprint) on the 50k-row census frame. `cold`
// fingerprints a frame whose buffers were never hashed (a fresh copy per
// rep, built outside the timed window); `warm` fingerprints the same frame
// again, which reads every buffer's memoized hash. Both must agree.
// ---------------------------------------------------------------------------

bool WriteFrameFingerprintJson(FILE* f) {
  const int64_t kRows = 50000;
  const int kReps = 9;
  struct Sample {
    std::vector<double> wall_us;
    int64_t bytes_hashed = 0;
    common::Hash128 fp;
    bool agree = true;
  };
  const auto time_us = [](const DataFrame& df, Sample* s) {
    int64_t bytes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const common::Hash128 fp = dataframe::ContentFingerprint(df, &bytes);
    const auto t1 = std::chrono::steady_clock::now();
    s->wall_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (s->wall_us.size() > 1) s->agree = s->agree && fp == s->fp;
    s->fp = fp;
    s->bytes_hashed = bytes;
  };
  Sample cold, warm;
  const DataFrame shared = workloads::pipelines::MakeCensus(kRows);
  for (int rep = 0; rep < kReps; ++rep) {
    time_us(workloads::pipelines::MakeCensus(kRows), &cold);
    time_us(shared, &warm);  // rep 0 fills the memo
  }
  warm.wall_us.erase(warm.wall_us.begin());
  const bool ok = cold.agree && warm.agree && cold.fp == warm.fp &&
                  cold.bytes_hashed > 0 && warm.bytes_hashed == 0;
  const auto pct = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
  };
  const auto row = [&](const char* mode, const Sample& s, bool last) {
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"wall_us_median\": %.1f, "
                 "\"wall_us_p10\": %.1f, \"wall_us_p90\": %.1f, "
                 "\"bytes_hashed\": %" PRId64 "}%s\n",
                 mode, pct(s.wall_us, 0.5), pct(s.wall_us, 0.1),
                 pct(s.wall_us, 0.9), s.bytes_hashed, last ? "" : ",");
  };
  std::fprintf(f,
               "  \"frame_fingerprint\": {\"frame\": \"census\", "
               "\"rows\": %" PRId64 ", \"reps\": %d, \"host_cpus\": %d, "
               "\"identical\": %s, \"runs\": [\n",
               kRows, kReps, CoreBudget(), ok ? "true" : "false");
  row("cold", cold, false);
  row("warm", warm, true);
  std::fprintf(f, "  ]},\n");
  std::printf("frame_fingerprint: cold %.1f us (%" PRId64
              " B hashed) vs warm %.1f us (%" PRId64 " B) %s\n",
              pct(cold.wall_us, 0.5), cold.bytes_hashed,
              pct(warm.wall_us, 0.5), warm.bytes_hashed, ok ? "ok" : "FAIL");
  return ok;
}

// ---------------------------------------------------------------------------
// drop_duplicates: DropDuplicates on one key column with rows / 5 distinct
// keys, once int64 and once dictionary-encoded strings, under the default
// pool. Every rep's output must equal the reference that keeps the first
// row of each distinct AppendKeyBytes key.
// ---------------------------------------------------------------------------

bool WriteDropDuplicatesJson(FILE* f, int64_t rows) {
  const int64_t distinct = rows / 5;
  const int kReps = 9;
  struct Variant {
    const char* key;
    DataFrame df;
  };
  const Variant variants[] = {
      {"int64", MakeFrame(rows, distinct)},
      {"dict_string", MakeStringFrame(rows, distinct, /*encoded=*/true)},
  };
  const auto pct = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
  };
  bool ok = true;
  std::fprintf(f,
               "  \"drop_duplicates\": {\"rows\": %" PRId64
               ", \"distinct\": %" PRId64
               ", \"reps\": %d, \"host_cpus\": %d, \"runs\": [\n",
               rows, distinct, kReps, CoreBudget());
  for (size_t v = 0; v < std::size(variants); ++v) {
    const DataFrame& df = variants[v].df;
    const Column& key = *df.GetColumn("k").ValueOrDie();
    std::unordered_set<std::string> seen;
    std::vector<uint8_t> keep(rows, 0);
    for (int64_t i = 0; i < rows; ++i) {
      std::string bytes;
      key.AppendKeyBytes(i, &bytes);
      keep[i] = seen.insert(std::move(bytes)).second ? 1 : 0;
    }
    const size_t reference =
        std::hash<std::string>{}(FingerprintFrame(df.FilterRows(keep)));
    std::vector<double> wall_ms;
    int64_t kept = 0;
    bool identical = true;
    for (int rep = 0; rep <= kReps; ++rep) {  // rep 0 warms up
      const auto t0 = std::chrono::steady_clock::now();
      const DataFrame out = dataframe::DropDuplicates(df, {"k"}).ValueOrDie();
      const auto t1 = std::chrono::steady_clock::now();
      identical = identical &&
                  std::hash<std::string>{}(FingerprintFrame(out)) == reference;
      kept = out.num_rows();
      if (rep > 0) {
        wall_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    }
    ok = ok && identical;
    std::fprintf(f,
                 "    {\"key\": \"%s\", \"wall_ms_median\": %.2f, "
                 "\"wall_ms_p10\": %.2f, \"wall_ms_p90\": %.2f, "
                 "\"kept_rows\": %" PRId64 ", \"checksum\": \"%zx\", "
                 "\"matches_reference\": %s}%s\n",
                 variants[v].key, pct(wall_ms, 0.5), pct(wall_ms, 0.1),
                 pct(wall_ms, 0.9), kept, reference,
                 identical ? "true" : "false",
                 v + 1 < std::size(variants) ? "," : "");
    std::printf("drop_duplicates %s: %.2f ms (p10 %.2f, p90 %.2f) %s\n",
                variants[v].key, pct(wall_ms, 0.5), pct(wall_ms, 0.1),
                pct(wall_ms, 0.9), identical ? "ok" : "FAIL");
  }
  std::fprintf(f, "  ]},\n");
  return ok;
}

bool WriteKernelSweepJson(const char* path, int64_t kRows) {
  DataFrame gb_df = MakeFrame(kRows, 500);
  DataFrame join_left = MakeFrame(kRows, 2000);
  DataFrame join_right = MakeFrame(2000, 2000);
  DataFrame sort_df = MakeFrame(kRows, 10000);
  // String-keyed workloads for the dictionary paths. The join right side is
  // large enough (> the 16k radix threshold) that the build partitions.
  const int64_t kJoinBuildRows = std::max<int64_t>(kRows / 8, 20000);
  DataFrame sgb_enc = MakeStringFrame(kRows, 500, /*encoded=*/true);
  DataFrame sgb_plain = MakeStringFrame(kRows, 500, /*encoded=*/false);
  DataFrame sj_left_enc = MakeStringFrame(kRows, 40000, /*encoded=*/true);
  DataFrame sj_left_plain = MakeStringFrame(kRows, 40000, /*encoded=*/false);
  DataFrame sj_right_enc =
      MakeStringFrame(kJoinBuildRows, 40000, /*encoded=*/true);
  DataFrame sj_right_plain =
      MakeStringFrame(kJoinBuildRows, 40000, /*encoded=*/false);
  Rng rng(13);
  tensor::NDArray mm_a = tensor::NDArray::RandomNormal({288, 288}, rng);
  tensor::NDArray mm_b = tensor::NDArray::RandomNormal({288, 288}, rng);

  dataframe::MergeOptions join_opts;
  join_opts.on = {"k"};

  auto df_out = std::make_shared<DataFrame>();
  auto mm_out = std::make_shared<tensor::NDArray>();
  const auto df_fingerprint = [df_out] { return FingerprintFrame(*df_out); };

  const KernelSpec kernels[] = {
      {"groupby", kRows,
       [&, df_out] {
         *df_out = dataframe::GroupByAgg(gb_df, {"k"},
                                         {{"v", AggFunc::kSum, "s"},
                                          {"x", AggFunc::kMean, "m"},
                                          {"x", AggFunc::kVar, "var"}})
                       .ValueOrDie();
       },
       df_fingerprint},
      {"join", kRows,
       [&, df_out] {
         *df_out =
             dataframe::Merge(join_left, join_right, join_opts).ValueOrDie();
       },
       df_fingerprint},
      {"sort", kRows,
       [&, df_out] {
         *df_out = dataframe::SortValues(sort_df, {"k", "v"}).ValueOrDie();
       },
       df_fingerprint},
      {"matmul", 288 * 288,
       [&, mm_out] { *mm_out = tensor::MatMul(mm_a, mm_b).ValueOrDie(); },
       [mm_out] {
         return std::string(
             reinterpret_cast<const char*>(mm_out->data().data()),
             mm_out->data().size() * sizeof(double));
       }},
      {"dict_groupby", kRows,
       [&, df_out] {
         *df_out = dataframe::GroupByAgg(sgb_enc, {"k"},
                                         {{"v", AggFunc::kSum, "s"},
                                          {"x", AggFunc::kMean, "m"},
                                          {"x", AggFunc::kVar, "var"}})
                       .ValueOrDie();
       },
       df_fingerprint,
       [&] {
         return FingerprintFrame(
             dataframe::GroupByAgg(sgb_plain, {"k"},
                                   {{"v", AggFunc::kSum, "s"},
                                    {"x", AggFunc::kMean, "m"},
                                    {"x", AggFunc::kVar, "var"}})
                 .ValueOrDie());
       }},
      {"radix_join", kRows,
       [&, df_out] {
         *df_out = dataframe::Merge(sj_left_enc, sj_right_enc, join_opts)
                       .ValueOrDie();
       },
       df_fingerprint,
       [&] {
         return FingerprintFrame(
             dataframe::Merge(sj_left_plain, sj_right_plain, join_opts)
                 .ValueOrDie());
       }},
      // Dictionary keys sort by dictionary rank (radix path); the plain
      // reference compares the strings in place (merge-sort path).
      {"dict_sort", kRows,
       [&, df_out] {
         *df_out = dataframe::SortValues(sgb_enc, {"k", "x"}, {true, false})
                       .ValueOrDie();
       },
       df_fingerprint,
       [&] {
         return FingerprintFrame(
             dataframe::SortValues(sgb_plain, {"k", "x"}, {true, false})
                 .ValueOrDie());
       }},
  };

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernel_thread_sweep\",\n");
  std::fprintf(f,
               "  \"note\": \"modeled_us = serial_cpu + par_cpu/threads; "
               "the executor applies the same division to simulated_us\",\n");
  std::fprintf(f, "  \"kernels\": [\n");
  bool first_kernel = true;
  bool all_identical = true;
  for (const KernelSpec& k : kernels) {
    std::printf("sweep %s ...\n", k.name);
    std::vector<SweepSample> sweep;
    for (int threads : {1, 2, 4, 8}) {
      sweep.push_back(MeasureKernel(threads, k.run, k.fingerprint));
    }
    const double base = sweep.front().modeled_us;
    bool identical = true;
    for (const SweepSample& s : sweep) {
      identical = identical && s.checksum == sweep.front().checksum;
    }
    bool matches_plain = true;
    if (k.plain_run) {
      ThreadPool* prev = SetCurrentThreadPool(nullptr);  // serial reference
      matches_plain =
          std::hash<std::string>{}(k.plain_run()) == sweep.front().checksum;
      SetCurrentThreadPool(prev);
      if (!matches_plain) {
        std::fprintf(stderr, "%s: encoded/plain checksum mismatch!\n",
                     k.name);
      }
    }
    all_identical = all_identical && identical && matches_plain;
    if (!first_kernel) std::fprintf(f, ",\n");
    first_kernel = false;
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"rows\": %" PRId64
                 ", \"identical_outputs\": %s, \"matches_plain\": %s"
                 ", \"sweep\": [\n",
                 k.name, k.rows, identical ? "true" : "false",
                 matches_plain ? "true" : "false");
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepSample& s = sweep[i];
      const double speedup = s.modeled_us > 0 ? base / s.modeled_us : 0.0;
      std::fprintf(f,
                   "      {\"threads\": %d, \"wall_s\": %.6f, "
                   "\"serial_cpu_us\": %" PRId64 ", \"par_cpu_us\": %" PRId64
                   ", \"modeled_us\": %.1f, \"modeled_speedup\": %.2f, "
                   "\"rows_per_modeled_s\": %.0f, \"checksum\": \"%zx\"}%s\n",
                   s.threads, s.wall_s, s.serial_cpu_us, s.par_cpu_us,
                   s.modeled_us, speedup,
                   s.modeled_us > 0 ? 1e6 * static_cast<double>(k.rows) /
                                          s.modeled_us
                                    : 0.0,
                   s.checksum, i + 1 < sweep.size() ? "," : "");
      std::printf(
          "  threads=%d modeled=%.1fus speedup=%.2fx identical=%s\n",
          s.threads, s.modeled_us, speedup,
          s.checksum == sweep.front().checksum ? "yes" : "NO");
    }
    std::fprintf(f, "    ]}");
  }
  std::fprintf(f, "\n  ],\n");
  all_identical = WriteBroadcastJoinJson(f) && all_identical;
  all_identical = WriteFrameFingerprintJson(f) && all_identical;
  // 1.5M rows at the full run's 400k, 150k at the smoke run's 40k.
  all_identical = WriteDropDuplicatesJson(f, kRows * 15 / 4) && all_identical;
  WriteSharingJson(f);
  all_identical = WriteSelectivityJson(f, kRows) && all_identical;
  // Shuffle frontier sweep: base 8k rows per SF step, 1 MiB band budget.
  // The exchange must complete through SF 3, its committed frontier in
  // BENCH_kernels.json (the removed whole-partition store OOMed past SF 2).
  all_identical = WriteShuffleJson(f, std::min<int64_t>(kRows / 2, 8000),
                                   1LL << 20, /*min_frontier_sf=*/3) &&
                  all_identical;
  WriteOptimizerJson(f);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  // Consume --trace-out and --smoke before google-benchmark sees (and
  // rejects) them.
  xorbits::bench::InitTrace(argc, argv);
  bool smoke = false;
  bool smoke_selectivity = false;
  bool smoke_shuffle = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string(argv[i]) == "--smoke-selectivity") {
      smoke_selectivity = true;
    } else if (std::string(argv[i]) == "--smoke-shuffle") {
      smoke_shuffle = true;
    } else if (std::string(argv[i]).rfind("--trace-out=", 0) != 0) {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (smoke_shuffle) {
    // CI gate for the exchange alone: a short SF sweep that fails when any
    // completed step's output differs from the single-band reference or
    // when the serialized wire bytes exceed 0.7x the logical bytes on the
    // dict-encoded lineitem key frame. The OOM frontier is recorded but
    // only enforced by the full (non-smoke) run.
    FILE* f = std::fopen("/tmp/bench_smoke_shuffle.json", "w");
    if (f == nullptr) return 1;
    std::fprintf(f, "{\n");
    const bool ok = WriteShuffleJson(f, 8000, 1LL << 20,
                                     /*min_frontier_sf=*/0);
    std::fprintf(f, "  \"bench\": \"shuffle_smoke\"\n}\n");
    std::fclose(f);
    std::printf("shuffle smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  if (smoke_selectivity) {
    // CI gate for late materialization alone: run just the selectivity
    // sweep at small row counts and fail when any eager/late output pair
    // differs or the 1% sweep point materializes more than a quarter of
    // the eager bytes.
    FILE* f = std::fopen("/tmp/bench_smoke_selectivity.json", "w");
    if (f == nullptr) return 1;
    std::fprintf(f, "{\n");
    const bool ok = WriteSelectivityJson(f, 40000);
    std::fprintf(f, "  \"bench\": \"selectivity_smoke\"\n}\n");
    std::fclose(f);
    std::printf("selectivity smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  if (smoke) {
    // CI gate: small rows, sweep every kernel, and fail the process when
    // any checksum differs across thread counts or between the
    // dictionary-encoded and plain runs of the string-keyed kernels.
    const bool ok = WriteKernelSweepJson("/tmp/bench_smoke.json", 40000);
    std::printf("bench smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  WriteKernelSweepJson("BENCH_kernels.json", 400000);
  // The kernel sweep itself runs no sessions; when tracing was requested,
  // run one small traced pipeline so the exported trace has content.
  if (xorbits::bench::BenchTrace::Get().tracer) {
    xorbits::bench::TimedRun(
        xorbits::bench::BenchConfig(EngineKind::kXorbits, /*workers=*/2,
                                    /*bands_per_worker=*/2, /*band_mb=*/64,
                                    /*chunk_kb=*/256, /*deadline_ms=*/60000),
        [](core::Session* session) {
          return workloads::pipelines::Census(session, /*rows=*/50000)
              .status();
        });
  }
  char arg0_default[] = "benchmark";
  char* args_default = arg0_default;
  if (!argv) {
    argc = 1;
    argv = &args_default;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  xorbits::bench::FinishTrace();
  return 0;
}
