// Late-materialization suite (DESIGN.md §10): selection vectors survive
// serialize and spill round trips byte-identical to the eager path,
// lazy xparquet columns decode only when touched (and only the selected
// rows), deferred expression sources match eager evaluation, filter→groupby
// and filter→join chains are checksum-identical across 1/2/4/8-thread
// pools with plain and dictionary-encoded strings, a pushed filter read
// through the lazy frame feeds dense consumers (sort, hash partition) the
// same bytes as an eager read, and — the satellite regression — an empty
// shared BufferView window unshares without a CoW copy. Runs under both
// the ASan `sanitize` and TSan `concurrency` labels.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dataframe/dataframe.h"
#include "dataframe/dict.h"
#include "dataframe/groupby.h"
#include "dataframe/join.h"
#include "dataframe/kernels.h"
#include "io/serialize.h"
#include "io/xparquet.h"
#include "operators/dataframe_ops.h"
#include "operators/expr.h"
#include "operators/groupby_op.h"
#include "operators/source_ops.h"
#include "services/chunk_data.h"
#include "test_util.h"

namespace xorbits::dataframe {
namespace {

using test_util::Fingerprint;


/// Deterministic mixed-dtype frame: int64 key with repeats (groupby/join
/// fodder), float64 payload, and a low-cardinality string column.
DataFrame SampleFrame(int64_t n) {
  std::vector<int64_t> id(n), key(n);
  std::vector<double> val(n);
  std::vector<std::string> city(n);
  const char* cities[] = {"ulm", "kiel", "bonn", "trier", "essen"};
  uint64_t s = 42;
  for (int64_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    id[i] = i;
    key[i] = static_cast<int64_t>((s >> 33) % 17);
    val[i] = static_cast<double>((s >> 17) % 1000) / 8.0;
    city[i] = cities[(s >> 41) % 5];
  }
  DataFrame df;
  EXPECT_TRUE(df.SetColumn("id", Column::Int64(std::move(id))).ok());
  EXPECT_TRUE(df.SetColumn("key", Column::Int64(std::move(key))).ok());
  EXPECT_TRUE(df.SetColumn("val", Column::Float64(std::move(val))).ok());
  EXPECT_TRUE(df.SetColumn("city", Column::String(std::move(city))).ok());
  return df;
}

/// keep row i iff id % modulus == 0 — selectivity 1/modulus.
std::vector<uint8_t> ModMask(int64_t n, int64_t modulus) {
  std::vector<uint8_t> mask(n, 0);
  for (int64_t i = 0; i < n; i += modulus) mask[i] = 1;
  return mask;
}

std::string TempPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("xorbits_late_test_") + tag + ".xpq"))
      .string();
}

// --- selection vectors survive serialization ------------------------------

TEST(LateMaterializationTest, SelectionSerializeRoundTrip) {
  const int64_t kRows = 600;
  const std::string path = TempPath("ser");
  DataFrame base = SampleFrame(kRows);
  ASSERT_TRUE(io::WriteXpq(path, base).ok());

  auto eager_r = io::ReadXpq(path);
  ASSERT_TRUE(eager_r.ok());
  DataFrame eager = eager_r.MoveValue().FilterRows(ModMask(kRows, 7));

  auto lazy_r = io::ReadXpqLazy(path);
  ASSERT_TRUE(lazy_r.ok());
  DataFrame lazy = lazy_r.MoveValue().FilterRowsLate(ModMask(kRows, 7));
  ASSERT_TRUE(lazy.is_lazy());
  ASSERT_TRUE(lazy.selection().active());

  // Serialization is a forcing point: the writer resolves the selection
  // internally and the bytes must be readable as a plain dense frame.
  Metrics metrics;
  std::string bytes;
  {
    MetricsScope scope(&metrics);
    bytes = io::SerializeDataFrame(lazy).ValueOrDie();
  }
  EXPECT_GT(metrics.Get(CounterId::kSelectionsForced), 0);

  auto back = io::DeserializeDataFrame(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.ValueOrDie().is_lazy());
  EXPECT_EQ(Fingerprint(back.ValueOrDie()), Fingerprint(eager));

  // Round trip the eager side too: both buffers decode to the same bytes.
  auto bytes2 = io::SerializeDataFrame(eager);
  ASSERT_TRUE(bytes2.ok());
  auto back2 = io::DeserializeDataFrame(*bytes2);
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(Fingerprint(back.ValueOrDie()), Fingerprint(back2.ValueOrDie()));
  std::filesystem::remove(path);
}

// --- ...and spill (chunk serialization) -----------------------------------

TEST(LateMaterializationTest, SelectionSpillRoundTrip) {
  const int64_t kRows = 400;
  const std::string path = TempPath("spill");
  DataFrame base = SampleFrame(kRows);
  ASSERT_TRUE(io::WriteXpq(path, base).ok());

  DataFrame eager = base.FilterRows(ModMask(kRows, 5));

  auto lazy_r = io::ReadXpqLazy(path);
  ASSERT_TRUE(lazy_r.ok());
  DataFrame lazy = lazy_r.MoveValue().FilterRowsLate(ModMask(kRows, 5));
  ASSERT_TRUE(lazy.is_lazy());

  // Spill path: chunks serialize through the same frame writer; a lazy
  // chunk must come back as a dense frame with identical bytes.
  auto buf = services::SerializeChunk(*services::MakeChunk(lazy));
  ASSERT_TRUE(buf.ok());
  auto chunk = services::DeserializeChunk(buf.ValueOrDie());
  ASSERT_TRUE(chunk.ok());
  auto df = services::AsDataFrame(chunk.ValueOrDie());
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(Fingerprint(*df.ValueOrDie()), Fingerprint(eager));
  std::filesystem::remove(path);
}

// --- lazy decode is demand-driven and selection-aware ---------------------

TEST(LateMaterializationTest, LazyDecodeTouchesOnlyReadColumns) {
  const int64_t kRows = 2000;
  const std::string path = TempPath("decode");
  ASSERT_TRUE(io::WriteXpq(path, SampleFrame(kRows)).ok());

  Metrics metrics;
  MetricsScope scope(&metrics);

  auto lazy_r = io::ReadXpqLazy(path);
  ASSERT_TRUE(lazy_r.ok());
  DataFrame lazy = lazy_r.MoveValue();
  // Reading the footer decodes nothing.
  EXPECT_EQ(metrics.Get(CounterId::kLazyColumnsDecoded), 0);
  for (int i = 0; i < lazy.num_columns(); ++i) {
    EXPECT_TRUE(lazy.IsSlotPending(i));
  }

  // Touch one column: exactly one slot resolves.
  EXPECT_EQ(lazy.column(1).length(), kRows);
  EXPECT_EQ(metrics.Get(CounterId::kLazyColumnsDecoded), 1);
  EXPECT_FALSE(lazy.IsSlotPending(1));
  EXPECT_TRUE(lazy.IsSlotPending(0));
  std::filesystem::remove(path);
}

TEST(LateMaterializationTest, LowSelectivityMaterializesFewerBytes) {
  const int64_t kRows = 20000;
  const std::string path = TempPath("bytes");
  ASSERT_TRUE(io::WriteXpq(path, SampleFrame(kRows)).ok());

  // Eager: read everything dense, then compact-filter to 1%.
  int64_t eager_bytes = 0;
  {
    auto r = io::ReadXpq(path);
    ASSERT_TRUE(r.ok());
    Metrics metrics;
    {
      MetricsScope scope(&metrics);
      DataFrame out = r.ValueOrDie().FilterRows(ModMask(kRows, 100));
      (void)Fingerprint(out);
    }
    eager_bytes = metrics.Get(CounterId::kBytesMaterialized);
    // ReadXpq itself is the bulk of eager work; fold it in via nbytes.
    eager_bytes += r.ValueOrDie().nbytes();
  }

  // Late: the filter stays a selection; reading the result decodes only
  // the ~1% of rows that survive.
  int64_t late_bytes = 0;
  std::string late_fp, eager_fp;
  {
    auto er = io::ReadXpq(path);
    ASSERT_TRUE(er.ok());
    eager_fp = Fingerprint(er.ValueOrDie().FilterRows(ModMask(kRows, 100)));

    auto r = io::ReadXpqLazy(path);
    ASSERT_TRUE(r.ok());
    Metrics metrics;
    {
      MetricsScope scope(&metrics);
      DataFrame out = r.MoveValue().FilterRowsLate(ModMask(kRows, 100));
      late_fp = Fingerprint(out);
    }
    late_bytes = metrics.Get(CounterId::kBytesMaterialized);
  }
  EXPECT_EQ(late_fp, eager_fp);
  // The acceptance bar is <= 0.25x at 1%; in-process we comfortably beat it.
  EXPECT_GT(late_bytes, 0);
  EXPECT_LE(late_bytes, eager_bytes / 4)
      << "late=" << late_bytes << " eager=" << eager_bytes;
  std::filesystem::remove(path);
}

// --- row groups: a lazy column fetches only the groups it selects ---------

TEST(LateMaterializationTest, LoadFetchesOnlySelectedGroups) {
  const int64_t kRows = 1000;
  const std::string path = TempPath("groups");
  ASSERT_TRUE(io::WriteXpq(path, SampleFrame(kRows), 100).ok());
  auto read = io::ReadXpqInfo(path);
  ASSERT_TRUE(read.ok());
  auto info = std::make_shared<const io::XpqFileInfo>(read.MoveValue());
  ASSERT_EQ(info->num_groups(), 10);
  const auto dense = io::ReadXpq(path);
  ASSERT_TRUE(dense.ok());

  for (int c = 0; c < static_cast<int>(info->columns.size()); ++c) {
    for (bool dict : {false, true}) {
      SCOPED_TRACE(info->columns[c].name + " dict=" + std::to_string(dict));
      const auto& chunks = info->columns[c].chunks;
      // Window [150, 850) spans groups 1..8. Rows 10, 60, 340 and 690 of it
      // are file rows 160, 210, 490 and 840: groups 1, 2, 4 and 8.
      io::XpqColumnSource src(path, info, c, 150, 700, dict);
      const std::vector<int64_t> rows = {10, 60, 340, 690};
      Metrics metrics;
      MetricsScope scope(&metrics);
      auto some = src.Load(rows);
      ASSERT_TRUE(some.ok()) << some.status();
      EXPECT_EQ(metrics.Get(CounterId::kSourceBytesRead),
                chunks[1].nbytes + chunks[2].nbytes + chunks[4].nbytes +
                    chunks[8].nbytes);
      const Column& whole = dense->column(c);
      ASSERT_EQ(some->length(), 4);
      for (int64_t k = 0; k < 4; ++k) {
        EXPECT_EQ(some->GetScalar(k), whole.GetScalar(150 + rows[k]));
      }

      // A selection inside one group fetches that group alone; an empty
      // selection fetches nothing.
      const int64_t before = metrics.Get(CounterId::kSourceBytesRead);
      ASSERT_TRUE(src.Load({455, 460}).ok());  // file rows 605, 610
      EXPECT_EQ(metrics.Get(CounterId::kSourceBytesRead) - before,
                chunks[6].nbytes);
      ASSERT_TRUE(src.Load({}).ok());
      EXPECT_EQ(metrics.Get(CounterId::kSourceBytesRead) - before,
                chunks[6].nbytes);

      // LoadAll reads the window's groups once each.
      const int64_t again = metrics.Get(CounterId::kSourceBytesRead);
      ASSERT_TRUE(src.LoadAll().ok());
      int64_t window_bytes = 0;
      for (int g = 1; g <= 8; ++g) window_bytes += chunks[g].nbytes;
      EXPECT_EQ(metrics.Get(CounterId::kSourceBytesRead) - again,
                window_bytes);
    }
  }
  std::filesystem::remove(path);
}

TEST(LateMaterializationTest, FilteredLazyFrameSkipsUnselectedGroups) {
  const int64_t kRows = 1000;
  const std::string path = TempPath("group_filter");
  const DataFrame base = SampleFrame(kRows);
  ASSERT_TRUE(io::WriteXpq(path, base, 100).ok());
  auto info = io::ReadXpqInfo(path);
  ASSERT_TRUE(info.ok());
  // Keep rows 30..59 (group 0) and 520..529 (group 5).
  std::vector<uint8_t> mask(kRows, 0);
  for (int64_t i = 30; i < 60; ++i) mask[i] = 1;
  for (int64_t i = 520; i < 530; ++i) mask[i] = 1;

  Metrics metrics;
  MetricsScope scope(&metrics);
  auto lazy = io::ReadXpqLazy(path);
  ASSERT_TRUE(lazy.ok());
  DataFrame late = lazy.MoveValue().FilterRowsLate(mask);
  EXPECT_EQ(metrics.Get(CounterId::kSourceBytesRead), 0);
  EXPECT_EQ(Fingerprint(late), Fingerprint(base.FilterRows(mask)));
  int64_t expected = 0;
  for (const auto& ci : info->columns) {
    expected += ci.chunks[0].nbytes + ci.chunks[5].nbytes;
  }
  EXPECT_EQ(metrics.Get(CounterId::kSourceBytesRead), expected);
  std::filesystem::remove(path);
}

// --- deferred transforms ---------------------------------------------------

TEST(LateMaterializationTest, DeferredExprSourceMatchesEager) {
  const int64_t kRows = 500;
  DataFrame df = SampleFrame(kRows);
  using operators::Col;
  using operators::Lit;
  operators::ExprPtr expr = operators::CompareExpr(Col("key"), CmpOp::kLt,
                                                   Lit(int64_t{9}));

  // Eager baseline: evaluate at assignment time, then filter.
  DataFrame eager = df;
  {
    auto col = operators::EvalExpr(eager, *expr);
    ASSERT_TRUE(col.ok());
    ASSERT_TRUE(eager.SetColumn("flag", col.MoveValue()).ok());
    eager = eager.FilterRows(ModMask(kRows, 3));
  }

  // Deferred: the transform hangs behind a lazy slot and is evaluated only
  // at the rows the selection keeps.
  Metrics metrics;
  DataFrame late = df;
  {
    MetricsScope scope(&metrics);
    auto src = operators::MakeDeferredExprSource(late, expr);
    ASSERT_TRUE(src.ok());
    ASSERT_TRUE(late.SetColumnSource("flag", src.MoveValue()).ok());
    EXPECT_EQ(metrics.Get(CounterId::kDeferredTransforms), 1);
    late = late.FilterRowsLate(ModMask(kRows, 3));
    ASSERT_TRUE(late.is_lazy());
  }
  EXPECT_EQ(Fingerprint(late), Fingerprint(eager));

  // Compact() is the explicit forcing point and must be a fixpoint.
  late.Compact();
  EXPECT_FALSE(late.is_lazy());
  EXPECT_EQ(Fingerprint(late), Fingerprint(eager));
}

TEST(LateMaterializationTest, FilterLateKernelComposesSelections) {
  const int64_t kRows = 300;
  DataFrame df = SampleFrame(kRows);

  std::vector<uint8_t> even(kRows, 0), third;
  for (int64_t i = 0; i < kRows; i += 2) even[i] = 1;

  auto first = FilterLate(df, Column::Bool(even));
  ASSERT_TRUE(first.ok());
  DataFrame mid = first.MoveValue();
  ASSERT_TRUE(mid.selection().active());

  third.assign(mid.num_rows(), 0);
  for (int64_t i = 0; i < mid.num_rows(); i += 3) third[i] = 1;
  auto second = FilterLate(mid, Column::Bool(third));
  ASSERT_TRUE(second.ok());
  DataFrame late = second.MoveValue();

  // Same chain through the eager kernel.
  auto e1 = Filter(df, Column::Bool(even));
  ASSERT_TRUE(e1.ok());
  auto e2 = Filter(e1.ValueOrDie(), Column::Bool(third));
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(late.num_rows(), e2.ValueOrDie().num_rows());
  EXPECT_EQ(Fingerprint(late), Fingerprint(e2.ValueOrDie()));
}

// --- thread count x encoding checksum identity ----------------------------

TEST(LateMaterializationTest, FilterGroupByJoinChecksumAcrossThreadsAndDict) {
  const int64_t kRows = 3000;
  const std::string path = TempPath("threads");
  ASSERT_TRUE(io::WriteXpq(path, SampleFrame(kRows)).ok());

  const std::vector<AggSpec> aggs = {{"val", AggFunc::kSum, "val_sum"},
                                     {"id", AggFunc::kCount, "n"}};
  DataFrame right;
  {
    std::vector<int64_t> k(17);
    std::vector<std::string> label(17);
    for (int64_t i = 0; i < 17; ++i) {
      k[i] = i;
      label[i] = "g" + std::to_string(i);
    }
    ASSERT_TRUE(right.SetColumn("key", Column::Int64(std::move(k))).ok());
    ASSERT_TRUE(
        right.SetColumn("label", Column::String(std::move(label))).ok());
  }
  MergeOptions mo;
  mo.on = {"key"};

  // Baseline: single-threaded, plain strings, eager frames.
  std::string base_gb, base_join;
  {
    auto r = io::ReadXpq(path);
    ASSERT_TRUE(r.ok());
    DataFrame filtered = r.ValueOrDie().FilterRows(ModMask(kRows, 4));
    auto gb = GroupByAgg(filtered, {"key", "city"}, aggs);
    ASSERT_TRUE(gb.ok());
    base_gb = Fingerprint(gb.ValueOrDie());
    auto jn = Merge(filtered, right, mo);
    ASSERT_TRUE(jn.ok());
    base_join = Fingerprint(jn.ValueOrDie());
  }

  for (int threads : {1, 2, 4, 8}) {
    for (bool dict : {false, true}) {
      ThreadPool pool(threads);
      ThreadPool* prev = SetCurrentThreadPool(&pool);
      auto r = io::ReadXpqLazy(path, {}, 0, -1, dict);
      ASSERT_TRUE(r.ok());
      DataFrame filtered = r.MoveValue().FilterRowsLate(ModMask(kRows, 4));
      ASSERT_TRUE(filtered.is_lazy());

      auto gb = GroupByAgg(filtered, {"key", "city"}, aggs);
      ASSERT_TRUE(gb.ok()) << gb.status().ToString();
      EXPECT_EQ(Fingerprint(gb.ValueOrDie()), base_gb)
          << "groupby threads=" << threads << " dict=" << dict;

      auto jn = Merge(filtered, right, mo);
      ASSERT_TRUE(jn.ok()) << jn.status().ToString();
      EXPECT_EQ(Fingerprint(jn.ValueOrDie()), base_join)
          << "join threads=" << threads << " dict=" << dict;
      SetCurrentThreadPool(prev);
    }
  }
  std::filesystem::remove(path);
}

// --- one read path: a pushed filter feeds dense consumers -----------------

/// Runs `op` on one input chunk and returns its output, or a shuffle
/// mapper's partitions in partition order.
std::vector<services::ChunkDataPtr> RunOp(const operators::ChunkOp& op,
                                          services::ChunkDataPtr input) {
  struct Collect : operators::ExecutionContext::ShuffleSink {
    std::map<int, services::ChunkDataPtr> parts;
    Status Emit(int partition, services::ChunkDataPtr data) override {
      parts[partition] = std::move(data);
      return Status::OK();
    }
  };
  Collect sink;
  operators::ExecutionContext ctx;
  ctx.inputs = {std::move(input)};
  ctx.outputs.resize(1);
  ctx.shuffle_sink = &sink;
  const Status st = op.Execute(ctx);
  EXPECT_TRUE(st.ok()) << st;
  if (!op.is_shuffle_map()) return {ctx.outputs[0]};
  std::vector<services::ChunkDataPtr> out;
  for (auto& [partition, data] : sink.parts) out.push_back(data);
  return out;
}

std::string Bytes(const services::ChunkDataPtr& chunk) {
  auto bytes = services::SerializeChunk(*chunk);
  EXPECT_TRUE(bytes.ok());
  return bytes.ValueOrDie();
}

TEST(LateMaterializationTest, PushedFilterIntoDenseConsumerMatchesEagerRead) {
  const int64_t kRows = 1000;
  const std::string path = TempPath("dense_consumer");
  ASSERT_TRUE(io::WriteXpq(path, SampleFrame(kRows), 100).ok());
  using operators::Col;
  using operators::Lit;
  // The predicate reads `key`, which the output does not keep.
  const operators::ExprPtr pred =
      operators::CompareExpr(Col("key"), CmpOp::kLt, Lit(int64_t{5}));
  const std::vector<std::string> cols = {"city", "val", "id"};
  const operators::SortChunkOp sort({"city", "val"}, {true, false});
  const operators::HashPartitionChunkOp partition({"city"}, 3);
  for (bool dict : {false, true}) {
    // The chunk window [150, 850) starts and ends inside row groups.
    auto dense = io::ReadXpq(path, {"city", "val", "id", "key"}, 150, 700,
                             nullptr, dict);
    ASSERT_TRUE(dense.ok());
    auto mask = operators::EvalExpr(*dense, *pred);
    ASSERT_TRUE(mask.ok());
    auto filtered = Filter(*dense, *mask);
    ASSERT_TRUE(filtered.ok());
    const services::ChunkDataPtr want =
        services::MakeChunk(filtered->Select(cols).ValueOrDie());

    const operators::ReadXpqChunkOp read(path, cols, 150, 700, pred, dict);
    const services::ChunkDataPtr got = RunOp(read, nullptr)[0];
    for (const operators::ChunkOp* op :
         {static_cast<const operators::ChunkOp*>(&sort),
          static_cast<const operators::ChunkOp*>(&partition)}) {
      SCOPED_TRACE(std::string(op->type_name()) + " dict=" +
                   std::to_string(dict));
      const auto want_out = RunOp(*op, want);
      const auto got_out = RunOp(*op, got);
      ASSERT_EQ(got_out.size(), want_out.size());
      for (size_t i = 0; i < got_out.size(); ++i) {
        EXPECT_EQ(Bytes(got_out[i]), Bytes(want_out[i])) << "output " << i;
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(LateMaterializationTest, PushedConstantFalseFilterReadsNoBlock) {
  const std::string path = TempPath("const_false");
  ASSERT_TRUE(io::WriteXpq(path, SampleFrame(500), 100).ok());
  const operators::ReadXpqChunkOp read(
      path, {"id", "city"}, 0, -1,
      operators::Lit(dataframe::Scalar::Bool(false)));
  Metrics metrics;
  {
    MetricsScope scope(&metrics);
    const services::ChunkDataPtr out = RunOp(read, nullptr)[0];
    // Serializing forces every column through the empty selection.
    auto back = services::DeserializeChunk(Bytes(out));
    ASSERT_TRUE(back.ok());
    auto df = services::AsDataFrame(*back);
    ASSERT_TRUE(df.ok());
    EXPECT_EQ((*df)->num_rows(), 0);
    EXPECT_EQ((*df)->num_columns(), 2);
  }
  EXPECT_EQ(metrics.Get(CounterId::kSourceBytesRead), 0);
  std::filesystem::remove(path);
}

// --- satellite regression: empty shared window must not CoW-copy ----------

TEST(LateMaterializationTest, EmptyWindowMutableVecNoCowCopy) {
  std::vector<int64_t> payload(4096);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = int64_t(i);
  common::BufferView<int64_t> base(std::move(payload));
  common::BufferView<int64_t> shared = base;       // shares the buffer
  common::BufferView<int64_t> empty = shared.Slice(128, 0);
  ASSERT_EQ(empty.size(), 0);

  Metrics metrics;
  MetricsScope scope(&metrics);
  std::vector<int64_t>& vec = empty.MutableVec();
  // A zero-row selection's unshare copies nothing: no CoW copy is counted
  // and the shared payload buffer is released, not pinned.
  EXPECT_EQ(metrics.Get(CounterId::kBufferCowCopies), 0);
  EXPECT_TRUE(vec.empty());
  EXPECT_FALSE(empty.SharesBufferWith(base));

  // The fresh buffer is private and writable.
  vec.push_back(7);
  EXPECT_EQ(empty.size(), 1);
  EXPECT_EQ(base.size(), 4096);
  EXPECT_EQ(base[0], 0);
}

}  // namespace
}  // namespace xorbits::dataframe
