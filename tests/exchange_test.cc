#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/xorbits.h"
#include "dataframe/kernels.h"
#include "dataframe/key_hash.h"
#include "operators/groupby_op.h"
#include "operators/operator.h"
#include "scheduler/executor.h"
#include "services/exchange_service.h"
#include "workloads/pipelines.h"
#include "test_util.h"

// Pipelined block exchange coverage (DESIGN.md §11): deterministic block
// splitting, compressed serialize/spill round trips, backpressure progress
// under tiny budgets, checksum identity across thread counts and string
// encodings against the single-band kPandasLike oracle, block-loss lineage
// recovery, and the mapper-death-mid-partition chaos regression.

namespace xorbits {
namespace {

using core::Session;
using dataframe::AggFunc;
using dataframe::Column;
using dataframe::DataFrame;
using graph::ChunkGraph;
using graph::ChunkNode;
using graph::Subtask;
using graph::SubtaskGraph;
using scheduler::Executor;
using services::ExchangeService;
using test_util::Fingerprint;

/// Deterministic keyed frame; `encoded` dict-encodes the string key so the
/// same rows can flow through the exchange under both physical encodings.
DataFrame KeyedFrame(int64_t n, bool encoded) {
  std::vector<std::string> keys(n);
  std::vector<int64_t> vals(n);
  for (int64_t i = 0; i < n; ++i) {
    keys[i] = "key_" + std::to_string((i * 2654435761ULL) % 43);
    vals[i] = static_cast<int64_t>((i * 40503ULL) % 100000);
  }
  Column k = Column::String(std::move(keys));
  if (encoded) k = k.DictEncode();
  DataFrame df;
  EXPECT_TRUE(df.SetColumn("k", std::move(k)).ok());
  EXPECT_TRUE(df.SetColumn("v", Column::Int64(std::move(vals))).ok());
  return df;
}

// ---------------------------------------------------------------------------
// ExchangeService unit tests: split, seal, fetch, spill, backpressure
// ---------------------------------------------------------------------------

struct ExchangeHarness {
  Config config;
  Metrics metrics;
  // The test thread pushes and fetches directly: charge its exchange
  // counters to `metrics`.
  MetricsScope scope{&metrics};
  services::StorageService storage;
  services::MetaService meta;
  ExchangeService exchange;

  explicit ExchangeHarness(Config c)
      : config(std::move(c)),
        storage(config, &metrics),
        exchange(config, &metrics, &storage, &meta) {}
};

Config SmallBlockConfig() {
  Config c;
  c.shuffle_block_bytes = 4 << 10;  // 4 KB blocks: real multi-block streams
  c.band_memory_limit = 64LL << 20;
  return c;
}

TEST(ExchangeServiceTest, SplitsSealsAndReassemblesByteIdentical) {
  ExchangeHarness h(SmallBlockConfig());
  DataFrame df = KeyedFrame(4000, /*encoded=*/false);
  const std::string fp = Fingerprint(df);

  std::vector<std::string> published;
  int64_t mem = 0, wire = 0;
  ASSERT_FALSE(h.exchange.IsSealed("m1@0"));
  ASSERT_TRUE(h.exchange
                  .PushPartition("m1@0", services::MakeChunk(df), 0,
                                 &published, &mem, &wire)
                  .ok());
  // The ~90 KB partition split into several 4 KB blocks, all stored under
  // sequence-numbered keys and recorded as one sealed range.
  EXPECT_GT(published.size(), 4u);
  EXPECT_EQ(published[0], "m1@0#0");
  for (const std::string& k : published) EXPECT_TRUE(h.storage.Has(k));
  EXPECT_TRUE(h.exchange.IsSealed("m1@0"));
  EXPECT_TRUE(h.exchange.PartitionIntact("m1@0"));
  EXPECT_GT(mem, 0);
  EXPECT_GT(wire, 0);

  int64_t transferred = 0;
  auto back = h.exchange.FetchPartition("m1@0", 0, &transferred, nullptr);
  ASSERT_TRUE(back.ok()) << back.status();
  auto back_df = services::AsDataFrame(*back);
  ASSERT_TRUE(back_df.ok());
  EXPECT_EQ(Fingerprint(**back_df), fp);
  // Same-band fetch: nothing crossed the wire.
  EXPECT_EQ(transferred, 0);
}

TEST(ExchangeServiceTest, EmptyPartitionShipsOneZeroRowBlock) {
  ExchangeHarness h(SmallBlockConfig());
  DataFrame df = KeyedFrame(100, false);
  DataFrame empty = df.SliceRows(0, 0);
  std::vector<std::string> published;
  ASSERT_TRUE(h.exchange
                  .PushPartition("m2@3", services::MakeChunk(empty), 0,
                                 &published, nullptr, nullptr)
                  .ok());
  EXPECT_EQ(published.size(), 1u);
  EXPECT_TRUE(h.exchange.IsSealed("m2@3"));
  auto back = h.exchange.FetchPartition("m2@3", 0, nullptr, nullptr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->rows(), 0);
  // Schema survived the round trip (empty partitions keep frames typed).
  auto back_df = services::AsDataFrame(*back);
  ASSERT_TRUE(back_df.ok());
  EXPECT_EQ((*back_df)->num_columns(), 2);
}

TEST(ExchangeServiceTest, SpilledBlocksRoundTripByteIdentical) {
  // enable_spill stays false: exchange blocks are force-spillable and may
  // go to disk regardless, without turning on general chunk spill.
  Config c = SmallBlockConfig();
  c.enable_spill = false;
  ExchangeHarness h(c);
  DataFrame df = KeyedFrame(4000, /*encoded=*/true);
  const std::string fp = Fingerprint(df);

  ASSERT_TRUE(h.exchange
                  .PushPartition("m3@0", services::MakeChunk(df), 0, nullptr,
                                 nullptr, nullptr)
                  .ok());
  // Push the whole stream to disk, then read it back.
  const int64_t freed = h.storage.SpillByPrefix("m3@", 0, 1LL << 40);
  EXPECT_GT(freed, 0);
  EXPECT_GT(h.metrics.Get(CounterId::kShuffleBlocksSpilled), 0);
  EXPECT_TRUE(h.exchange.PartitionIntact("m3@0"));

  auto back = h.exchange.FetchPartition("m3@0", 0, nullptr, nullptr);
  ASSERT_TRUE(back.ok()) << back.status();
  auto back_df = services::AsDataFrame(*back);
  ASSERT_TRUE(back_df.ok());
  EXPECT_EQ(Fingerprint(**back_df), fp);
}

TEST(ExchangeServiceTest, DictKeysCompressOnTheWire) {
  // Lineitem-key shape (the CI smoke gate's frame): an int64 order key
  // plus low-cardinality dict-encoded flag columns. In memory the codes
  // are 4-byte int32; on the wire they pack to one byte (+RLE on runs).
  ExchangeHarness h(SmallBlockConfig());
  const int64_t n = 8000;
  std::vector<int64_t> orderkey(n);
  std::vector<std::string> flag(n), status(n);
  for (int64_t i = 0; i < n; ++i) {
    orderkey[i] = i / 4;  // ~4 lines per order
    flag[i] = (i % 10 < 5) ? "N" : ((i % 10 < 8) ? "R" : "A");
    status[i] = (i % 10 < 5) ? "O" : "F";
  }
  DataFrame df;
  ASSERT_TRUE(df.SetColumn("l_orderkey",
                           Column::Int64(std::move(orderkey))).ok());
  ASSERT_TRUE(df.SetColumn("l_returnflag",
                           Column::String(std::move(flag)).DictEncode())
                  .ok());
  ASSERT_TRUE(df.SetColumn("l_linestatus",
                           Column::String(std::move(status)).DictEncode())
                  .ok());
  int64_t mem = 0, wire = 0;
  ASSERT_TRUE(h.exchange
                  .PushPartition("m4@0", services::MakeChunk(df), 0, nullptr,
                                 &mem, &wire)
                  .ok());
  // Packed dictionary codes (+RLE) must buy at least the CI gate's ratio.
  EXPECT_LE(wire, (mem * 7) / 10)
      << "wire=" << wire << " memory=" << mem;
}

TEST(ExchangeServiceTest, BackpressureUnderTinyBudgetMakesProgress) {
  Config c;
  c.shuffle_block_bytes = 4 << 10;
  c.band_memory_limit = 192LL << 10;  // far smaller than the total stream
  c.exchange_backpressure_watermark = 0.5;
  ExchangeHarness h(c);

  // Total pushed payload is several times the band budget; every push must
  // still succeed (flow control spills cold blocks, never deadlocks).
  std::vector<std::string> fps;
  for (int p = 0; p < 8; ++p) {
    DataFrame part = KeyedFrame(2000 + p, false);
    fps.push_back(Fingerprint(part));
    ASSERT_TRUE(h.exchange
                    .PushPartition("m5@" + std::to_string(p),
                                   services::MakeChunk(part), 0, nullptr,
                                   nullptr, nullptr)
                    .ok())
        << "partition " << p;
  }
  EXPECT_GT(h.metrics.Get(CounterId::kShuffleBlocksSpilled), 0);
  EXPECT_GT(h.metrics.Get(CounterId::kExchangeBackpressureUs), 0);

  // Everything is still readable — memory-resident or from disk.
  for (int p = 0; p < 8; ++p) {
    auto back = h.exchange.FetchPartition("m5@" + std::to_string(p), 0,
                                          nullptr, nullptr);
    ASSERT_TRUE(back.ok()) << back.status();
    auto df = services::AsDataFrame(*back);
    ASSERT_TRUE(df.ok());
    EXPECT_EQ(Fingerprint(**df), fps[p]) << "partition " << p;
  }
}

// ---------------------------------------------------------------------------
// Executor integration: block-loss lineage recovery and rollback hygiene
// ---------------------------------------------------------------------------

/// Emits a fixed deterministic frame — lineage recompute is byte-identical.
class FrameOp : public operators::ChunkOp {
 public:
  explicit FrameOp(int64_t rows, std::atomic<int>* runs = nullptr)
      : rows_(rows), runs_(runs) {}
  const char* type_name() const override { return "Frame"; }
  Status Execute(operators::ExecutionContext& ctx) const override {
    if (runs_ != nullptr) (*runs_)++;
    ctx.outputs[0] = services::MakeChunk(KeyedFrame(rows_, false));
    return Status::OK();
  }

 private:
  int64_t rows_;
  std::atomic<int>* runs_;
};

struct ExecHarness {
  Config config;
  Metrics metrics;
  services::StorageService storage;
  services::MetaService meta;
  Executor executor;

  explicit ExecHarness(Config c)
      : config(std::move(c)),
        storage(config, &metrics),
        executor(config, &metrics, &storage, &meta) {}

  Status Run(SubtaskGraph* g) {
    return executor.Run(g, std::chrono::steady_clock::now() +
                                std::chrono::seconds(30));
  }
};

/// src -> HashPartition mapper -> `partitions` groupby reducers, split into
/// one mapper subtask and one subtask per reducer.
struct ShuffleGraph {
  ChunkGraph cg;
  ChunkNode* mapper = nullptr;
  std::vector<ChunkNode*> reducers;

  SubtaskGraph MapperOnly() {
    SubtaskGraph g;
    Subtask st;
    st.id = 0;
    st.chunk_nodes = {mapper->inputs[0], mapper};
    st.outputs = {mapper};
    g.subtasks = {st};
    return g;
  }

  SubtaskGraph ReducersOnly() {
    SubtaskGraph g;
    for (size_t i = 0; i < reducers.size(); ++i) {
      Subtask st;
      st.id = static_cast<int>(i);
      st.chunk_nodes = {reducers[i]};
      st.outputs = {reducers[i]};
      st.external_inputs = {mapper};
      g.subtasks.push_back(st);
    }
    return g;
  }
};

std::unique_ptr<ShuffleGraph> MakeShuffleGraph(int partitions) {
  auto sg = std::make_unique<ShuffleGraph>();
  ChunkNode* src =
      sg->cg.AddNode(std::make_shared<FrameOp>(6000), {});
  sg->mapper = sg->cg.AddNode(
      std::make_shared<operators::HashPartitionChunkOp>(
          std::vector<std::string>{"k"}, partitions),
      {src});
  for (int p = 0; p < partitions; ++p) {
    sg->reducers.push_back(sg->cg.AddNode(
        std::make_shared<operators::GroupByShuffleReduceChunkOp>(
            p, std::vector<std::string>{"k"},
            std::vector<dataframe::AggSpec>{
                {"v", AggFunc::kSum, "s"}},
            /*decomposed=*/false),
        {sg->mapper}));
  }
  return sg;
}

TEST(ExchangeRecoveryTest, LostBlockRebuiltByRerunningMapper) {
  Config c = SmallBlockConfig();
  c.num_workers = 1;
  c.bands_per_worker = 2;
  ExecHarness h(c);

  // Baseline: full pipeline with no loss, remember reducer fingerprints.
  auto base = MakeShuffleGraph(2);
  {
    SubtaskGraph m = base->MapperOnly();
    ASSERT_TRUE(h.Run(&m).ok());
    SubtaskGraph r = base->ReducersOnly();
    ASSERT_TRUE(h.Run(&r).ok());
  }
  std::vector<std::string> expected;
  for (ChunkNode* red : base->reducers) {
    auto chunk = h.storage.Get(red->key, 0);
    ASSERT_TRUE(chunk.ok());
    auto df = services::AsDataFrame(*chunk);
    ASSERT_TRUE(df.ok());
    expected.push_back(Fingerprint(**df));
  }

  // Victim run: execute the mappers, then chaos-drop one block before any
  // reducer reads it. The reducer's fetch surfaces kChunkLost on the block
  // key; lineage resolves it to the producing mapper, which re-runs and
  // re-publishes the identical deterministic stream.
  ExecHarness h2(c);
  auto sg = MakeShuffleGraph(2);
  SubtaskGraph m = sg->MapperOnly();
  ASSERT_TRUE(h2.Run(&m).ok());
  const std::string victim =
      ExchangeService::BlockKey(sg->mapper->key + "@0", 0);
  ASSERT_TRUE(h2.storage.Has(victim));
  ASSERT_TRUE(h2.storage.DropChunk(victim).ok());

  SubtaskGraph r = sg->ReducersOnly();
  ASSERT_TRUE(h2.Run(&r).ok());
  EXPECT_GT(h2.metrics.Get(CounterId::kChunksRecovered), 0);
  EXPECT_GT(h2.metrics.Get(CounterId::kShuffleBlocksRecovered), 0);
  for (size_t i = 0; i < sg->reducers.size(); ++i) {
    auto chunk = h2.storage.Get(sg->reducers[i]->key, 0);
    ASSERT_TRUE(chunk.ok());
    auto df = services::AsDataFrame(*chunk);
    ASSERT_TRUE(df.ok());
    EXPECT_EQ(Fingerprint(**df), expected[i]) << "reducer " << i;
  }
}

TEST(ExchangeRecoveryTest, RetriedMapperLeavesNoStaleBlocks) {
  // Satellite-1 regression: a mapper that dies mid-partition (retryable
  // fault after some blocks were already published) is rolled back with
  // tombstones; the retry re-publishes the same deterministic stream with
  // no duplicate-key collisions and no stale blocks left behind.
  class FlakyPartitionOp : public operators::ChunkOp {
   public:
    FlakyPartitionOp(std::vector<std::string> keys, int partitions,
                     int fail_times)
        : inner_(std::move(keys), partitions), remaining_(fail_times) {}
    const char* type_name() const override { return "FlakyHashPartition"; }
    bool fusible() const override { return false; }
    bool is_shuffle_map() const override { return true; }
    Status Execute(operators::ExecutionContext& ctx) const override {
      // Emit every partition, then die: all blocks of this attempt are
      // already in the exchange when the failure surfaces.
      XORBITS_RETURN_NOT_OK(inner_.Execute(ctx));
      if (remaining_.fetch_sub(1) > 0) {
        return Status::IOError("mapper died after publishing blocks");
      }
      return Status::OK();
    }

   private:
    operators::HashPartitionChunkOp inner_;
    mutable std::atomic<int> remaining_;
  };

  Config c = SmallBlockConfig();
  c.num_workers = 1;
  c.bands_per_worker = 2;
  ExecHarness h(c);
  ChunkGraph cg;
  ChunkNode* src = cg.AddNode(std::make_shared<FrameOp>(6000), {});
  ChunkNode* mapper = cg.AddNode(
      std::make_shared<FlakyPartitionOp>(std::vector<std::string>{"k"}, 2,
                                         /*fail_times=*/1),
      {src});
  SubtaskGraph g;
  Subtask st;
  st.id = 0;
  st.chunk_nodes = {src, mapper};
  st.outputs = {mapper};
  g.subtasks = {st};
  ASSERT_TRUE(h.Run(&g).ok());
  EXPECT_EQ(h.metrics.Get(CounterId::kSubtasksRetried), 1);

  // The retry's stream is complete, intact and readable; both partitions
  // carry exactly the rows the fault-free mapper would have produced.
  for (int p = 0; p < 2; ++p) {
    const std::string part = mapper->key + "@" + std::to_string(p);
    EXPECT_TRUE(h.executor.exchange()->PartitionIntact(part)) << part;
    auto back = h.executor.exchange()->FetchPartition(part, 0, nullptr,
                                                      nullptr);
    ASSERT_TRUE(back.ok()) << back.status();
  }
}

// ---------------------------------------------------------------------------
// End-to-end checksum identity: threads x encodings vs the kPandasLike oracle
// ---------------------------------------------------------------------------

Config SweepConfig(int cpus) {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  c.cpus_per_band = cpus;
  c.band_memory_limit = 256LL << 20;
  c.chunk_store_limit = 64LL << 10;  // many chunks -> real shuffles
  c.shuffle_block_bytes = 8 << 10;   // many blocks per partition
  c.reduce_policy = ReducePolicy::kShuffle;  // force shuffle-reduce
  c.task_deadline_ms = 60000;
  return c;
}

/// `dict` dict-encodes the string key column, so the same rows flow
/// through the exchange under both physical encodings.
DataFrame SweepFrame(int64_t n, bool dict) {
  std::vector<int64_t> v(n);
  std::vector<std::string> s(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = static_cast<int64_t>((i * 9176ULL) % 10007);
    s[i] = "grp_" + std::to_string((i * 2654435761ULL) % 53);
  }
  Column sc = Column::String(std::move(s));
  if (dict) sc = sc.DictEncode();
  DataFrame df;
  EXPECT_TRUE(df.SetColumn("s", std::move(sc)).ok());
  EXPECT_TRUE(df.SetColumn("v", Column::Int64(std::move(v))).ok());
  return df;
}

TEST(HashPartitionTest, EachPartitionKeepsItsRowsInRowOrder) {
  // Reference routing: every row goes to RowHasher::Hash(row) % P, and a
  // partition lists its rows in row order — under either key encoding and
  // with the hash fanned out over a pool.
  struct Collect final : operators::ExecutionContext::ShuffleSink {
    std::vector<services::ChunkDataPtr> parts;
    Status Emit(int partition, services::ChunkDataPtr data) override {
      if (partition >= static_cast<int>(parts.size())) {
        parts.resize(partition + 1);
      }
      parts[partition] = std::move(data);
      return Status::OK();
    }
  };
  constexpr int kPartitions = 5;
  ThreadPool pool(4);
  ThreadPool* prev = SetCurrentThreadPool(&pool);
  for (bool dict : {false, true}) {
    const DataFrame df = SweepFrame(50000, dict);
    const dataframe::RowHasher hasher({df.GetColumn("s").ValueOrDie(),
                                       df.GetColumn("v").ValueOrDie()});
    std::vector<std::vector<int64_t>> rows(kPartitions);
    for (int64_t i = 0; i < df.num_rows(); ++i) {
      rows[hasher.Hash(i) % kPartitions].push_back(i);
    }
    const operators::HashPartitionChunkOp op({"s", "v"}, kPartitions);
    Collect sink;
    operators::ExecutionContext ctx;
    ctx.inputs = {services::MakeChunk(df)};
    ctx.shuffle_sink = &sink;
    ASSERT_TRUE(op.Execute(ctx).ok());
    ASSERT_EQ(sink.parts.size(), static_cast<size_t>(kPartitions));
    for (int p = 0; p < kPartitions; ++p) {
      EXPECT_FALSE(rows[p].empty());
      auto got = services::AsDataFrame(sink.parts[p]);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Fingerprint(**got), Fingerprint(df.TakeRows(rows[p])))
          << "partition " << p << " dict " << dict;
    }
  }
  SetCurrentThreadPool(prev);
}

/// filter -> global sort: exercises the range-partition shuffle.
std::string RunFilterSort(const Config& c, bool dict) {
  Session session(c);
  auto df = FromPandas(&session, SweepFrame(12000, dict));
  EXPECT_TRUE(df.ok());
  auto filtered = df->Filter(operators::CompareExpr(
      operators::Col("v"), dataframe::CmpOp::kLt, operators::Lit(int64_t{5000})));
  EXPECT_TRUE(filtered.ok());
  auto sorted = filtered->SortValues({"s", "v"}, {true, false});
  EXPECT_TRUE(sorted.ok());
  auto out = sorted->Fetch();
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return "<failed>";
  return Fingerprint(*out);
}

/// groupby -> join: exercises the hash-partition shuffles of both ops.
std::string RunGroupByJoin(const Config& c, bool dict) {
  Session session(c);
  auto df = FromPandas(&session, SweepFrame(12000, dict));
  EXPECT_TRUE(df.ok());
  auto gb = df->GroupByAgg({"s"}, {{"v", AggFunc::kSum, "vs"},
                                   {"v", AggFunc::kNunique, "vu"}});
  EXPECT_TRUE(gb.ok());
  dataframe::MergeOptions opts;
  opts.on = {"s"};
  auto joined = df->Merge(*gb, opts);
  EXPECT_TRUE(joined.ok());
  auto sorted = joined->SortValues({"s", "v"}, {true, true});
  EXPECT_TRUE(sorted.ok());
  auto out = sorted->Fetch();
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return "<failed>";
  return Fingerprint(*out);
}

class ExchangeSweepTest : public ::testing::TestWithParam<int> {};

/// The oracle: one band, no tiling, so no shuffle at all.
Config OracleConfig() {
  Config c = Config::Preset(EngineKind::kPandasLike);
  c.task_deadline_ms = 60000;
  return c;
}

TEST_P(ExchangeSweepTest, FilterSortChecksumInvariant) {
  // The single-band run is the reference; the exchange at this thread
  // count must match it under both string encodings.
  static const std::string baseline =
      RunFilterSort(OracleConfig(), /*dict=*/false);
  for (bool dict : {false, true}) {
    EXPECT_EQ(RunFilterSort(SweepConfig(GetParam()), dict), baseline)
        << "threads=" << GetParam() << " dict=" << dict;
  }
}

TEST_P(ExchangeSweepTest, GroupByJoinChecksumInvariant) {
  static const std::string baseline =
      RunGroupByJoin(OracleConfig(), /*dict=*/false);
  for (bool dict : {false, true}) {
    EXPECT_EQ(RunGroupByJoin(SweepConfig(GetParam()), dict), baseline)
        << "threads=" << GetParam() << " dict=" << dict;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ExchangeSweepTest,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Chaos: block loss and mapper death under small blocks, seeded matrix
// ---------------------------------------------------------------------------

Config ChaosPipelineConfig() {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  c.band_memory_limit = 256LL << 20;
  c.chunk_store_limit = 64LL << 10;
  c.shuffle_block_bytes = 1 << 10;  // many tiny blocks: maximal exposure
  c.task_deadline_ms = 60000;
  return c;
}

std::string RunCensus(const Config& config) {
  Session session(config);
  auto r = workloads::pipelines::Census(&session, 20000, 44);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return "<failed>";
  return Fingerprint(*r);
}

const std::string& BaselineCensus() {
  static const std::string* baseline =
      new std::string(RunCensus(ChaosPipelineConfig()));
  return *baseline;
}

class ExchangeChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExchangeChaosTest, ChunkLossWithBlockStreamsIsInvisible) {
  // Chaos chunk-loss draws from every lineage-tracked key — including
  // in-flight exchange blocks (provisional lineage). Results must stay
  // byte-identical to the fault-free run.
  Config c = ChaosPipelineConfig();
  c.fault_seed = GetParam();
  c.fault_chunk_losses = {4, 9, 14};
  Session session(c);
  auto r = workloads::pipelines::Census(&session, 20000, 44);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Fingerprint(*r), BaselineCensus());
  EXPECT_GT(session.metrics().parent()->Get(CounterId::kChunksRecovered), 0);
}

TEST_P(ExchangeChaosTest, MapperDeathMidPartitionIsInvisible) {
  // A band dies while mappers are streaming blocks: their partial streams
  // are tombstoned with the band, retries re-publish from scratch, and the
  // final table is byte-identical.
  Config c = ChaosPipelineConfig();
  c.fault_seed = GetParam();
  c.fault_band_kills = {
      {3, static_cast<int>(GetParam() % c.total_bands())}};
  Session session(c);
  auto r = workloads::pipelines::Census(&session, 20000, 44);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Fingerprint(*r), BaselineCensus());
  EXPECT_EQ(session.metrics().parent()->Get(CounterId::kBandsBlacklisted),
            1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExchangeChaosTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace xorbits
