#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "operators/dataframe_ops.h"
#include "operators/source_ops.h"
#include "scheduler/band.h"
#include "scheduler/executor.h"
#include "scheduler/placement.h"

namespace xorbits::scheduler {
namespace {

using graph::ChunkGraph;
using graph::ChunkNode;
using graph::Subtask;
using graph::SubtaskGraph;

Config FourBands() {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  c.band_memory_limit = 64LL << 20;
  return c;
}

TEST(BandTest, WorkerMajorEnumeration) {
  auto bands = BandsFromConfig(FourBands());
  ASSERT_EQ(bands.size(), 4u);
  EXPECT_EQ(bands[0].worker, 0);
  EXPECT_EQ(bands[1].worker, 0);
  EXPECT_EQ(bands[1].numa, 1);
  EXPECT_EQ(bands[2].worker, 1);
  EXPECT_EQ(bands[3].id, 3);
  EXPECT_EQ(bands[2].name(), "w1:numa0");
}

SubtaskGraph TwoChains() {
  // Two independent two-stage chains.
  SubtaskGraph g;
  for (int i = 0; i < 4; ++i) {
    Subtask st;
    st.id = i;
    g.subtasks.push_back(st);
  }
  g.subtasks[1].preds = {0};
  g.subtasks[0].succs = {1};
  g.subtasks[3].preds = {2};
  g.subtasks[2].succs = {3};
  return g;
}

TEST(PlacementTest, BreadthFirstSpreadsInitials) {
  SubtaskGraph g = TwoChains();
  AssignBands(FourBands(), &g);
  // The two source subtasks land on different bands.
  EXPECT_NE(g.subtasks[0].band, g.subtasks[2].band);
}

TEST(PlacementTest, LocalityFollowsInputBytes) {
  ChunkGraph cg;
  auto op = std::make_shared<operators::ConcatChunkOp>();
  ChunkNode* big = cg.AddNode(op, {});
  big->band = 3;
  big->meta.nbytes = 1 << 20;
  ChunkNode* small = cg.AddNode(op, {});
  small->band = 1;
  small->meta.nbytes = 1 << 10;

  SubtaskGraph g;
  Subtask st;
  st.id = 0;
  st.external_inputs = {big, small};
  g.subtasks.push_back(st);
  AssignBands(FourBands(), &g);
  EXPECT_EQ(g.subtasks[0].band, 3);  // goes where the bytes are
}

TEST(PlacementTest, LocalityDisabledRoundRobins) {
  ChunkGraph cg;
  auto op = std::make_shared<operators::ConcatChunkOp>();
  ChunkNode* big = cg.AddNode(op, {});
  big->band = 3;
  big->meta.nbytes = 1 << 20;
  Config c = FourBands();
  c.locality_aware = false;
  SubtaskGraph g;
  Subtask a, b;
  a.id = 0;
  a.external_inputs = {big};
  b.id = 1;
  b.external_inputs = {big};
  g.subtasks = {a, b};
  AssignBands(c, &g);
  EXPECT_NE(g.subtasks[0].band, g.subtasks[1].band);
}

TEST(PlacementTest, OverloadedBandYieldsToIdle) {
  ChunkGraph cg;
  auto op = std::make_shared<operators::ConcatChunkOp>();
  ChunkNode* hot = cg.AddNode(op, {});
  hot->band = 0;
  hot->meta.nbytes = 1 << 20;
  SubtaskGraph g;
  for (int i = 0; i < 12; ++i) {
    Subtask st;
    st.id = i;
    st.external_inputs = {hot};
    g.subtasks.push_back(st);
  }
  AssignBands(FourBands(), &g);
  // Strict locality would pile all 12 on band 0; the load-balance valve
  // must move some elsewhere.
  int on_zero = 0;
  for (const auto& st : g.subtasks) on_zero += st.band == 0 ? 1 : 0;
  EXPECT_LT(on_zero, 12);
  EXPECT_GT(on_zero, 0);
}

// --- executor integration ---

class CountingOp : public operators::ChunkOp {
 public:
  explicit CountingOp(std::atomic<int>* counter) : counter_(counter) {}
  const char* type_name() const override { return "Counting"; }
  Status Execute(operators::ExecutionContext& ctx) const override {
    (*counter_)++;
    ctx.outputs[0] = services::MakeChunk(dataframe::Scalar::Int(1));
    return Status::OK();
  }

 private:
  std::atomic<int>* counter_;
};

class FailingOp : public operators::ChunkOp {
 public:
  const char* type_name() const override { return "Failing"; }
  Status Execute(operators::ExecutionContext& ctx) const override {
    return Status::ExecutionError("boom");
  }
};

class SlowOp : public operators::ChunkOp {
 public:
  const char* type_name() const override { return "Slow"; }
  Status Execute(operators::ExecutionContext& ctx) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ctx.outputs[0] = services::MakeChunk(dataframe::Scalar::Int(1));
    return Status::OK();
  }
};

struct Harness {
  Config config = FourBands();
  Metrics metrics;
  services::StorageService storage{config, &metrics};
  services::MetaService meta;
  Executor executor{config, &metrics, &storage, &meta};

  Status Run(SubtaskGraph* g,
             int64_t deadline_ms = 10000) {
    return executor.Run(
        g, std::chrono::steady_clock::now() +
               std::chrono::milliseconds(deadline_ms));
  }
};

TEST(ExecutorTest, RunsDagAndPersistsOutputs) {
  Harness h;
  ChunkGraph cg;
  std::atomic<int> count{0};
  auto op = std::make_shared<CountingOp>(&count);
  ChunkNode* a = cg.AddNode(op, {});
  ChunkNode* b = cg.AddNode(op, {a});
  SubtaskGraph g;
  Subtask s0, s1;
  s0.id = 0;
  s0.chunk_nodes = {a};
  s0.outputs = {a};
  s0.succs = {1};
  s1.id = 1;
  s1.chunk_nodes = {b};
  s1.outputs = {b};
  s1.external_inputs = {a};
  s1.preds = {0};
  g.subtasks = {s0, s1};
  ASSERT_TRUE(h.Run(&g).ok());
  EXPECT_EQ(count.load(), 2);
  EXPECT_TRUE(a->executed);
  EXPECT_TRUE(b->executed);
  EXPECT_TRUE(h.storage.Has(a->key));
  EXPECT_TRUE(h.meta.Has(b->key));
  EXPECT_GT(h.metrics.Get(CounterId::kSimulatedUs), 0);
}

TEST(ExecutorTest, FailurePropagatesAndCancels) {
  Harness h;
  ChunkGraph cg;
  std::atomic<int> count{0};
  ChunkNode* bad = cg.AddNode(std::make_shared<FailingOp>(), {});
  ChunkNode* dependent =
      cg.AddNode(std::make_shared<CountingOp>(&count), {bad});
  SubtaskGraph g;
  Subtask s0, s1;
  s0.id = 0;
  s0.chunk_nodes = {bad};
  s0.outputs = {bad};
  s0.succs = {1};
  s1.id = 1;
  s1.chunk_nodes = {dependent};
  s1.outputs = {dependent};
  s1.preds = {0};
  g.subtasks = {s0, s1};
  Status st = h.Run(&g);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
  EXPECT_EQ(count.load(), 0);  // dependent never ran
  EXPECT_FALSE(dependent->executed);
  EXPECT_GT(h.metrics.Get(CounterId::kSubtasksFailed), 0);
}

TEST(ExecutorTest, DeadlineReportsHang) {
  Harness h;
  ChunkGraph cg;
  auto slow = std::make_shared<SlowOp>();
  SubtaskGraph g;
  std::vector<ChunkNode*> nodes;
  for (int i = 0; i < 8; ++i) {
    ChunkNode* n = cg.AddNode(slow, {});
    Subtask st;
    st.id = i;
    st.chunk_nodes = {n};
    st.outputs = {n};
    g.subtasks.push_back(st);
  }
  Status st = h.Run(&g, /*deadline_ms=*/100);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTimeout());
}

TEST(ExecutorTest, EmptyGraphIsOk) {
  Harness h;
  SubtaskGraph g;
  EXPECT_TRUE(h.Run(&g).ok());
}

TEST(ExecutorTest, SequentialRunsReusePersistentWorkers) {
  Harness h;
  std::atomic<int> count{0};
  auto op = std::make_shared<CountingOp>(&count);
  for (int round = 0; round < 3; ++round) {
    ChunkGraph cg;
    ChunkNode* n = cg.AddNode(op, {});
    // Fresh graphs restart chunk ids, and the shared storage service
    // rejects duplicate keys across rounds.
    n->key = "persist_round" + std::to_string(round);
    SubtaskGraph g;
    Subtask st;
    st.id = 0;
    st.chunk_nodes = {n};
    st.outputs = {n};
    g.subtasks = {st};
    ASSERT_TRUE(h.Run(&g).ok()) << "round " << round;
  }
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(h.metrics.Get(CounterId::kSubtasksExecuted), 3);
}

// Burns kernel CPU through the morsel loop, the shape whose cost used to
// vanish from the model when it ran on pool threads.
class BusyOp : public operators::ChunkOp {
 public:
  const char* type_name() const override { return "Busy"; }
  Status Execute(operators::ExecutionContext& ctx) const override {
    constexpr int64_t kN = 1 << 22;
    const double total = ParallelReduce(
        0, kN, 1 << 16, 0.0,
        [](int64_t lo, int64_t hi) {
          double s = 0;
          for (int64_t i = lo; i < hi; ++i) {
            s += static_cast<double>(i % 1000) * 1e-6;
          }
          return s;
        },
        [](double a, double b) { return a + b; });
    ctx.outputs[0] = services::MakeChunk(dataframe::Scalar::Float(total));
    return Status::OK();
  }
};

struct ConfiguredHarness {
  Config config;
  Metrics metrics;
  services::StorageService storage;
  services::MetaService meta;
  Executor executor;

  explicit ConfiguredHarness(Config c)
      : config(std::move(c)),
        storage(config, &metrics),
        executor(config, &metrics, &storage, &meta) {}

  Status Run(SubtaskGraph* g) {
    return executor.Run(g, std::chrono::steady_clock::now() +
                               std::chrono::seconds(60));
  }
};

SubtaskGraph BusyGraph(ChunkGraph* cg, int n_subtasks) {
  auto op = std::make_shared<BusyOp>();
  SubtaskGraph g;
  for (int i = 0; i < n_subtasks; ++i) {
    ChunkNode* n = cg->AddNode(op, {});
    Subtask st;
    st.id = i;
    st.chunk_nodes = {n};
    st.outputs = {n};
    g.subtasks.push_back(st);
  }
  return g;
}

TEST(ExecutorTest, ParallelKernelCpuIsNotFree) {
  // The same graph must report comparable total kernel CPU whether the
  // morsels run serially on the band thread or fan out to pool threads —
  // the regression guard for the cost-model blind spot where pool-thread
  // work never entered simulated_us.
  Config serial_cfg = FourBands();
  serial_cfg.cpus_per_band = 1;
  Config parallel_cfg = FourBands();
  parallel_cfg.cpus_per_band = 4;

  ConfiguredHarness serial(serial_cfg);
  {
    ChunkGraph cg;
    SubtaskGraph g = BusyGraph(&cg, 4);
    ASSERT_TRUE(serial.Run(&g).ok());
  }
  ConfiguredHarness parallel(parallel_cfg);
  {
    ChunkGraph cg;
    SubtaskGraph g = BusyGraph(&cg, 4);
    ASSERT_TRUE(parallel.Run(&g).ok());
  }

  const double serial_cpu =
      static_cast<double>(serial.metrics.Get(CounterId::kKernelCpuUs));
  const double parallel_cpu =
      static_cast<double>(parallel.metrics.Get(CounterId::kKernelCpuUs));
  ASSERT_GT(serial_cpu, 0);
  ASSERT_GT(parallel_cpu, 0);
  // Identical work; generous bounds absorb scheduler/timer noise.
  EXPECT_GT(parallel_cpu, serial_cpu / 6.0);
  EXPECT_LT(parallel_cpu, serial_cpu * 6.0);

  // Dividing parallel CPU across modeled slots must shrink modeled time.
  EXPECT_LT(parallel.metrics.Get(CounterId::kSimulatedUs),
            serial.metrics.Get(CounterId::kSimulatedUs));
}

TEST(ExecutorTest, KernelPoolsAreCappedAtTheHardware) {
  // Modeled slots far beyond the host: the pools run at most the worker's
  // share of the hardware threads, results match a pool-less run, and the
  // modeled clock still divides parallel CPU by cpus_per_band.
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Config wide_cfg = FourBands();
  wide_cfg.cpus_per_band = 2 * hardware;
  Config serial_cfg = FourBands();
  serial_cfg.cpus_per_band = 1;
  ConfiguredHarness wide(wide_cfg);
  ConfiguredHarness serial(serial_cfg);
  const int cap = std::max(1, hardware / wide_cfg.num_workers);
  for (int w = 0; w < wide_cfg.num_workers; ++w) {
    EXPECT_GE(wide.executor.kernel_pool_threads(w), 1);
    EXPECT_LE(wide.executor.kernel_pool_threads(w), cap);
    EXPECT_EQ(serial.executor.kernel_pool_threads(w), 0);
  }

  ChunkGraph wide_cg, serial_cg;
  SubtaskGraph wide_g = BusyGraph(&wide_cg, 4);
  SubtaskGraph serial_g = BusyGraph(&serial_cg, 4);
  ASSERT_TRUE(wide.Run(&wide_g).ok());
  ASSERT_TRUE(serial.Run(&serial_g).ok());
  for (size_t i = 0; i < wide_g.subtasks.size(); ++i) {
    auto a = wide.storage.Get(wide_g.subtasks[i].outputs[0]->key, 0);
    auto b = serial.storage.Get(serial_g.subtasks[i].outputs[0]->key, 0);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*services::SerializeChunk(**a), *services::SerializeChunk(**b));
  }

  // parallel_us = ceil(pool CPU / cpus_per_band) per subtask, so scaling it
  // back by cpus_per_band recovers the measured kernel CPU to within one
  // rounding step per subtask.
  const int64_t slots = wide_cfg.cpus_per_band;
  int64_t rebuilt = 0, parallel_us = 0;
  for (const Subtask& st : wide_g.subtasks) {
    rebuilt += st.cost.serial_us + st.cost.parallel_us * slots;
    parallel_us += st.cost.parallel_us;
  }
  const int64_t kernel_cpu = wide.metrics.Get(CounterId::kKernelCpuUs);
  EXPECT_GT(parallel_us, 0);
  EXPECT_GE(rebuilt, kernel_cpu);
  EXPECT_LT(rebuilt,
            kernel_cpu + slots * static_cast<int64_t>(wide_g.subtasks.size()));
}

}  // namespace
}  // namespace xorbits::scheduler
