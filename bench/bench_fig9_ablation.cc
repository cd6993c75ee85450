// Reproduces Fig. 9: ablation of dynamic tiling and graph fusion.
// (a) merge-heavy TPC-H queries Q2 (4 merges) and Q7 (many merges) with
//     dynamic tiling on vs off (everything else identical to the full
//     Xorbits configuration);
// (b) Q7 and Q8 with coloring-based graph-level fusion on vs off, and Q1
//     (expression-heavy) with operator-level fusion on vs off.
// Each configuration is the Xorbits preset with one optimizer pass list
// changed: graph-level fusion is the `graph_fusion` subtask pass,
// operator-level fusion the `op_fusion` + `cse` chunk passes.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "io/tpch_gen.h"
#include "workloads/pipelines.h"
#include "workloads/tpch_queries.h"

namespace xorbits::bench {
namespace {

/// One ablation point: dynamic tiling plus the chunk and subtask pass
/// lists (the tileable pipeline stays the preset's).
struct Ablation {
  bool dynamic = true;
  std::vector<std::string> chunk = OptimizerSpec{}.chunk;
  std::vector<std::string> subtask = OptimizerSpec{}.subtask;
};

const Ablation kFull;
const Ablation kStatic{/*dynamic=*/false};
const Ablation kNoGraphFusion{true, OptimizerSpec{}.chunk, {}};
const Ablation kNoOpFusion{true, {}, OptimizerSpec{}.subtask};

RunStats RunQuery(int q, const std::string& dir, const Ablation& a) {
  Config c = BenchConfig(EngineKind::kXorbits, 2, 2, /*band_mb=*/24,
                         /*chunk_kb=*/512, /*deadline_ms=*/180000);
  c.dynamic_tiling = a.dynamic;
  c.optimizer.chunk = a.chunk;
  c.optimizer.subtask = a.subtask;
  return TimedRun(std::move(c), [&](core::Session* s) {
    return workloads::tpch::RunQuery(q, s, dir).status();
  });
}

void Run() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "xorbits_fig9").string();
  Status gen = io::tpch::GenerateFiles(0.05, dir);
  if (!gen.ok()) {
    std::printf("generator failed: %s\n", gen.ToString().c_str());
    return;
  }

  PrintHeader("Fig. 9(a): dynamic tiling ablation (modeled seconds)");
  std::printf("%-6s %-12s %-12s %-10s\n", "query", "dynamic_on",
              "dynamic_off", "speedup");
  for (int q : {2, 7}) {
    RunStats on = RunQuery(q, dir, kFull);
    RunStats off = RunQuery(q, dir, kStatic);
    std::printf("Q%-5d %-12.3f %-12.3f %-9.2fx  %s%s\n", q, on.sim_s,
                off.sim_s, on.sim_s > 0 ? off.sim_s / on.sim_s : 0.0,
                on.status.ok() ? "" : "on:FAILED ",
                off.status.ok() ? "" : "off:FAILED");
  }
  std::printf("(paper: 7.08x on Q2, 10.59x on Q7)\n");

  // The headline dynamic-tiling scenario: a skewed imbalanced merge (the
  // TPCx-AI UC10 shape). Without runtime metadata the engine hash-shuffles
  // the hot key into one reducer; with it, the small side is broadcast.
  {
    auto uc10 = [](bool dynamic) {
      Config c = BenchConfig(EngineKind::kXorbits, 2, 2, /*band_mb=*/96,
                             /*chunk_kb=*/1024, /*deadline_ms=*/180000);
      c.dynamic_tiling = dynamic;
      return TimedRun(std::move(c), [](core::Session* s) {
        return workloads::pipelines::TpcxAiUC10(s, 300000, 1000).status();
      });
    };
    RunStats on = uc10(true);
    RunStats off = uc10(false);
    std::printf("%-6s %-12.3f %-12.3f %-9.2fx  (skewed merge, UC10 shape)\n",
                "uc10", on.sim_s, off.sim_s,
                on.sim_s > 0 ? off.sim_s / on.sim_s : 0.0);
  }

  PrintHeader("Fig. 9(b): graph-level fusion ablation (modeled seconds)");
  std::printf("%-6s %-12s %-12s %-10s\n", "query", "fusion_on",
              "fusion_off", "speedup");
  for (int q : {7, 8}) {
    RunStats on = RunQuery(q, dir, kFull);
    RunStats off = RunQuery(q, dir, kNoGraphFusion);
    std::printf("Q%-5d %-12.3f %-12.3f %-9.2fx  %s%s\n", q, on.sim_s,
                off.sim_s, on.sim_s > 0 ? off.sim_s / on.sim_s : 0.0,
                on.status.ok() ? "" : "on:FAILED ",
                off.status.ok() ? "" : "off:FAILED");
  }
  std::printf("(paper: 3.80x on Q7, 2.04x on Q8)\n");

  PrintHeader("Fig. 9(b) cont.: operator-level fusion ablation");
  std::printf("%-6s %-12s %-12s %-10s\n", "query", "opfuse_on",
              "opfuse_off", "improvement");
  for (int q : {1, 6}) {
    RunStats on = RunQuery(q, dir, kFull);
    RunStats off = RunQuery(q, dir, kNoOpFusion);
    const double imp =
        off.sim_s > 0 ? 100.0 * (off.sim_s - on.sim_s) / off.sim_s : 0.0;
    std::printf("Q%-5d %-12.3f %-12.3f %-9.1f%%\n", q, on.sim_s, off.sim_s,
                imp);
  }
  std::printf("(paper: operator-level fusion provides a 16%% improvement)\n");

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xorbits::bench

int main(int argc, char** argv) {
  xorbits::bench::InitTrace(argc, argv);
  xorbits::bench::Run();
  xorbits::bench::FinishTrace();
  return 0;
}
