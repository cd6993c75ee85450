#ifndef XORBITS_BENCH_BENCH_UTIL_H_
#define XORBITS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/tracing.h"
#include "core/session.h"

namespace xorbits::bench {

/// Shared `--trace-out=<file>` support. One Tracer is shared by every traced
/// session in the process; each registers its own track group. To keep
/// Perfetto usable, only the first kMaxTracedRuns sessions are traced in
/// benches that run dozens of configurations.
struct BenchTrace {
  std::unique_ptr<Tracer> tracer;
  std::string out_path;
  int traced_runs = 0;
  static constexpr int kMaxTracedRuns = 8;

  static BenchTrace& Get() {
    static BenchTrace instance;
    return instance;
  }
};

/// Parses --trace-out=<file> (every bench accepts it); call once at the top
/// of main. Tracing stays off (null sink everywhere) without the flag.
inline void InitTrace(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      BenchTrace& bt = BenchTrace::Get();
      bt.out_path = arg + 12;
      bt.tracer = std::make_unique<Tracer>();
    }
  }
}

/// Writes the Chrome/Perfetto JSON plus a `<file>.report.txt` run report and
/// prints the reports; call once at the end of main. No-op when tracing is
/// off.
inline void FinishTrace() {
  BenchTrace& bt = BenchTrace::Get();
  if (!bt.tracer) return;
  Status st = bt.tracer->WriteChromeTrace(bt.out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n", st.message().c_str());
  } else {
    std::printf("\ntrace written to %s (%lld events)\n", bt.out_path.c_str(),
                static_cast<long long>(bt.tracer->event_count()));
  }
  const std::string report = bt.tracer->RenderAllReports();
  const std::string report_path = bt.out_path + ".report.txt";
  FILE* f = std::fopen(report_path.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(report.data(), 1, report.size(), f);
    std::fclose(f);
    std::printf("run report written to %s\n", report_path.c_str());
  }
  std::printf("%s", report.c_str());
}

/// Engines compared throughout the evaluation (paper Table IV).
inline std::vector<EngineKind> AllEngines() {
  return {EngineKind::kPandasLike, EngineKind::kSparkLike,
          EngineKind::kDaskLike, EngineKind::kModinLike,
          EngineKind::kXorbits};
}

/// Simulated-cluster config for benches. Band budgets and chunk limits are
/// scaled to laptop-size data; the data-to-memory *ratio* tracks the
/// paper's testbed regime (see DESIGN.md §1).
inline Config BenchConfig(EngineKind kind, int workers, int bands_per_worker,
                          int64_t band_mb, int64_t chunk_kb,
                          int64_t deadline_ms) {
  Config c = Config::Preset(kind);
  if (kind != EngineKind::kPandasLike) {
    c.num_workers = workers;
    c.bands_per_worker = bands_per_worker;
  }
  c.band_memory_limit = band_mb << 20;
  c.chunk_store_limit = chunk_kb << 10;
  c.task_deadline_ms = deadline_ms;
  c.spill_dir = "/tmp/xorbits_bench_spill_" +
                std::string(EngineKindName(kind));
  return c;
}

struct RunStats {
  Status status = Status::OK();
  double wall_s = 0;
  double sim_s = 0;  // modeled cluster time (makespan; see Metrics)
  int64_t transfer_bytes = 0;
  int64_t spill_bytes = 0;
  int64_t oom_events = 0;
  int64_t subtasks = 0;
  int64_t yields = 0;
};

/// Points `config.trace` at the shared bench tracer when tracing is on.
/// Only full-Xorbits runs are traced (the baselines' sessions would multiply
/// the track count without adding information), and only up to the traced-run
/// cap.
inline void MaybeAttachTrace(Config* config) {
  BenchTrace& bt = BenchTrace::Get();
  if (!bt.tracer || config->engine != EngineKind::kXorbits ||
      bt.traced_runs >= BenchTrace::kMaxTracedRuns) {
    return;
  }
  bt.traced_runs++;
  config->trace.sink = bt.tracer.get();
}

/// Runs `body` inside a fresh session and snapshots timing + metrics.
inline RunStats TimedRun(Config config,
                         const std::function<Status(core::Session*)>& body) {
  MaybeAttachTrace(&config);
  core::Session session(std::move(config));
  RunStats stats;
  auto t0 = std::chrono::steady_clock::now();
  stats.status = body(&session);
  auto t1 = std::chrono::steady_clock::now();
  stats.wall_s = std::chrono::duration<double>(t1 - t0).count();
  // One consistent snapshot instead of per-field reads: band workers (and
  // their kernel pools) may still be running when a body bails out early.
  // Run counters live on the session, storage counters on its cluster.
  const MetricsSnapshot m = session.metrics().Snapshot();
  const MetricsSnapshot cluster = session.metrics().parent()->Snapshot();
  stats.sim_s = static_cast<double>(m.Counter("simulated_us")) / 1e6;
  stats.transfer_bytes = cluster.Counter("bytes_transferred");
  stats.spill_bytes = cluster.Counter("bytes_spilled");
  stats.oom_events = cluster.Counter("oom_events");
  stats.subtasks = m.Counter("subtasks_executed");
  stats.yields = m.Counter("dynamic_yields");
  return stats;
}

/// Failure classification used by Tables I/II.
inline const char* Classify(const Status& s) {
  if (s.ok()) return "ok";
  switch (s.code()) {
    case StatusCode::kNotImplemented: return "api";
    case StatusCode::kTimeout: return "hang";
    case StatusCode::kOutOfMemory: return "oom";
    default: return "error";
  }
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// Comma-joined pass list, "-" when empty.
inline std::string JoinPasses(const std::vector<std::string>& passes) {
  if (passes.empty()) return "-";
  std::string out;
  for (const std::string& p : passes) {
    if (!out.empty()) out += ',';
    out += p;
  }
  return out;
}

/// Prints the engine-configuration overview (the Table IV analogue: which
/// policy stack each emulated engine runs, with its optimizer pass lists).
inline void PrintEngineTable() {
  PrintHeader("Engine configurations (Table IV analogue)");
  std::printf("%-10s %-8s %-8s %-6s %s\n", "engine", "dynamic", "reduce",
              "spill", "passes (tileable | chunk | subtask)");
  for (EngineKind kind : AllEngines()) {
    Config c = Config::Preset(kind);
    const char* reduce = c.reduce_policy == ReducePolicy::kAuto ? "auto"
                         : c.reduce_policy == ReducePolicy::kTree ? "tree"
                                                                  : "shuffle";
    std::printf("%-10s %-8s %-8s %-6s %s | %s | %s\n", EngineKindName(kind),
                c.dynamic_tiling ? "yes" : "no", reduce,
                c.enable_spill ? "yes" : "no",
                JoinPasses(c.optimizer.tileable).c_str(),
                JoinPasses(c.optimizer.chunk).c_str(),
                JoinPasses(c.optimizer.subtask).c_str());
  }
}

}  // namespace xorbits::bench

#endif  // XORBITS_BENCH_BENCH_UTIL_H_
