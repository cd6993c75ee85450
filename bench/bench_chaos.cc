// Chaos bench: cost of fault tolerance under injected failures.
//
// Runs the Census pipeline fault-free, then under three chaos modes
// (transient subtask faults at p=0.05 across three seeds, a mid-run band
// kill, a scheduled chunk loss) and reports per-run wall/modeled time plus
// the recovery counters. Writes BENCH_chaos.json.
//
// Acceptance tracked here: every chaos run must finish OK with the
// fault-free result checksum, the band-kill run must recover chunks from
// lineage, and chaos slowdown must stay under 2.5x fault-free.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads/pipelines.h"

namespace xorbits::bench {
namespace {

constexpr int64_t kRows = 200000;

Config ChaosConfig() {
  Config c = BenchConfig(EngineKind::kXorbits, /*workers=*/2,
                         /*bands_per_worker=*/2, /*band_mb=*/256,
                         /*chunk_kb=*/256, /*deadline_ms=*/120000);
  c.spill_dir = "/tmp/xorbits_bench_spill_chaos";
  return c;
}

/// Exact checksum of the result frame (FNV-1a over names, dtypes, validity
/// and raw value bytes) — chaos runs must reproduce the fault-free value.
uint64_t Checksum(const dataframe::DataFrame& df) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  };
  for (int ci = 0; ci < df.num_columns(); ++ci) {
    mix(df.column_name(ci));
    const dataframe::Column& c = df.column(ci);
    std::string buf;
    buf += static_cast<char>(c.dtype());
    for (int64_t i = 0; i < c.length(); ++i) {
      buf += c.IsValid(i) ? 'v' : 'n';
      if (c.IsValid(i)) c.AppendKeyBytes(i, &buf);
    }
    mix(buf);
  }
  return h;
}

struct ChaosRun {
  std::string name;
  RunStats stats;
  uint64_t checksum = 0;
  int64_t retried = 0;
  int64_t recovered = 0;
  int64_t blacklisted = 0;
  int64_t injected = 0;
  double recovery_ms = 0;
};

ChaosRun RunScenario(const std::string& name, const Config& config) {
  ChaosRun run;
  run.name = name;
  core::Session session(config);
  auto t0 = std::chrono::steady_clock::now();
  auto result = workloads::pipelines::Census(&session, kRows, 44);
  auto t1 = std::chrono::steady_clock::now();
  run.stats.status = result.status();
  run.stats.wall_s = std::chrono::duration<double>(t1 - t0).count();
  // Run counters live on the session; recovery and band counters on its
  // cluster, which also takes the retries and injected faults of lineage
  // recompute. The cluster serves this session alone, so the sums below
  // count each of the session's retries and faults once.
  const Metrics& m = session.metrics();
  const Metrics& cluster = *m.parent();
  run.stats.sim_s = static_cast<double>(m.Get(CounterId::kSimulatedUs)) / 1e6;
  run.stats.subtasks = m.Get(CounterId::kSubtasksExecuted);
  run.retried = m.Get(CounterId::kSubtasksRetried) +
                cluster.Get(CounterId::kSubtasksRetried);
  run.recovered = cluster.Get(CounterId::kChunksRecovered);
  run.blacklisted = cluster.Get(CounterId::kBandsBlacklisted);
  run.injected = m.Get(CounterId::kFaultsInjected) +
                 cluster.Get(CounterId::kFaultsInjected);
  run.recovery_ms =
      static_cast<double>(cluster.Get(CounterId::kRecoveryUs)) / 1e3;
  if (result.ok()) run.checksum = Checksum(*result);
  std::printf(
      "%-22s %-5s wall %6.2fs sim %7.3fs subtasks %4lld retried %3lld "
      "recovered %3lld bands_lost %lld checksum %016llx\n",
      name.c_str(), Classify(run.stats.status), run.stats.wall_s,
      run.stats.sim_s, static_cast<long long>(run.stats.subtasks),
      static_cast<long long>(run.retried),
      static_cast<long long>(run.recovered),
      static_cast<long long>(run.blacklisted),
      static_cast<unsigned long long>(run.checksum));
  return run;
}

void WriteJson(const char* path, const std::vector<ChaosRun>& runs,
               const ChaosRun& baseline) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"chaos_fault_injection\",\n");
  std::fprintf(f, "  \"workload\": \"census\", \"rows\": %lld,\n",
               static_cast<long long>(kRows));
  std::fprintf(f, "  \"baseline_checksum\": \"%016llx\",\n",
               static_cast<unsigned long long>(baseline.checksum));
  std::fprintf(f, "  \"runs\": [\n");
  bool first = true;
  for (const ChaosRun& r : runs) {
    if (!first) std::fprintf(f, ",\n");
    first = false;
    const double wall_x =
        baseline.stats.wall_s > 0 ? r.stats.wall_s / baseline.stats.wall_s
                                  : 0.0;
    const double sim_x =
        baseline.stats.sim_s > 0 ? r.stats.sim_s / baseline.stats.sim_s
                                 : 0.0;
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"status\": \"%s\", "
        "\"wall_s\": %.4f, \"sim_s\": %.4f, \"wall_slowdown\": %.3f, "
        "\"sim_slowdown\": %.3f, \"subtasks\": %lld, "
        "\"subtasks_retried\": %lld, \"faults_injected\": %lld, "
        "\"chunks_recovered\": %lld, \"bands_blacklisted\": %lld, "
        "\"recovery_ms\": %.3f, \"checksum\": \"%016llx\", "
        "\"checksum_matches_baseline\": %s}",
        r.name.c_str(), Classify(r.stats.status), r.stats.wall_s,
        r.stats.sim_s, wall_x, sim_x,
        static_cast<long long>(r.stats.subtasks),
        static_cast<long long>(r.retried),
        static_cast<long long>(r.injected),
        static_cast<long long>(r.recovered),
        static_cast<long long>(r.blacklisted), r.recovery_ms,
        static_cast<unsigned long long>(r.checksum),
        r.checksum == baseline.checksum ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace xorbits::bench

int main(int argc, char** argv) {
  using namespace xorbits;
  using namespace xorbits::bench;

  InitTrace(argc, argv);
  PrintHeader("Chaos: fault injection and recovery overhead");
  std::vector<ChaosRun> runs;

  const ChaosRun baseline = RunScenario("fault_free", ChaosConfig());
  runs.push_back(baseline);

  for (uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    Config c = ChaosConfig();
    c.fault_seed = seed;
    c.fault_transient_prob = 0.05;
    runs.push_back(
        RunScenario("transient_p05_s" + std::to_string(seed), c));
  }
  {
    Config c = ChaosConfig();
    c.fault_seed = 7;
    c.fault_band_kills = {{10, 1}};
    runs.push_back(RunScenario("band_kill_step10", c));
  }
  {
    Config c = ChaosConfig();
    c.fault_seed = 7;
    c.fault_chunk_losses = {8, 20};
    runs.push_back(RunScenario("chunk_loss_x2", c));
  }
  {
    Config c = ChaosConfig();
    c.fault_seed = 13;
    c.fault_transient_prob = 0.05;
    c.fault_band_kills = {{12, 2}};
    c.fault_chunk_losses = {20};
    runs.push_back(RunScenario("combined", c));
  }

  WriteJson("BENCH_chaos.json", runs, baseline);

  // Self-check against the acceptance bars.
  bool ok = baseline.stats.status.ok();
  for (const ChaosRun& r : runs) {
    if (!r.stats.status.ok() || r.checksum != baseline.checksum) {
      std::printf("FAIL: %s did not reproduce the baseline result\n",
                  r.name.c_str());
      ok = false;
    }
    if (baseline.stats.wall_s > 0 &&
        r.stats.wall_s > 2.5 * baseline.stats.wall_s) {
      std::printf("FAIL: %s slowdown %.2fx exceeds 2.5x\n", r.name.c_str(),
                  r.stats.wall_s / baseline.stats.wall_s);
      ok = false;
    }
    // The fault counters must show the faults the scenario scheduled, so a
    // counter read from the wrong Metrics fails here instead of printing 0.
    // Recovery counts under a band kill vary between runs; only their
    // presence is checked.
    if (r.name == "band_kill_step10" && r.blacklisted != 1) {
      std::printf("FAIL: %s lost %lld bands, expected 1\n", r.name.c_str(),
                  static_cast<long long>(r.blacklisted));
      ok = false;
    }
    if ((r.name == "chunk_loss_x2" || r.name == "combined") &&
        r.recovered == 0) {
      std::printf("FAIL: %s recovered no chunks\n", r.name.c_str());
      ok = false;
    }
    if (r.name.rfind("transient_", 0) == 0 && r.retried != r.injected) {
      std::printf("FAIL: %s retried %lld subtasks for %lld injected faults\n",
                  r.name.c_str(), static_cast<long long>(r.retried),
                  static_cast<long long>(r.injected));
      ok = false;
    }
  }
  std::printf("chaos acceptance: %s\n", ok ? "PASS" : "FAIL");
  FinishTrace();
  return ok ? 0 : 1;
}
