// xbench: wall-clock benchmark of the engine over three workloads (tpch,
// pipelines, serving). See README.md for what each workload and metric is
// for. Usage:
//
//   xbench --workload <tpch|pipelines|serving> --seed <n> --seconds <s>
//          --trace <0|1> --work-dir <dir>
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of a separate traced window with
// --trace 1. Exits non-zero when any result is wrong or a request failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Set-up runs this many times; setup_s is the median.
constexpr int kSetupReps = 3;

const std::map<std::string, std::string>& WorkloadWhy() {
  static const std::map<std::string, std::string> kWhy = {
      {"tpch",
       "21 TPC-H queries (no Q15) over xparquet files: io, optimizer, "
       "joins, exchange"},
      {"pipelines",
       "uc10/census/plasticc/lightcurve over 1M-row frames: kernels, "
       "tiling, scheduler"},
      {"serving",
       "4 clients, Zipf pool, result cache and admission: cache and "
       "admission layers"},
  };
  return kWhy;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return WorkloadWhy().count(opt->workload) > 0 && opt->seconds > 0 &&
         !opt->work_dir.empty();
}

std::unique_ptr<Workload> Make(const Options& opt) {
  if (opt.workload == "tpch") return MakeTpch(opt);
  if (opt.workload == "pipelines") return MakePipelines(opt);
  return MakeServing(opt);
}

double SafeDiv(double num, double den) { return den > 0 ? num / den : 0; }

void PrintMetric(const char* section, const Metric& m, const std::string& note) {
  std::printf("%s %-34s %16.6f %-9s %s\n", section, m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

/// Per-kind latency medians, so a change to one pipeline or query shows.
void PrintKinds(const Workload& wl, const Window& w) {
  std::map<int, std::vector<double>> by_kind;
  for (size_t i = 0; i < w.kind.size(); ++i) {
    by_kind[w.kind[i]].push_back(w.latency_ms[i]);
  }
  for (const auto& [kind, ms] : by_kind) {
    std::printf("kind %-12s n=%-5zu p50=%.3f ms\n", wl.KindName(kind).c_str(),
                ms.size(), Median(ms));
  }
}

void PrintResultLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Options& opt) {
  std::printf("workload %s seed=%llu seconds=%g trace=%d: %s\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, WorkloadWhy().at(opt.workload).c_str());
  PrintEnvironment(opt, ClusterConfig(opt));
  std::unique_ptr<Workload> wl = Make(opt);

  // Set-up: input generation + cluster creation + warm-up pass, repeated;
  // the last one's cluster serves the timed window.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) {
      wl->DropCluster();
      wl->ReleaseInputs();
    }
    const double t0 = NowMs();
    xorbits::Status st = wl->Generate();
    if (st.ok()) st = wl->BuildCluster(nullptr);
    if (st.ok()) st = wl->WarmUp();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back((NowMs() - t0) / 1e3);
  }
  std::printf("setup_s samples:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  const Window w = wl->RunWindow(opt.seconds, nullptr);
  int64_t attempted = w.attempted;
  int64_t failed = w.failed;

  TracedRun run;
  if (opt.trace) {
    // A separate traced cluster and window over the same inputs; the span
    // totals of the warm-up are subtracted out.
    run.untraced = w;
    run.materialize_from_spans = opt.workload == "tpch";
    auto tracer = std::make_unique<xorbits::Tracer>();
    wl->DropCluster();
    xorbits::Status st = wl->BuildCluster(tracer.get());
    if (st.ok()) st = wl->WarmUp();
    if (!st.ok()) {
      std::fprintf(stderr, "traced set-up failed: %s\n",
                   st.ToString().c_str());
      wl->DropCluster();  // the cluster reports to the tracer as it closes
      return 1;
    }
    const SpanTotals warm = SummarizeSpans(*tracer);
    run.traced = wl->RunWindow(opt.seconds, &run.layers);
    run.spans = SummarizeSpans(*tracer) - warm;
    wl->DropCluster();
    run.floors = wl->MeasureFloors(run);
    attempted += run.traced.attempted;
    failed += run.traced.failed;
  }
  wl->DropCluster();

  const int64_t wrong = wl->Gate();
  wl->ReleaseInputs();

  // End-to-end metrics, from the untraced window.
  const std::vector<double> latency = KindNormalized(w.latency_ms, w.kind);
  const double tail_pct = wl->TailPercentile();
  const std::vector<Metric> e2e = {
      {"throughput_qps", w.Throughput(), "1/s"},
      {"latency_p50_ms", Median(latency), "ms"},
      {"latency_tail_ms", Percentile(latency, tail_pct), "ms"},
      {"cpu_ms_per_query", w.CpuPerRequest(), "ms"},
      {"peak_rss_mb", w.peak_rss_mb, "MiB"},
      {"setup_s", Median(setup_s), "s"},
  };
  const double error_ratio =
      SafeDiv(static_cast<double>(failed + wrong),
              static_cast<double>(attempted));
  const double shed_ratio = SafeDiv(static_cast<double>(w.shed),
                                    static_cast<double>(w.submissions));
  char note[160];
  std::snprintf(note, sizeof(note),
                "(median of %zu slices; %lld requests in %.3f s)",
                w.slices.size(), static_cast<long long>(w.completed()),
                w.wall_s);
  PrintMetric("e2e", e2e[0], note);
  std::snprintf(note, sizeof(note),
                "(normalised by kind, n=%lld; raw p50 %.3f ms)",
                static_cast<long long>(w.completed()), Median(w.latency_ms));
  PrintMetric("e2e", e2e[1], note);
  std::snprintf(note, sizeof(note),
                "(p%g normalised by kind, n=%lld; raw p%g %.3f ms)", tail_pct,
                static_cast<long long>(w.completed()), tail_pct,
                Percentile(w.latency_ms, tail_pct));
  PrintMetric("e2e", e2e[2], note);
  PrintMetric("e2e", e2e[3],
              "(median over slices of process user+sys CPU / completed)");
  PrintMetric("e2e", e2e[4],
              w.peak_rss_reset ? "(VmHWM reset after set-up)"
                               : "(whole-process VmHWM; reset refused)");
  PrintMetric("e2e", e2e[5], "(median of " + std::to_string(kSetupReps) +
                                 " set-ups incl. warm-up)");
  std::snprintf(note, sizeof(note), "(%lld failed + %lld wrong of %lld)",
                static_cast<long long>(failed), static_cast<long long>(wrong),
                static_cast<long long>(attempted));
  PrintMetric("e2e", {"error_ratio", error_ratio, "ratio"}, note);
  std::snprintf(note, sizeof(note), "(%lld shed of %lld submissions)",
                static_cast<long long>(w.shed),
                static_cast<long long>(w.submissions));
  PrintMetric("e2e", {"shed_ratio", shed_ratio, "ratio"}, note);
  PrintKinds(*wl, w);

  std::vector<Metric> layer;
  if (opt.trace) {
    layer = PerLayerMetrics(run);
    for (const Metric& m : layer) PrintMetric("layer", m, "");
    if (!wl->GlobalsPerSession()) {
      std::printf("note: bytes_materialized, lazy_columns_decoded, "
                  "dict_fallback_decodes and shuffle bytes are "
                  "process-global; with concurrent clients they are window "
                  "totals, not per-session deltas\n");
    }
  }

  const bool correct = failed == 0 && wrong == 0;
  PrintResultLine(correct, attempted, failed + wrong, opt.trace ? layer : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: xbench --workload <tpch|pipelines|serving> --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  const int rc = perfbench::Run(opt);
  std::filesystem::remove_all(opt.work_dir);
  return rc;
}
