#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: clocks, process CPU and
// peak-RSS probes, percentiles, and the closed-loop window record.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"

namespace perfbench {

/// Command-line options (see main.cc).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Work directory for generated files and spill, inside the checkout.
  std::string work_dir;
};

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Steady-clock milliseconds since an arbitrary epoch.
double NowMs();
/// Process user+sys CPU (getrusage) in milliseconds.
double ProcessCpuMs();
/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS. False when
/// the kernel refuses; PeakRssMb then reports the whole-process peak.
bool ResetPeakRss();
/// VmHWM in MiB.
double PeakRssMb();

double Median(std::vector<double> v);
/// Nearest-rank percentile, `pct` in [0, 100].
double Percentile(std::vector<double> v, double pct);

/// Latencies normalised by kind: each sample divided by the median of its
/// kind (query or pipeline) and multiplied by the sample-weighted mean of
/// the kind medians. Latencies cluster by kind, so a percentile of the raw
/// samples falls on the edge between two clusters and follows their
/// extremes; percentiles of these samples move with every kind's latency
/// and with the spread inside each kind.
std::vector<double> KindNormalized(const std::vector<double>& latency_ms,
                                   const std::vector<int>& kind);

/// Median wall time of `reps` calls of `fn`, in milliseconds.
double TimeMedianMs(int reps, const std::function<void()>& fn);

/// One closed-loop timed window: every completed request's latency plus
/// the process-level resources the window used.
struct Window {
  std::vector<double> latency_ms;  // completed requests only
  std::vector<int> kind;           // parallel to latency_ms
  int64_t attempted = 0;           // requests started
  int64_t failed = 0;              // terminal (non-overload) failures
  int64_t shed = 0;                // kOverloaded responses, each retried
  int64_t submissions = 0;         // attempts including retries
  double wall_s = 0;
  double cpu_ms = 0;
  double peak_rss_mb = 0;
  bool peak_rss_reset = false;
  /// The window cut into consecutive slices (one request cycle, or one
  /// second with concurrent clients). Rates are the median over slices, so
  /// a burst of load from outside the process moves one slice, not the
  /// figure.
  struct Slice {
    double wall_ms = 0;
    double cpu_ms = 0;
    int64_t completed = 0;
  };
  std::vector<Slice> slices;

  int64_t completed() const {
    return static_cast<int64_t>(latency_ms.size());
  }
  /// Median over slices of completed requests per second.
  double Throughput() const;
  /// Median over slices of process CPU milliseconds per completed request.
  double CpuPerRequest() const;
  void Merge(const Window& other);
};

/// Brackets a window: starts the wall and CPU clocks and resets the RSS peak
/// at construction; `Slice` closes a slice; `Finish` stores the totals.
class WindowClock {
 public:
  WindowClock();
  /// Ends the current slice; `completed` counts the window's completed
  /// requests so far.
  void Slice(int64_t completed, Window* w);
  void Finish(Window* w) const;

 private:
  double t0_ms_;
  double cpu0_ms_;
  bool rss_reset_;
  double slice_t0_ms_;
  double slice_cpu0_ms_;
  int64_t slice_completed0_ = 0;
};

/// Cluster shape shared by all workloads (the bench_fig8* shape): the
/// kXorbits preset with two workers of two bands and a 1 MiB chunk limit,
/// everything else at preset defaults; spill goes to `work_dir`.
xorbits::Config ClusterConfig(const Options& opt);
/// Single band, no tiling, no optimizer: the reference engine of the
/// correctness gate.
xorbits::Config ReferenceConfig(const Options& opt);

/// Band threads plus kernel-pool threads the cluster config starts.
int EngineThreads(const xorbits::Config& c);

/// Prints the run environment line (host CPUs, cluster shape, engine
/// threads, oversubscription, seed, build type).
void PrintEnvironment(const Options& opt, const xorbits::Config& c);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
