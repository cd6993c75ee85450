#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

bool ResetPeakRss() {
  // Hand the heap that set-up freed back to the kernel first, so the peak
  // starts from what is live, not from what the allocator happened to keep.
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  idx = std::clamp<size_t>(idx, 1, v.size());
  return v[idx - 1];
}

std::vector<double> KindNormalized(const std::vector<double>& latency_ms,
                                   const std::vector<int>& kind) {
  std::map<int, std::vector<double>> by_kind;
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    by_kind[kind[i]].push_back(latency_ms[i]);
  }
  std::map<int, double> median;
  double weighted = 0;
  for (const auto& [k, ms] : by_kind) {
    median[k] = Median(ms);
    weighted += median[k] * static_cast<double>(ms.size());
  }
  const double scale = weighted / static_cast<double>(latency_ms.size());
  std::vector<double> out(latency_ms.size());
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    const double m = median[kind[i]];
    out[i] = m > 0 ? latency_ms[i] / m * scale : scale;
  }
  return out;
}

double TimeMedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowMs();
    fn();
    ms.push_back(NowMs() - t0);
  }
  return Median(ms);
}

void Window::Merge(const Window& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  kind.insert(kind.end(), other.kind.begin(), other.kind.end());
  attempted += other.attempted;
  failed += other.failed;
  shed += other.shed;
  submissions += other.submissions;
}

double Window::Throughput() const {
  std::vector<double> rates;
  for (const Slice& s : slices) {
    if (s.wall_ms > 0) rates.push_back(s.completed * 1e3 / s.wall_ms);
  }
  return Median(rates);
}

double Window::CpuPerRequest() const {
  std::vector<double> per;
  for (const Slice& s : slices) {
    if (s.completed > 0) per.push_back(s.cpu_ms / s.completed);
  }
  return Median(per);
}

WindowClock::WindowClock() : rss_reset_(ResetPeakRss()) {
  t0_ms_ = slice_t0_ms_ = NowMs();
  cpu0_ms_ = slice_cpu0_ms_ = ProcessCpuMs();
}

void WindowClock::Slice(int64_t completed, Window* w) {
  const double t = NowMs();
  const double cpu = ProcessCpuMs();
  w->slices.push_back(
      {t - slice_t0_ms_, cpu - slice_cpu0_ms_, completed - slice_completed0_});
  slice_t0_ms_ = t;
  slice_cpu0_ms_ = cpu;
  slice_completed0_ = completed;
}

void WindowClock::Finish(Window* w) const {
  w->wall_s = (NowMs() - t0_ms_) / 1e3;
  w->cpu_ms = ProcessCpuMs() - cpu0_ms_;
  w->peak_rss_mb = PeakRssMb();
  w->peak_rss_reset = rss_reset_;
}

xorbits::Config ClusterConfig(const Options& opt) {
  xorbits::Config c = xorbits::Config::Preset(xorbits::EngineKind::kXorbits);
  c.num_workers = 2;
  c.bands_per_worker = 2;
  // The bench_fig8* chunk limit: with it every input is multi-chunk, so
  // tiling yields, range-partition sorts and the block exchange carry the
  // work. At the 64 MiB preset default a 1M-row frame sorts as one chunk
  // and no workload but tpch touches the exchange.
  c.chunk_store_limit = 1LL << 20;
  c.spill_dir = opt.work_dir + "/spill";
  return c;
}

xorbits::Config ReferenceConfig(const Options& opt) {
  xorbits::Config c =
      xorbits::Config::Preset(xorbits::EngineKind::kPandasLike);
  c.spill_dir = opt.work_dir + "/spill-reference";
  return c;
}

int EngineThreads(const xorbits::Config& c) {
  // One worker thread per band plus one kernel pool per worker sized
  // bands_per_worker * cpus_per_band (see Config::cpus_per_band).
  return c.total_bands() + c.total_bands() * c.cpus_per_band;
}

void PrintEnvironment(const Options& opt, const xorbits::Config& c) {
  const int host_cpus =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = EngineThreads(c);
  std::printf(
      "env host_cpus=%d cluster=%dx%d bands (%d bands, %d cpus/band) "
      "engine_threads=%d (%d band + %d kernel-pool) oversubscribed=%s "
      "seed=%llu build_type=%s\n",
      host_cpus, c.num_workers, c.bands_per_worker, c.total_bands(),
      c.cpus_per_band, threads, c.total_bands(),
      c.total_bands() * c.cpus_per_band, threads > host_cpus ? "yes" : "no",
      static_cast<unsigned long long>(opt.seed), XBENCH_BUILD_TYPE);
}

}  // namespace perfbench
