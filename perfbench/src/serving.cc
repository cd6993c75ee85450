// serving: four closed-loop clients, each submitting through its own tenant
// sessions of one SessionManager with the result cache on. Every request
// picks one (pipeline, input) pair from a pool generated at set-up with
// Zipf-skewed popularity. Admission slots sit below the client count, so
// requests queue, and the cache budget sits below the pool's working set,
// so entries are evicted: the storage/cache layer is used for hits,
// publishes and evictions, and admission plus weighted-fair scheduling are
// exercised, which the other workloads never touch.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/random.h"
#include "pipelines.h"
#include "workload.h"

namespace perfbench {
namespace {

using xorbits::Result;
using xorbits::Status;
using xorbits::dataframe::DataFrame;

constexpr int kClients = 4;
constexpr int kInputsPerPipeline = 6;
constexpr int64_t kRows = 50000;
constexpr double kPopularitySkew = 1.0;  // Zipf exponent over the pool
constexpr double kSliceMs = 1000;
/// Resident cache bytes once every pair of the pool has been served with an
/// unbounded budget (cache.bytes of a traced run, seed 3: 124473430 B, all
/// probes hits, no evictions). The budget is half of it.
constexpr int64_t kWorkingSetBytes = 124000000;

class Serving : public Workload {
 public:
  using Workload::Workload;

  Status Generate() override {
    pool_.assign(kInputsPerPipeline * kNumPipelines, PipelineInput{});
    for (int i = 0; i < kInputsPerPipeline; ++i) {
      const uint64_t seed = opt_.seed * 1000 + static_cast<uint64_t>(i) * 10;
      for (int kind : {kUc10, kCensus, kPlasticc}) {
        pool_[Key(i, kind)] = MakePipelineInput(kind, kRows, seed + kind);
      }
      // lightcurve sorts the plasticc frame of the same input index.
      pool_[Key(i, kLightcurve)] = pool_[Key(i, kPlasticc)];
      pool_[Key(i, kLightcurve)].kind = kLightcurve;
    }
    // Popularity: Zipf weight by key, so rank r is input r / 4 of pipeline
    // r % 4. The ranks interleave the pipelines the same way for every
    // seed; a seeded ranking would change the pipeline mix, and with it
    // the cost of an average request, from one seed to the next.
    cdf_.assign(pool_.size(), 0);
    double total = 0;
    for (size_t r = 0; r < pool_.size(); ++r) {
      cdf_[r] = total +=
          1.0 / std::pow(static_cast<double>(r + 1), kPopularitySkew);
    }
    for (double& c : cdf_) c /= total;
    return Status::OK();
  }
  void ReleaseInputs() override {
    pool_.clear();
    cdf_.clear();
  }

  std::string KeyName(int key) const override {
    return std::string(PipelineName(KindOf(key))) + "#" +
           std::to_string(key / kNumPipelines);
  }
  int KindOf(int key) const override { return key % kNumPipelines; }
  std::string KindName(int kind) const override { return PipelineName(kind); }
  bool GlobalsPerSession() const override { return false; }
  // A 20 s window completes 1000-2800 requests, depending on how much CPU
  // the host leaves: p99 would need 1000, p95 needs 200.
  double TailPercentile() const override { return 95; }

  Window RunWindow(double seconds, LayerTotals* layers) override {
    xorbits::MetricsSnapshot before;
    if (layers != nullptr) before = manager_->metrics().Snapshot();
    std::vector<Window> windows(kClients);
    std::vector<LayerTotals> client_layers(kClients);
    std::atomic<int64_t> completed{0};
    const int64_t min_requests = MinRequests();
    Window w;
    WindowClock clock;
    const double start = NowMs();
    const double deadline = start + seconds * 1e3;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        xorbits::Rng rng(opt_.seed * 7919 + static_cast<uint64_t>(c) + 1);
        LayerTotals* lc = layers != nullptr ? &client_layers[c] : nullptr;
        while (NowMs() < deadline || completed.load() < min_requests) {
          if (TimedRequest(Draw(&rng), &windows[c], lc)) ++completed;
        }
      });
    }
    // One-second slices while the clients run; the drain after the
    // deadline is in the totals but in no slice.
    for (int s = 1; start + s * kSliceMs <= deadline; ++s) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          start + s * kSliceMs - NowMs()));
      clock.Slice(completed.load(), &w);
    }
    for (std::thread& t : clients) t.join();
    clock.Finish(&w);
    for (int c = 0; c < kClients; ++c) {
      w.Merge(windows[c]);
      if (layers != nullptr) layers->Merge(client_layers[c]);
    }
    if (layers != nullptr) {
      layers->AddCluster(before, manager_->metrics().Snapshot(),
                         /*with_globals=*/true);
    }
    return w;
  }

  Floors MeasureFloors(const TracedRun& run) override {
    Floors f;
    PipelineFloor per_kind[kNumPipelines];
    for (int kind = 0; kind < kNumPipelines; ++kind) {
      per_kind[kind] = MeasurePipelineFloor(pool_[Key(0, kind)], /*reps=*/5);
      f.groupby_ms += per_kind[kind].groupby_ms;
      f.merge_ms += per_kind[kind].merge_ms;
      f.sort_ms += per_kind[kind].sort_ms;
    }
    // Per request: mean materialize wall over the mean floor of the same
    // request mix.
    const double n = static_cast<double>(run.traced.completed());
    for (int kind : run.traced.kind) f.kernel_ms += per_kind[kind].total();
    if (n > 0) {
      f.kernel_ms /= n;
      f.engine_ms = run.layers.materialize_ms / n;
    }
    const auto largest = std::max_element(
        pool_.begin(), pool_.end(),
        [](const PipelineInput& a, const PipelineInput& b) {
          return a.frame.nbytes() < b.frame.nbytes();
        });
    MeasureIoFloors(largest->frame, opt_.work_dir + "/floors",
                    Settings().dict_encode, /*reps=*/5, &f);
    return f;
  }

 protected:
  xorbits::Config Settings() const override {
    xorbits::Config c = ClusterConfig(opt_);
    c.enable_result_cache = true;
    c.result_cache_budget_bytes = kWorkingSetBytes / 2;
    // Fewer admission slots than clients, so submissions queue; a queue
    // deep enough and a timeout long enough that none is shed.
    c.max_concurrent_sessions = 2;
    c.admission_queue_depth = 2 * kClients;
    c.admission_timeout_ms = 60000;
    return c;
  }
  std::vector<int> CycleKeys() const override {
    std::vector<int> keys(pool_.size());
    for (size_t k = 0; k < keys.size(); ++k) keys[k] = static_cast<int>(k);
    return keys;
  }
  Result<DataFrame> Request(xorbits::core::Session* session, int key,
                            LayerTotals* layers) override {
    return RunPipeline(session, pool_[key], layers);
  }
  bool GateAgainstCacheOff() const override { return true; }

 private:
  static int Key(int input, int kind) { return input * kNumPipelines + kind; }

  int Draw(xorbits::Rng* rng) const {
    const double u = rng->Uniform(0.0, 1.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(
        std::min<ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

  std::vector<PipelineInput> pool_;
  std::vector<double> cdf_;
};

}  // namespace

std::unique_ptr<Workload> MakeServing(const Options& opt) {
  return std::make_unique<Serving>(opt);
}

}  // namespace perfbench
