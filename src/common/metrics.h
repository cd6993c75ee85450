#ifndef XORBITS_COMMON_METRICS_H_
#define XORBITS_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/trace_names.h"

namespace xorbits {

/// Point-in-time copy of one histogram (see Histogram). `counts` has one
/// entry per bucket in `bounds` plus a final overflow bucket.
struct HistogramSnapshot {
  std::string name;
  std::string unit;
  std::vector<int64_t> bounds;
  std::vector<int64_t> counts;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
};

/// Fixed-bucket histogram with lock-free observation. Bucket `i` counts
/// values `v <= bounds[i]` (first matching bound); values above the last
/// bound land in the overflow bucket. Bounds are fixed at registration so
/// snapshots from different runs are directly comparable.
class Histogram {
 public:
  Histogram(std::string name, std::string unit, std::vector<int64_t> bounds);

  void Observe(int64_t value);
  HistogramSnapshot Snapshot() const;
  void Reset();

  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  const std::string name_;
  const std::string unit_;
  const std::vector<int64_t> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_{std::numeric_limits<int64_t>::min()};
};

/// A named point-in-time value (peak band bytes, registry sizes, ...).
class Gauge {
 public:
  Gauge(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  /// Atomically raises the gauge to at least `v` (peak watermarks).
  void SetMax(int64_t v) {
    int64_t prev = value_.load(std::memory_order_relaxed);
    while (v > prev && !value_.compare_exchange_weak(prev, v)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }

 private:
  const std::string name_;
  const std::string unit_;
  std::atomic<int64_t> value_{0};
};

/// Shared bucket policy: exponential base-4 bounds starting at 16
/// (16, 64, 256, ..., 64Mi — 12 buckets + overflow). One policy for both
/// microsecond and byte histograms keeps every report column comparable;
/// see DESIGN.md §4.
std::vector<int64_t> DefaultBuckets();

/// Named gauge/histogram registry. Registration is idempotent (same name
/// returns the same instance; pointers are stable for the registry's
/// lifetime). Observation paths are lock-free; the registry mutex guards
/// registration and snapshotting, and `Metrics::Snapshot` holds it so a
/// snapshot cannot interleave with new registrations.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Gauge* GetGauge(const std::string& name, const std::string& unit);
  Histogram* GetHistogram(const std::string& name, const std::string& unit,
                          std::vector<int64_t> bounds);

  std::vector<std::pair<std::string, int64_t>> SnapshotGauges() const;
  std::vector<HistogramSnapshot> SnapshotHistograms() const;

  /// Variants for callers that already hold `mutex()` (Metrics::Snapshot
  /// takes one consistent snapshot of counters + registry under it).
  std::vector<std::pair<std::string, int64_t>> SnapshotGaugesLocked() const;
  std::vector<HistogramSnapshot> SnapshotHistogramsLocked() const;

  std::mutex& mutex() const { return mu_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// A consistent point-in-time copy of every counter, gauge and histogram of
/// one Metrics instance, taken under the registry lock. Safe to read after
/// the owning session is gone (the run report is rendered from this).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a `counters`-section entry by name (0 when absent).
  int64_t Counter(const std::string& name) const;
};

/// Where a counter is reported in a MetricsSnapshot (see common/counters.def).
enum class CounterSection { kCounters, kGauges };

/// Index of one counter in the counter table.
enum class CounterId : int {
#define XORBITS_COUNTER(id, name, section) id,
#include "common/counters.def"
  kNumCounters
};

inline constexpr int kNumCounters = static_cast<int>(CounterId::kNumCounters);

struct CounterInfo {
  const char* name;
  CounterSection section;
};

/// The counter table, indexed by CounterId.
inline constexpr CounterInfo kCounterTable[kNumCounters] = {
#define XORBITS_COUNTER(id, name, section) {name, CounterSection::section},
#include "common/counters.def"
};

/// Counters, gauges and histograms of one session or cluster. Benches read
/// these to report transfer/spill/OOM behaviour alongside wall-clock time.
/// Counters are one fixed array indexed by the counter table; increments
/// are relaxed atomics (no lock, no lookup). The embedded `registry` adds
/// named gauges and fixed-bucket histograms; take `Snapshot()` instead of
/// reading counters one by one when band workers may still run.
struct Metrics {
  /// `parent` (a tenant session's cluster) also receives every counter
  /// charged to this instance through a MetricsScope.
  explicit Metrics(Metrics* parent = nullptr);
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Adds `n` to this instance only: the path for code holding a Metrics*.
  void Add(CounterId id, int64_t n = 1) {
    values_[static_cast<int>(id)].fetch_add(n, std::memory_order_relaxed);
  }
  /// Atomically raises a watermark counter to at least `value`.
  void RaiseTo(CounterId id, int64_t value) {
    std::atomic<int64_t>& v = values_[static_cast<int>(id)];
    int64_t prev = v.load(std::memory_order_relaxed);
    while (value > prev && !v.compare_exchange_weak(prev, value)) {
    }
  }
  int64_t Get(CounterId id) const {
    return values_[static_cast<int>(id)].load(std::memory_order_relaxed);
  }
  Metrics* parent() const { return parent_; }

  /// Consistent snapshot of counters + registry, taken under the registry
  /// lock. Reading the counters one by one races band workers that are
  /// still updating them; snapshot once, then read the copy.
  MetricsSnapshot Snapshot() const;

  /// One line of the non-zero counters, `name=value` in table order.
  std::string ToString() const;

  /// Named gauges + histograms registered by subsystems; the three
  /// histograms below are pre-registered for the executor and storage.
  MetricsRegistry registry;
  Histogram* subtask_latency_us;  // modeled per-subtask latency (us)
  Histogram* chunk_bytes;         // payload size at each storage Put (bytes)
  Histogram* queue_wait_us;       // modeled inputs-ready -> band-slot wait

 private:
  std::array<std::atomic<int64_t>, kNumCounters> values_{};
  Metrics* const parent_;
};

/// Names the Metrics that receives counters raised below the session, by
/// kernels, readers and services that hold no Metrics* (RAII; scopes nest
/// per thread and a nested scope restores its outer one on exit). The
/// executor installs one per subtask attempt and per run, the session one
/// around Materialize and Fetch; ParallelFor morsels inherit the scope of
/// the thread that entered the loop. A null target counts nothing.
class MetricsScope {
 public:
  explicit MetricsScope(Metrics* target);
  ~MetricsScope();

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

  /// The current thread's innermost target (null outside any scope).
  static Metrics* Current();

 private:
  Metrics* prev_;
};

/// Adds `n` to the current scope's Metrics and to its parent. Outside any
/// scope the increment is dropped.
void ChargeScoped(CounterId id, int64_t n = 1);

}  // namespace xorbits

#endif  // XORBITS_COMMON_METRICS_H_
