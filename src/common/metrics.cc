#include "common/metrics.h"

#include <algorithm>

namespace xorbits {

Histogram::Histogram(std::string name, std::string unit,
                     std::vector<int64_t> bounds)
    : name_(std::move(name)),
      unit_(std::move(unit)),
      bounds_(std::move(bounds)),
      counts_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(int64_t value) {
  // First bucket whose upper bound covers the value; above-all -> overflow.
  size_t idx = bounds_.size();
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      idx = i;
      break;
    }
  }
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t prev = min_.load(std::memory_order_relaxed);
  while (value < prev && !min_.compare_exchange_weak(prev, value)) {
  }
  prev = max_.load(std::memory_order_relaxed);
  while (value > prev && !max_.compare_exchange_weak(prev, value)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.name = name_;
  s.unit = unit_;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count > 0 ? min_.load(std::memory_order_relaxed) : 0;
  s.max = s.count > 0 ? max_.load(std::memory_order_relaxed) : 0;
  return s;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
  count_.store(0);
  sum_.store(0);
  min_.store(std::numeric_limits<int64_t>::max());
  max_.store(std::numeric_limits<int64_t>::min());
}

std::vector<int64_t> DefaultBuckets() {
  std::vector<int64_t> bounds;
  int64_t b = 16;
  for (int i = 0; i < 12; ++i) {
    bounds.push_back(b);
    b *= 4;
  }
  return bounds;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>(name, unit)).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& unit,
                                         std::vector<int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(name, unit,
                                                        std::move(bounds)))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, int64_t>>
MetricsRegistry::SnapshotGaugesLocked() const {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<HistogramSnapshot> MetricsRegistry::SnapshotHistogramsLocked()
    const {
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back(h->Snapshot());
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::SnapshotGauges()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotGaugesLocked();
}

std::vector<HistogramSnapshot> MetricsRegistry::SnapshotHistograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotHistogramsLocked();
}

int64_t MetricsSnapshot::Counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

Metrics::Metrics(Metrics* parent)
    : subtask_latency_us(registry.GetHistogram(trace::kHistSubtaskLatencyUs,
                                               "us", DefaultBuckets())),
      chunk_bytes(registry.GetHistogram(trace::kHistChunkBytes, "bytes",
                                        DefaultBuckets())),
      queue_wait_us(registry.GetHistogram(trace::kHistQueueWaitUs, "us",
                                          DefaultBuckets())),
      parent_(parent) {}

MetricsSnapshot Metrics::Snapshot() const {
  // The registry lock makes the snapshot consistent with registration and
  // with other snapshotters; individual values are atomics.
  std::lock_guard<std::mutex> lock(registry.mutex());
  MetricsSnapshot s;
  s.gauges = registry.SnapshotGaugesLocked();
  for (int i = 0; i < kNumCounters; ++i) {
    const CounterInfo& c = kCounterTable[i];
    auto& section = c.section == CounterSection::kCounters ? s.counters
                                                           : s.gauges;
    section.emplace_back(c.name, values_[i].load(std::memory_order_relaxed));
  }
  std::sort(s.gauges.begin(), s.gauges.end());
  s.histograms = registry.SnapshotHistogramsLocked();
  return s;
}

std::string Metrics::ToString() const {
  std::string out;
  for (int i = 0; i < kNumCounters; ++i) {
    const int64_t v = values_[i].load(std::memory_order_relaxed);
    if (v == 0) continue;
    if (!out.empty()) out += ' ';
    out += kCounterTable[i].name;
    out += '=';
    out += std::to_string(v);
  }
  return out;
}

namespace {
thread_local Metrics* t_metrics_scope = nullptr;
}  // namespace

MetricsScope::MetricsScope(Metrics* target) : prev_(t_metrics_scope) {
  t_metrics_scope = target;
}

MetricsScope::~MetricsScope() { t_metrics_scope = prev_; }

Metrics* MetricsScope::Current() { return t_metrics_scope; }

void ChargeScoped(CounterId id, int64_t n) {
  Metrics* m = t_metrics_scope;
  if (m == nullptr) return;
  m->Add(id, n);
  if (m->parent() != nullptr) m->parent()->Add(id, n);
}

}  // namespace xorbits
