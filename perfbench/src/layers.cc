#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/trace_names.h"

namespace perfbench {

using xorbits::MetricsSnapshot;
using xorbits::TraceEvent;

namespace {

/// Counters a run increments either on its session's Metrics or on the
/// cluster's (storage, cache); summing both sides counts each once.
constexpr const char* kCounters[] = {
    "subtasks_executed", "fused_subtasks",    "subtasks_retried",
    "dynamic_yields",    "predicates_pushed", "cse_hits",
    "kernel_cpu_us",     "simulated_us",      "source_bytes_read",
    "bytes_stored",      "bytes_transferred", "bytes_spilled",
    "cache_hits",        "cache_misses",      "cache_publishes",
    "cache_evictions",
};

/// Process-global stats every snapshot carries as gauges.
constexpr const char* kGlobalGauges[] = {
    xorbits::trace::kGaugeBytesMaterialized,
    xorbits::trace::kGaugeLazyColumnsDecoded,
    xorbits::trace::kGaugeDictFallbackDecodes,
    xorbits::trace::kGaugeShuffleWireBytes,
    xorbits::trace::kGaugeShuffleMemoryBytes,
    xorbits::trace::kGaugeExchangeBackpressureUs,
};

double Gauge(const MetricsSnapshot& s, std::string_view name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return static_cast<double>(v);
  }
  return 0;
}

double GaugePrefixSum(const MetricsSnapshot& s, std::string_view prefix) {
  double sum = 0;
  for (const auto& [n, v] : s.gauges) {
    if (n.rfind(prefix, 0) == 0) sum += static_cast<double>(v);
  }
  return sum;
}

double HistogramSum(const MetricsSnapshot& s, std::string_view name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return static_cast<double>(h.sum);
  }
  return 0;
}

void AddDeltas(const MetricsSnapshot& before, const MetricsSnapshot& after,
               bool with_globals, std::map<std::string, double>* out) {
  for (const char* name : kCounters) {
    (*out)[name] += static_cast<double>(after.Counter(name) -
                                        before.Counter(name));
  }
  (*out)["optimizer_pass_us"] +=
      GaugePrefixSum(after, xorbits::trace::kGaugePassUsPrefix) -
      GaugePrefixSum(before, xorbits::trace::kGaugePassUsPrefix);
  if (with_globals) {
    for (const char* name : kGlobalGauges) {
      (*out)[name] += Gauge(after, name) - Gauge(before, name);
    }
  }
}

int64_t WallUs(const TraceEvent& e) {
  for (const auto& a : e.args) {
    if (a.key == "wall_us") return std::strtoll(a.value.c_str(), nullptr, 10);
  }
  return 0;
}

}  // namespace

void LayerTotals::AddSession(const MetricsSnapshot& before,
                             const MetricsSnapshot& after,
                             bool with_globals) {
  AddDeltas(before, after, with_globals, &counters);
}

void LayerTotals::AddCluster(const MetricsSnapshot& before,
                             const MetricsSnapshot& after,
                             bool with_globals) {
  AddDeltas(before, after, with_globals, &counters);
  counters["session_queue_wait_us"] +=
      HistogramSum(after, xorbits::trace::kHistSessionQueueWaitUs) -
      HistogramSum(before, xorbits::trace::kHistSessionQueueWaitUs);
  counters["sessions_shed"] +=
      Gauge(after, xorbits::trace::kGaugeSessionsShed) -
      Gauge(before, xorbits::trace::kGaugeSessionsShed);
  // Watermarks, not deltas: the band peak since the cluster started (the
  // warm-up runs the same requests) and the cache's resident bytes.
  counters["peak_band_bytes"] =
      std::max(counters["peak_band_bytes"],
               static_cast<double>(after.Counter("peak_band_bytes")));
  counters["cache_bytes"] = Gauge(after, xorbits::trace::kGaugeCacheBytes);
}

void LayerTotals::Merge(const LayerTotals& other) {
  request_ms += other.request_ms;
  build_ms += other.build_ms;
  materialize_ms += other.materialize_ms;
  fetch_ms += other.fetch_ms;
  for (const auto& [k, v] : other.counters) counters[k] += v;
}

double LayerTotals::Get(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

SpanTotals SpanTotals::operator-(const SpanTotals& o) const {
  SpanTotals d;
  d.materialize_ms = materialize_ms - o.materialize_ms;
  d.execute_partial_ms = execute_partial_ms - o.execute_partial_ms;
  d.partial_runs = partial_runs - o.partial_runs;
  d.tile_ms = tile_ms - o.tile_ms;
  d.nested_partial_ms = nested_partial_ms - o.nested_partial_ms;
  d.exchange_push_ms = exchange_push_ms - o.exchange_push_ms;
  d.exchange_fetch_ms = exchange_fetch_ms - o.exchange_fetch_ms;
  return d;
}

SpanTotals SummarizeSpans(const xorbits::Tracer& tracer) {
  namespace tn = xorbits::trace;
  SpanTotals t;
  // Tile spans of one session run one at a time on its tiling track, and
  // their simulated intervals cover the partial executions they yielded
  // to; keep them per process to attribute nesting.
  struct Interval {
    int64_t begin, end;
  };
  std::map<int, std::vector<Interval>> tiles;
  std::vector<const TraceEvent*> partials;
  const std::vector<TraceEvent> events = tracer.SnapshotEvents();
  for (const TraceEvent& e : events) {
    if (e.phase != TraceEvent::Phase::kComplete) continue;
    const double ms = static_cast<double>(WallUs(e)) / 1e3;
    if (e.name == tn::kSpanMaterialize) {
      t.materialize_ms += ms;
    } else if (e.name == tn::kSpanExecutePartial) {
      t.execute_partial_ms += ms;
      ++t.partial_runs;
      partials.push_back(&e);
    } else if (e.name.rfind(tn::kSpanTilePrefix, 0) == 0) {
      t.tile_ms += ms;
      tiles[e.pid].push_back({e.ts_us, e.ts_us + e.dur_us});
    } else if (e.name == tn::kSpanExchangePush) {
      t.exchange_push_ms += ms;
    } else if (e.name == tn::kSpanExchangeFetch) {
      t.exchange_fetch_ms += ms;
    }
  }
  for (const TraceEvent* p : partials) {
    auto it = tiles.find(p->pid);
    if (it == tiles.end()) continue;
    // Nested means the partial's whole simulated interval lies inside one
    // tile span. Tiles that did no work still span one tick, so a sink
    // execution starting where such a tile starts is not inside it.
    const int64_t begin = p->ts_us;
    const int64_t end = p->ts_us + p->dur_us;
    const bool nested = std::any_of(
        it->second.begin(), it->second.end(), [&](const Interval& iv) {
          return iv.begin <= begin && end <= iv.end;
        });
    if (nested) t.nested_partial_ms += static_cast<double>(WallUs(*p)) / 1e3;
  }
  return t;
}

namespace {

struct PerRequest {
  double n;
  double operator()(double total) const { return n > 0 ? total / n : 0; }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

std::vector<Metric> PerLayerMetrics(const TracedRun& run) {
  const LayerTotals& l = run.layers;
  const SpanTotals& s = run.spans;
  const PerRequest per{static_cast<double>(run.traced.completed())};
  double materialize_ms = l.materialize_ms;
  double fetch_ms = l.fetch_ms;
  if (run.materialize_from_spans) {
    materialize_ms = s.materialize_ms;
    fetch_ms = l.fetch_ms - s.materialize_ms;
  }
  const double kernel_cpu_ms = l.Get("kernel_cpu_us") / 1e3;
  const double probes = l.Get("cache_hits") + l.Get("cache_misses");
  return {
      {"core.build_ms", per(l.build_ms), "ms/req"},
      {"core.materialize_ms", per(materialize_ms), "ms/req"},
      {"core.fetch_ms", per(fetch_ms), "ms/req"},
      // Time outside the measured calls: session close, client overhead.
      {"core.unattributed_ms",
       per(l.request_ms - l.build_ms - materialize_ms - fetch_ms), "ms/req"},
      {"core.admission_wait_ms", per(l.Get("session_queue_wait_us") / 1e3),
       "ms/req"},
      {"core.sheds", l.Get("sessions_shed"), "count"},
      {"core.engine_over_kernel", Ratio(run.floors.engine_ms,
                                        run.floors.kernel_ms), "ratio"},
      {"trace.overhead_ratio",
       Ratio(run.untraced.Throughput(), run.traced.Throughput()), "ratio"},
      {"optimizer.pass_ms", per(l.Get("optimizer_pass_us") / 1e3), "ms/req"},
      {"optimizer.predicates_pushed", per(l.Get("predicates_pushed")),
       "count/req"},
      {"optimizer.cse_hits", per(l.Get("cse_hits")), "count/req"},
      {"tiling.yields", per(l.Get("dynamic_yields")), "count/req"},
      {"tiling.partial_runs", per(static_cast<double>(s.partial_runs)),
       "count/req"},
      {"tiling.self_ms", per(s.tile_ms - s.nested_partial_ms), "ms/req"},
      {"scheduler.subtasks", per(l.Get("subtasks_executed")), "count/req"},
      {"scheduler.fused_subtasks", per(l.Get("fused_subtasks")), "count/req"},
      {"scheduler.exec_ms", per(s.execute_partial_ms), "ms/req"},
      {"scheduler.kernel_cpu_ms", per(kernel_cpu_ms), "ms/req"},
      {"scheduler.kernel_cpu_share", Ratio(kernel_cpu_ms, run.traced.cpu_ms),
       "ratio"},
      {"scheduler.retries", per(l.Get("subtasks_retried")), "count/req"},
      {"scheduler.modeled_ms", per(l.Get("simulated_us") / 1e3), "ms/req"},
      {"storage.bytes_stored", per(l.Get("bytes_stored")), "B/req"},
      {"storage.bytes_transferred", per(l.Get("bytes_transferred")), "B/req"},
      {"storage.bytes_spilled", per(l.Get("bytes_spilled")), "B/req"},
      {"storage.peak_band_mb", l.Get("peak_band_bytes") / (1 << 20), "MiB"},
      {"exchange.push_ms", per(s.exchange_push_ms), "ms/req"},
      {"exchange.fetch_ms", per(s.exchange_fetch_ms), "ms/req"},
      {"exchange.wire_bytes", per(l.Get("shuffle_wire_bytes")), "B/req"},
      {"exchange.wire_ratio",
       Ratio(l.Get("shuffle_wire_bytes"), l.Get("shuffle_memory_bytes")),
       "ratio"},
      {"exchange.backpressure_ms",
       per(l.Get(xorbits::trace::kGaugeExchangeBackpressureUs) / 1e3),
       "ms/req"},
      {"cache.hit_ratio", Ratio(l.Get("cache_hits"), probes), "ratio"},
      {"cache.publishes", per(l.Get("cache_publishes")), "count/req"},
      {"cache.evictions", per(l.Get("cache_evictions")), "count/req"},
      {"cache.bytes", l.Get("cache_bytes"), "B"},
      {"io.source_bytes_read", per(l.Get("source_bytes_read")), "B/req"},
      {"io.lazy_columns_decoded", per(l.Get("lazy_columns_decoded")),
       "count/req"},
      {"io.read_ms", run.floors.read_ms, "ms"},
      {"io.serialize_ms", run.floors.serialize_ms, "ms"},
      {"dataframe.bytes_materialized", per(l.Get("bytes_materialized")),
       "B/req"},
      {"dataframe.dict_fallback_decodes", per(l.Get("dict_fallback_decodes")),
       "count/req"},
      {"dataframe.groupby_ms", run.floors.groupby_ms, "ms"},
      {"dataframe.merge_ms", run.floors.merge_ms, "ms"},
      {"dataframe.sort_ms", run.floors.sort_ms, "ms"},
  };
}

}  // namespace perfbench
