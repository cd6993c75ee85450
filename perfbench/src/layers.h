#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer accounting of one traced window. Three sources, all outside the
// engine: wall time of the public calls the benchmark makes, counters from
// Session::metrics() / SessionManager::metrics() snapshots, and the wall_us
// of the engine's existing spans read through Tracer::SnapshotEvents().

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/tracing.h"
#include "harness.h"

namespace perfbench {

/// Counters and timed public calls summed over the requests of a window.
struct LayerTotals {
  double request_ms = 0;      // whole request, client side
  double build_ms = 0;        // graph-building API calls
  double materialize_ms = 0;  // Session::Materialize
  double fetch_ms = 0;        // DataFrameRef::Fetch after Materialize
  /// Snapshot counters by their engine name (see layers.cc for the list).
  std::map<std::string, double> counters;

  /// Adds one session's counters: `before` is taken right after the session
  /// is created, `after` right before it closes. With `with_globals` the
  /// process-global stats (BufferStats, KernelStats, LateStats,
  /// ExchangeStats, surfaced as gauges) are attributed to this session as
  /// the before/after delta — valid only while no other session runs.
  void AddSession(const xorbits::MetricsSnapshot& before,
                  const xorbits::MetricsSnapshot& after, bool with_globals);
  /// Adds the cluster's (SessionManager) counter deltas over the window;
  /// with `with_globals` the process-global stats too, as window totals.
  void AddCluster(const xorbits::MetricsSnapshot& before,
                  const xorbits::MetricsSnapshot& after, bool with_globals);
  void Merge(const LayerTotals& other);
  double Get(const std::string& name) const;
};

/// Wall-time sums of the engine's spans (from their `wall_us` argument).
struct SpanTotals {
  double materialize_ms = 0;
  double execute_partial_ms = 0;
  int64_t partial_runs = 0;
  double tile_ms = 0;
  /// execute_partial wall nested inside tile:* spans (dynamic-tiling
  /// yields); tile self time is tile_ms minus this.
  double nested_partial_ms = 0;
  double exchange_push_ms = 0;
  double exchange_fetch_ms = 0;

  SpanTotals operator-(const SpanTotals& o) const;
};
SpanTotals SummarizeSpans(const xorbits::Tracer& tracer);

/// Serial direct kernel calls on the workload's own inputs (the floor a
/// layer could reach with no engine around it), in milliseconds.
struct Floors {
  double read_ms = 0;
  double serialize_ms = 0;
  double groupby_ms = 0;
  double merge_ms = 0;
  double sort_ms = 0;
  /// Materialize wall of the pipelines the kernel floors mirror, and the sum
  /// of those floors: engine_over_kernel = engine_ms / kernel_ms.
  double engine_ms = 0;
  double kernel_ms = 0;
};

/// Everything a traced run measured.
struct TracedRun {
  Window untraced;
  Window traced;
  LayerTotals layers;
  SpanTotals spans;
  Floors floors;
  /// tpch: RunQuery hides its build/materialize/fetch split, so materialize
  /// comes from the `materialize` spans and fetch_ms holds RunQuery wall.
  bool materialize_from_spans = false;
};

/// Per-layer metrics, in BENCHMARK.json order. Per-request figures divide by
/// the traced window's completed requests.
std::vector<Metric> PerLayerMetrics(const TracedRun& run);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
