#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// A workload drives the engine only through its public API: it generates
// its inputs from the seed, runs requests on tenant sessions of one
// SessionManager cluster, and answers the correctness gate.

#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "common/tracing.h"
#include "core/session.h"
#include "core/session_manager.h"
#include "harness.h"
#include "layers.h"

namespace perfbench {

class Workload {
 public:
  explicit Workload(Options opt) : opt_(std::move(opt)) {}
  virtual ~Workload() = default;

  /// Generates the inputs from the seed (part of set-up).
  virtual xorbits::Status Generate() = 0;
  /// Frees the inputs (between repeated set-ups).
  virtual void ReleaseInputs() = 0;
  /// Creates the cluster, traced into `tracer` when it is non-null.
  xorbits::Status BuildCluster(xorbits::Tracer* tracer);
  void DropCluster() { manager_.reset(); }
  /// The untimed warm-up pass: every request key once, on the cluster.
  xorbits::Status WarmUp();
  /// One closed-loop timed window of at least `seconds`; fills `layers`
  /// (counters and timed calls) when non-null.
  virtual Window RunWindow(double seconds, LayerTotals* layers);
  /// Serial direct kernel calls on this workload's inputs.
  virtual Floors MeasureFloors(const TracedRun& run) = 0;
  /// The correctness gate over every window's results; returns the number
  /// of wrong results.
  int64_t Gate();

  /// Printable name of a request key / its kind (per-kind report rows).
  virtual std::string KeyName(int key) const = 0;
  virtual int KindOf(int key) const { return key; }
  virtual std::string KindName(int kind) const { return KeyName(kind); }
  /// Whether process-global stats are attributed per session (one session
  /// at a time) or reported as window totals (concurrent clients).
  virtual bool GlobalsPerSession() const { return true; }
  /// Percentile reported as latency_tail_ms: the highest one with at least
  /// ten samples beyond it at this workload's usual sample count. Fixed per
  /// workload, so it does not change between runs.
  virtual double TailPercentile() const = 0;

 protected:
  /// Cluster settings on top of ClusterConfig.
  virtual xorbits::Config Settings() const { return ClusterConfig(opt_); }
  /// Request keys of one pass (the warm-up and each window cycle).
  virtual std::vector<int> CycleKeys() const = 0;
  /// Runs request `key` on `session` and returns its fetched result. Adds
  /// the timed public calls to `layers` when non-null.
  virtual xorbits::Result<xorbits::dataframe::DataFrame> Request(
      xorbits::core::Session* session, int key, LayerTotals* layers) = 0;
  /// Whether the gate also compares against a cache-off run.
  virtual bool GateAgainstCacheOff() const { return false; }

  /// One request on a fresh tenant session, retried after the server's
  /// backoff hint while it is shed. Records the result in the log, the
  /// latency and outcome in `w`, and the session's counters in `layers`.
  /// Returns whether the request completed.
  bool TimedRequest(int key, Window* w, LayerTotals* layers);

  /// Completed requests a window needs for ten samples beyond the tail
  /// percentile. On a slow host a window runs on past its time until it has
  /// them, so a slowdown does not leave latency_tail_ms short of samples.
  int64_t MinRequests() const;

  xorbits::Result<xorbits::dataframe::DataFrame> RunSolo(
      const xorbits::Config& config, int key);

  Options opt_;
  std::unique_ptr<xorbits::core::SessionManager> manager_;
  ResultLog log_;
};

std::unique_ptr<Workload> MakeTpch(const Options& opt);
std::unique_ptr<Workload> MakePipelines(const Options& opt);
std::unique_ptr<Workload> MakeServing(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
