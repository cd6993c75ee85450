// Tests of the observability layer: histogram bucket boundaries, registry
// snapshots, tracer span semantics (including spans held open across a
// co_yield tile suspension), Chrome-trace JSON well-formedness, the
// critical-path stage invariant, the disabled-tracer zero-allocation path,
// and concurrent emission (this test runs under the TSan concurrency
// matrix).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace_names.h"
#include "common/tracing.h"
#include "core/xorbits.h"
#include "dataframe/kernels.h"
#include "operators/expr.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every new/delete in this binary goes through
// these, so a test can assert that a code path allocates nothing.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow variants must route through the same malloc, or a nothrow
// allocation (libstdc++'s get_temporary_buffer inside stable_sort) ends up
// freed by the overrides below — an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xorbits {
namespace {

using dataframe::CmpOp;
using dataframe::Column;
using dataframe::DataFrame;
using operators::Col;
using operators::CompareExpr;
using operators::Lit;

// --- histograms ------------------------------------------------------------

TEST(HistogramTest, DefaultBucketPolicy) {
  const std::vector<int64_t> b = DefaultBuckets();
  ASSERT_EQ(b.size(), 12u);
  EXPECT_EQ(b.front(), 16);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_EQ(b[i], b[i - 1] * 4);
  EXPECT_EQ(b.back(), 64LL << 20);  // 64Mi
}

TEST(HistogramTest, BucketBoundaries) {
  Histogram h("h", "us", {10, 100, 1000});
  h.Observe(10);    // bucket 0: v <= 10
  h.Observe(11);    // bucket 1
  h.Observe(100);   // bucket 1: v <= 100
  h.Observe(1000);  // bucket 2
  h.Observe(1001);  // overflow
  h.Observe(-5);    // bucket 0 (below the first bound)
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s.counts[0], 2);
  EXPECT_EQ(s.counts[1], 2);
  EXPECT_EQ(s.counts[2], 1);
  EXPECT_EQ(s.counts[3], 1);
  EXPECT_EQ(s.count, 6);
  EXPECT_EQ(s.min, -5);
  EXPECT_EQ(s.max, 1001);
  EXPECT_EQ(s.sum, 10 + 11 + 100 + 1000 + 1001 - 5);
  h.Reset();
  const HistogramSnapshot r = h.Snapshot();
  EXPECT_EQ(r.count, 0);
  EXPECT_EQ(r.min, 0);
  EXPECT_EQ(r.max, 0);
}

TEST(MetricsRegistryTest, IdempotentRegistrationAndSnapshot) {
  MetricsRegistry reg;
  Gauge* g1 = reg.GetGauge("g", "bytes");
  Gauge* g2 = reg.GetGauge("g", "bytes");
  EXPECT_EQ(g1, g2);
  g1->Set(5);
  g1->Add(2);
  g1->SetMax(3);  // below current value: no-op
  EXPECT_EQ(g1->value(), 7);
  g1->SetMax(100);
  EXPECT_EQ(g1->value(), 100);

  Histogram* h1 = reg.GetHistogram("h", "us", DefaultBuckets());
  Histogram* h2 = reg.GetHistogram("h", "us", {1, 2});  // bounds ignored
  EXPECT_EQ(h1, h2);
  h1->Observe(42);

  const auto gauges = reg.SnapshotGauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].first, "g");
  EXPECT_EQ(gauges[0].second, 100);
  const auto hists = reg.SnapshotHistograms();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].count, 1);
}

TEST(MetricsTest, SnapshotIsOneConsistentCopy) {
  Metrics m;
  m.Add(CounterId::kSubtasksExecuted, 3);
  m.subtask_latency_us->Observe(500);
  m.registry.GetGauge("band_peak_bytes/0", "bytes")->Set(1234);
  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.Counter("subtasks_executed"), 3);
  EXPECT_EQ(s.Counter("no_such_counter"), 0);
  bool found_gauge = false;
  for (const auto& [name, v] : s.gauges) {
    if (name == "band_peak_bytes/0") {
      EXPECT_EQ(v, 1234);
      found_gauge = true;
    }
  }
  EXPECT_TRUE(found_gauge);
  bool found_hist = false;
  for (const auto& h : s.histograms) {
    if (h.name == trace::kHistSubtaskLatencyUs) {
      EXPECT_EQ(h.count, 1);
      found_hist = true;
    }
  }
  EXPECT_TRUE(found_hist);
}

// --- tracer core -----------------------------------------------------------

TEST(TracerTest, ExplicitSpanTracksSimulatedTime) {
  Tracer tr;
  const int pid = tr.RegisterProcess("test", 2);
  Tracer::Span span = tr.BeginSpan(pid, kTrackSupervisor, "outer");
  tr.AdvanceSim(pid, 250);
  tr.EndSpan(&span);
  tr.EndSpan(&span);  // idempotent: second end emits nothing
  const auto events = tr.SnapshotEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].ts_us, 0);
  EXPECT_EQ(events[0].dur_us, 250);
  EXPECT_EQ(tr.sim_now(pid), 250);
}

TEST(TracerTest, StageAccounting) {
  Tracer tr;
  const int pid = tr.RegisterProcess("test", 1);
  tr.AddStage(pid, TraceStage::kKernelSerial, 70);
  tr.AddStage(pid, TraceStage::kIdle, 30);
  tr.AdvanceSim(pid, 100);
  int64_t total = 0;
  for (int s = 0; s < kTraceStageCount; ++s) {
    total += tr.stage_total(pid, static_cast<TraceStage>(s));
  }
  EXPECT_EQ(total, tr.sim_now(pid));
}

TEST(TracerTest, ConcurrentEmitKeepsEveryEvent) {
  Tracer tr;
  const int pid = tr.RegisterProcess("test", 4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tr, pid, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tr.Instant(pid, kTrackBandBase + (t % 4), "evt",
                   {Arg("i", int64_t{i})});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tr.event_count(), kThreads * kPerThread);
  EXPECT_EQ(tr.SnapshotEvents().size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(TracerTest, DisabledPathAllocatesNothing) {
  // The disabled observability path must be a null test: no event, no span
  // name, no args may be built. This is what makes trace-capable call sites
  // free when tracing is off.
  Tracer* tracer = nullptr;
  const int64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    TraceSpan span(tracer, 1, kTrackSupervisor, trace::kSpanMaterialize);
    span.AddArg(Arg("k", int64_t{1}));  // dropped: no tracer
    span.End();
    if (tracer != nullptr) {
      // Dynamic names / args only exist inside the guard.
      tracer->Instant(1, kTrackSupervisor, trace::kEventAddTileable,
                      {Arg("op", "x")});
    }
  }
  const int64_t after = g_allocations.load();
  EXPECT_EQ(after, before) << "disabled tracing path allocated memory";
}

// --- JSON well-formedness --------------------------------------------------

// Minimal JSON validator (structure only, no semantics): enough to catch
// unbalanced braces, bad escaping, and trailing commas in the exporter.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(s_[pos_]) || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(s_[pos_])) ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TracerTest, ChromeJsonIsWellFormed) {
  Tracer tr;
  const int pid = tr.RegisterProcess("test \"quoted\"\n", 2);
  tr.Instant(pid, kTrackStorage, "evil\\name\t",
             {Arg("key", std::string("a\"b\\c\nd")), Arg("n", int64_t{-7})});
  tr.CompleteAt(pid, kTrackBandBase, "subtask:Eval", 10, 20,
                {Arg("chunk", "k_0")}, /*critical=*/true);
  const std::string json = tr.ToChromeJson();
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// --- end-to-end: traced session -------------------------------------------

Config TracedConfig(Tracer* tracer) {
  Config c;
  c.num_workers = 2;
  c.bands_per_worker = 2;
  c.chunk_store_limit = 1 << 12;  // many chunks -> real schedules
  c.trace.sink = tracer;
  return c;
}

DataFrame Numbers(int64_t n) {
  std::vector<int64_t> v(n);
  for (int64_t i = 0; i < n; ++i) v[i] = i;
  return DataFrame::Make({"v"}, {Column::Int64(v)}).MoveValue();
}

TEST(TracedSessionTest, SpanNestingAcrossTileYield) {
  Tracer tracer;
  {
    core::Session session(TracedConfig(&tracer));
    auto df = FromPandas(&session, Numbers(2000));
    // filter -> iloc: iloc's tile() must co_yield for the filter's
    // metadata, so its tile span stays open across a partial execution.
    auto f =
        df->Filter(CompareExpr(Col("v"), CmpOp::kGe, Lit(int64_t{500})));
    auto row = f->Iloc(123);
    ASSERT_TRUE(row->Fetch().ok());
    ASSERT_GE(session.metrics().Get(CounterId::kDynamicYields), 1);
  }
  const auto events = tracer.SnapshotEvents();
  // Find a tile span that contains a tile:yield instant, and a schedule:run
  // span fully inside it: the partial execution the suspended coroutine
  // waited for.
  bool found_nested = false;
  for (const auto& tile : events) {
    if (tile.phase != TraceEvent::Phase::kComplete ||
        tile.tid != kTrackTiling ||
        tile.name.rfind(trace::kSpanTilePrefix, 0) != 0) {
      continue;
    }
    const int64_t t0 = tile.ts_us;
    const int64_t t1 = tile.ts_us + tile.dur_us;
    bool has_yield = false;
    bool has_run = false;
    for (const auto& e : events) {
      if (e.pid != tile.pid) continue;
      if (e.name == trace::kEventTileYield && e.ts_us >= t0 && e.ts_us <= t1) {
        has_yield = true;
      }
      if (e.name == trace::kSpanScheduleRun && e.ts_us >= t0 &&
          e.ts_us + e.dur_us <= t1) {
        has_run = true;
      }
    }
    if (has_yield && has_run) found_nested = true;
  }
  EXPECT_TRUE(found_nested)
      << "no tile span contained both a yield and a partial execution";

  // The full export of a real session must be valid JSON too.
  EXPECT_TRUE(JsonValidator(tracer.ToChromeJson()).Validate());
}

TEST(TracedSessionTest, StageTotalsSumToSimulatedTime) {
  Tracer tracer;
  int64_t simulated_us = 0;
  int pid = 0;
  {
    core::Session session(TracedConfig(&tracer));
    pid = session.config().trace.pid;
    auto df = FromPandas(&session, Numbers(4000));
    auto g = df->GroupByAgg({"v"}, {{"", dataframe::AggFunc::kSize, "n"}});
    ASSERT_TRUE(g->Fetch().ok());
    simulated_us = session.metrics().Get(CounterId::kSimulatedUs);
  }
  ASSERT_GT(simulated_us, 0);
  // The session registers its own process next to its cluster's.
  const auto pids = tracer.process_ids();
  ASSERT_EQ(pids.size(), 2u);
  const int cluster_pid = pids[0] == pid ? pids[1] : pids[0];
  // The critical-path decomposition is exact: stages sum to the session's
  // simulated clock, which matches its simulated_us counter.
  int64_t stage_sum = 0;
  for (int s = 0; s < kTraceStageCount; ++s) {
    stage_sum += tracer.stage_total(pid, static_cast<TraceStage>(s));
  }
  EXPECT_EQ(stage_sum, tracer.sim_now(pid));
  EXPECT_EQ(tracer.sim_now(pid), simulated_us);

  // The session destructor attached its metrics: its run report renders
  // the stage breakdown and the subtask latency histogram. The storage
  // gauges are the cluster's, so the per-band peaks render there.
  const std::string report = tracer.RenderRunReport(pid);
  EXPECT_NE(report.find("stage breakdown"), std::string::npos);
  EXPECT_NE(report.find(trace::kHistSubtaskLatencyUs), std::string::npos);
  EXPECT_NE(tracer.RenderRunReport(cluster_pid).find("band 0"),
            std::string::npos);
}

TEST(TracedSessionTest, UntracedSessionEmitsNothing) {
  Tracer tracer;  // exists, but never handed to the session
  core::Session session((Config()));
  auto df = FromPandas(&session, Numbers(100));
  ASSERT_TRUE(df->Fetch().ok());
  EXPECT_EQ(tracer.event_count(), 0);
  EXPECT_TRUE(tracer.process_ids().empty());
}

}  // namespace
}  // namespace xorbits
