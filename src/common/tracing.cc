#include "common/tracing.h"

#include <algorithm>
#include <utility>

#include "common/trace_names.h"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

namespace xorbits {

namespace {

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendMetaEvent(std::string* out, int pid, int tid, const char* what,
                     const std::string& name, bool* first) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += "  {\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" + what +
          "\",\"args\":{\"name\":\"";
  AppendJsonEscaped(out, name);
  *out += "\"}}";
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kKernelSerial: return "kernel_serial";
    case TraceStage::kKernelParallel: return "kernel_parallel";
    case TraceStage::kDispatch: return "dispatch";
    case TraceStage::kTransfer: return "transfer";
    case TraceStage::kStore: return "store";
    case TraceStage::kRecovery: return "recovery";
    case TraceStage::kSpill: return "spill";
    case TraceStage::kIdle: return "idle";
  }
  return "unknown";
}

int Tracer::RegisterProcess(const std::string& name, int num_bands) {
  int pid;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto p = std::make_unique<Process>();
    p->name = name;
    p->num_bands = num_bands;
    processes_.push_back(std::move(p));
    pid = static_cast<int>(processes_.size());  // pids are 1-based
  }
  return pid;
}

Tracer::Process* Tracer::process(int pid) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid < 1 || pid > static_cast<int>(processes_.size())) return nullptr;
  return processes_[pid - 1].get();
}

void Tracer::SetProcessMetrics(int pid, MetricsSnapshot snapshot) {
  Process* p = process(pid);
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  p->metrics = std::move(snapshot);
}

int64_t Tracer::sim_now(int pid) const {
  Process* p = process(pid);
  return p == nullptr ? 0 : p->sim_now.load(std::memory_order_relaxed);
}

void Tracer::AdvanceSim(int pid, int64_t us) {
  Process* p = process(pid);
  if (p != nullptr) p->sim_now.fetch_add(us, std::memory_order_relaxed);
}

void Tracer::AddStage(int pid, TraceStage stage, int64_t us) {
  Process* p = process(pid);
  if (p != nullptr) {
    p->stages[static_cast<int>(stage)].fetch_add(us,
                                                 std::memory_order_relaxed);
  }
}

int64_t Tracer::stage_total(int pid, TraceStage stage) const {
  Process* p = process(pid);
  return p == nullptr
             ? 0
             : p->stages[static_cast<int>(stage)].load(
                   std::memory_order_relaxed);
}

Tracer::Shard& Tracer::ShardForThisThread() {
  const size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return shards_[h % kNumShards];
}

void Tracer::Emit(TraceEvent event) {
  Shard& shard = ShardForThisThread();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.events.push_back(std::move(event));
  }
  event_count_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Instant(int pid, int tid, std::string name, TraceArgs args) {
  TraceEvent e;
  e.name = std::move(name);
  e.phase = TraceEvent::Phase::kInstant;
  e.pid = pid;
  e.tid = tid;
  e.ts_us = sim_now(pid);
  e.args = std::move(args);
  Emit(std::move(e));
}

void Tracer::CompleteAt(int pid, int tid, std::string name, int64_t ts_us,
                        int64_t dur_us, TraceArgs args, bool critical) {
  TraceEvent e;
  e.name = std::move(name);
  e.phase = TraceEvent::Phase::kComplete;
  e.pid = pid;
  e.tid = tid;
  e.ts_us = ts_us;
  e.dur_us = dur_us < 1 ? 1 : dur_us;
  e.critical = critical;
  e.args = std::move(args);
  Emit(std::move(e));
}

Tracer::Span Tracer::BeginSpan(int pid, int tid, std::string name,
                               TraceArgs args) {
  Span s;
  s.pid = pid;
  s.tid = tid;
  s.name = std::move(name);
  s.sim_start_us = sim_now(pid);
  s.wall_start_us = WallMicros();
  s.args = std::move(args);
  s.active = true;
  return s;
}

void Tracer::EndSpan(Span* span, TraceArgs extra) {
  if (span == nullptr || !span->active) return;
  span->active = false;
  TraceArgs args = std::move(span->args);
  for (auto& a : extra) args.push_back(std::move(a));
  args.push_back(Arg("wall_us", WallMicros() - span->wall_start_us));
  CompleteAt(span->pid, span->tid, std::move(span->name), span->sim_start_us,
             sim_now(span->pid) - span->sim_start_us, std::move(args));
}

std::vector<int> Tracer::process_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> ids;
  for (size_t i = 0; i < processes_.size(); ++i) {
    ids.push_back(static_cast<int>(i) + 1);
  }
  return ids;
}

std::string Tracer::process_name(int pid) const {
  Process* p = process(pid);
  return p == nullptr ? std::string() : p->name;
}

std::vector<TraceEvent> Tracer::SnapshotEvents() const {
  std::vector<TraceEvent> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.events.begin(), shard.events.end());
  }
  return out;
}

std::string Tracer::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  // Track-naming metadata: one process entry per session, one thread entry
  // per track (supervisor/tiling/storage + one per band).
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < processes_.size(); ++i) {
      const int pid = static_cast<int>(i) + 1;
      const Process& p = *processes_[i];
      AppendMetaEvent(&out, pid, kTrackSupervisor, "process_name",
                      p.name + " (session " + std::to_string(pid) + ")",
                      &first);
      AppendMetaEvent(&out, pid, kTrackSupervisor, "thread_name",
                      "supervisor", &first);
      AppendMetaEvent(&out, pid, kTrackTiling, "thread_name", "tiling",
                      &first);
      AppendMetaEvent(&out, pid, kTrackStorage, "thread_name", "storage",
                      &first);
      for (int b = 0; b < p.num_bands; ++b) {
        AppendMetaEvent(&out, pid, kTrackBandBase + b, "thread_name",
                        "band " + std::to_string(b), &first);
      }
    }
  }
  for (const TraceEvent& e : SnapshotEvents()) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"ph\":\"";
    out += static_cast<char>(e.phase);
    out += "\",\"pid\":" + std::to_string(e.pid) +
           ",\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + std::to_string(e.ts_us);
    if (e.phase == TraceEvent::Phase::kComplete) {
      out += ",\"dur\":" + std::to_string(e.dur_us);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"name\":\"";
    AppendJsonEscaped(&out, e.name);
    out += "\",\"cat\":\"xorbits\",\"args\":{";
    bool first_arg = true;
    for (const TraceArg& a : e.args) {
      if (!first_arg) out += ",";
      first_arg = false;
      out += "\"";
      AppendJsonEscaped(&out, a.key);
      out += "\":";
      if (a.numeric) {
        out += a.value.empty() ? "0" : a.value;
      } else {
        out += "\"";
        AppendJsonEscaped(&out, a.value);
        out += "\"";
      }
    }
    if (e.critical) {
      if (!first_arg) out += ",";
      out += "\"critical\":1";
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::IOError("cannot open trace file " + path);
  const std::string json = ToChromeJson();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!f) return Status::IOError("trace write failed: " + path);
  return Status::OK();
}

std::string Tracer::RenderRunReport(int pid) const {
  Process* p = process(pid);
  if (p == nullptr) return "no such traced process\n";
  const int64_t sim_total = p->sim_now.load(std::memory_order_relaxed);

  // Gather this process's events once.
  std::vector<TraceEvent> events;
  for (TraceEvent& e : SnapshotEvents()) {
    if (e.pid == pid) events.push_back(std::move(e));
  }

  std::ostringstream os;
  os << "=== run report: " << p->name << " (session " << pid << ") ===\n";
  os << "simulated total: " << sim_total << " us ("
     << static_cast<double>(sim_total) / 1e6 << " s)\n";

  // 1. Critical-path stage breakdown; the totals sum to sim_total exactly
  //    (kIdle absorbs critical-chain wait, kSpill the disk backpressure).
  os << "\n-- stage breakdown (critical path; sums to simulated total) --\n";
  int64_t stage_sum = 0;
  for (int s = 0; s < kTraceStageCount; ++s) {
    stage_sum += p->stages[s].load(std::memory_order_relaxed);
  }
  char line[160];
  for (int s = 0; s < kTraceStageCount; ++s) {
    const int64_t us = p->stages[s].load(std::memory_order_relaxed);
    const double pct =
        sim_total > 0 ? 100.0 * static_cast<double>(us) / sim_total : 0.0;
    std::snprintf(line, sizeof(line), "  %-16s %12lld us  %6.2f%%\n",
                  TraceStageName(static_cast<TraceStage>(s)),
                  static_cast<long long>(us), pct);
    os << line;
  }
  std::snprintf(line, sizeof(line), "  %-16s %12lld us  (simulated %lld)\n",
                "total", static_cast<long long>(stage_sum),
                static_cast<long long>(sim_total));
  os << line;

  // 2. Per-op modeled band time (all subtasks; bands overlap, so this sums
  //    to total band-busy time, not to the makespan).
  struct OpAgg {
    int64_t count = 0;
    int64_t busy_us = 0;
  };
  std::map<std::string, OpAgg> per_op;
  std::map<int, int64_t> band_busy;
  int64_t total_busy = 0;
  for (const TraceEvent& e : events) {
    if (e.phase != TraceEvent::Phase::kComplete ||
        e.tid < kTrackBandBase || e.name.rfind("subtask:", 0) != 0) {
      continue;
    }
    OpAgg& agg = per_op[e.name.substr(8)];
    agg.count++;
    agg.busy_us += e.dur_us;
    band_busy[e.tid - kTrackBandBase] += e.dur_us;
    total_busy += e.dur_us;
  }
  os << "\n-- per-op modeled band time --\n";
  std::vector<std::pair<std::string, OpAgg>> ops(per_op.begin(),
                                                 per_op.end());
  std::sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
    return a.second.busy_us > b.second.busy_us;
  });
  for (const auto& [name, agg] : ops) {
    const double pct =
        total_busy > 0
            ? 100.0 * static_cast<double>(agg.busy_us) / total_busy
            : 0.0;
    std::snprintf(line, sizeof(line),
                  "  %-32s %6lld subtasks %12lld us  %6.2f%%\n",
                  name.c_str(), static_cast<long long>(agg.count),
                  static_cast<long long>(agg.busy_us), pct);
    os << line;
  }

  // 3. Per-band busy/idle/spill + peak memory watermarks.
  std::map<int, int64_t> band_spill, band_peak;
  if (p->metrics.has_value()) {
    for (const auto& [name, value] : p->metrics->gauges) {
      auto tail_of = [&name](const char* prefix) -> int {
        const std::string pre(prefix);
        if (name.rfind(pre, 0) != 0) return -1;
        return std::atoi(name.c_str() + pre.size());
      };
      int b = tail_of("band_spill_bytes/");
      if (b >= 0) band_spill[b] = value;
      b = tail_of("band_peak_bytes/");
      if (b >= 0) band_peak[b] = value;
    }
  }
  os << "\n-- per-band utilization (of " << sim_total
     << " us simulated) --\n";
  for (int b = 0; b < p->num_bands; ++b) {
    const int64_t busy = band_busy.count(b) ? band_busy[b] : 0;
    const int64_t idle = sim_total > busy ? sim_total - busy : 0;
    const double busy_pct =
        sim_total > 0 ? 100.0 * static_cast<double>(busy) / sim_total : 0.0;
    std::snprintf(
        line, sizeof(line),
        "  band %-3d busy %12lld us (%5.1f%%)  idle %12lld us  "
        "spilled %10lld B  peak %10lld B\n",
        b, static_cast<long long>(busy), busy_pct,
        static_cast<long long>(idle),
        static_cast<long long>(band_spill.count(b) ? band_spill[b] : 0),
        static_cast<long long>(band_peak.count(b) ? band_peak[b] : 0));
    os << line;
  }

  // 4. Critical path, longest segments first.
  std::vector<const TraceEvent*> crit;
  for (const TraceEvent& e : events) {
    if (e.critical) crit.push_back(&e);
  }
  std::sort(crit.begin(), crit.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return a->ts_us < b->ts_us;
            });
  os << "\n-- critical path (" << crit.size() << " segments) --\n";
  const size_t max_rows = 20;
  for (size_t i = 0; i < crit.size() && i < max_rows; ++i) {
    const TraceEvent& e = *crit[i];
    std::snprintf(line, sizeof(line),
                  "  ts %12lld us  dur %12lld us  band %-3d %s\n",
                  static_cast<long long>(e.ts_us),
                  static_cast<long long>(e.dur_us), e.tid - kTrackBandBase,
                  e.name.c_str());
    os << line;
  }
  if (crit.size() > max_rows) {
    os << "  ... " << crit.size() - max_rows << " more\n";
  }

  // 5. Optimizer pipeline: one row per configured pass, in pipeline order
  //    (tileable, then chunk, then subtask level), from the pass gauges.
  if (p->metrics.has_value()) {
    struct PassRow {
      int64_t runs = 0;
      int64_t us = 0;
      int64_t removed = 0;
      int64_t rewritten = 0;
    };
    // Keyed by slot ("t0_predicate_pushdown"); slots sort by level rank
    // then pipeline index.
    std::map<std::pair<int, std::string>, PassRow> passes;
    auto slot_key =
        [](const std::string& slot) -> std::pair<int, std::string> {
      int rank = 3;
      if (!slot.empty()) {
        if (slot[0] == 't') rank = 0;
        if (slot[0] == 'c') rank = 1;
        if (slot[0] == 's') rank = 2;
      }
      return {rank, slot};
    };
    for (const auto& [name, value] : p->metrics->gauges) {
      auto slot_of = [&name](const char* prefix) -> std::string {
        const std::string pre(prefix);
        if (name.rfind(pre, 0) != 0) return "";
        return name.substr(pre.size());
      };
      std::string s = slot_of(trace::kGaugePassRunsPrefix);
      if (!s.empty()) passes[slot_key(s)].runs = value;
      s = slot_of(trace::kGaugePassUsPrefix);
      if (!s.empty()) passes[slot_key(s)].us = value;
      s = slot_of(trace::kGaugePassRemovedPrefix);
      if (!s.empty()) passes[slot_key(s)].removed = value;
      s = slot_of(trace::kGaugePassRewrittenPrefix);
      if (!s.empty()) passes[slot_key(s)].rewritten = value;
    }
    if (!passes.empty()) {
      os << "\n-- optimizer passes (pipeline order) --\n";
      for (const auto& [key, row] : passes) {
        std::snprintf(line, sizeof(line),
                      "  %-28s runs %5lld  %10lld us  removed %6lld  "
                      "rewritten %6lld\n",
                      key.second.c_str(), static_cast<long long>(row.runs),
                      static_cast<long long>(row.us),
                      static_cast<long long>(row.removed),
                      static_cast<long long>(row.rewritten));
        os << line;
      }
    }
  }

  // 6. Multi-tenant serving (rendered for the cluster process, which owns
  //    the admission gauges): live/shed sessions, admission queue wait,
  //    and per-session in-memory bytes the quota is enforced against.
  if (p->metrics.has_value()) {
    bool have_sessions = false;
    int64_t active = 0, shed = 0;
    std::map<int64_t, int64_t> session_bytes;
    const std::string bytes_prefix(trace::kGaugeSessionBytesPrefix);
    for (const auto& [name, value] : p->metrics->gauges) {
      if (name == trace::kGaugeSessionsActive) {
        active = value;
        have_sessions = true;
      } else if (name == trace::kGaugeSessionsShed) {
        shed = value;
        have_sessions = true;
      } else if (name.rfind(bytes_prefix, 0) == 0) {
        session_bytes[std::atoll(name.c_str() + bytes_prefix.size())] = value;
        have_sessions = true;
      }
    }
    const HistogramSnapshot* wait = nullptr;
    for (const HistogramSnapshot& h : p->metrics->histograms) {
      if (h.name == trace::kHistSessionQueueWaitUs && h.count > 0) wait = &h;
    }
    if (have_sessions || wait != nullptr) {
      os << "\n-- sessions (multi-tenant serving) --\n";
      std::snprintf(line, sizeof(line),
                    "  active %lld  shed %lld\n",
                    static_cast<long long>(active),
                    static_cast<long long>(shed));
      os << line;
      if (wait != nullptr) {
        const double mean = static_cast<double>(wait->sum) / wait->count;
        std::snprintf(line, sizeof(line),
                      "  admission wait: count=%lld mean=%.1f us max=%lld us\n",
                      static_cast<long long>(wait->count), mean,
                      static_cast<long long>(wait->max));
        os << line;
      }
      for (const auto& [sid, bytes] : session_bytes) {
        std::snprintf(line, sizeof(line),
                      "  session %-4lld in-memory %12lld B\n",
                      static_cast<long long>(sid),
                      static_cast<long long>(bytes));
        os << line;
      }
    }
  }

  // 7. Result cache (DESIGN.md §9), rendered for the process that owns the
  //    cache's metrics (the cluster): hit rate, publish/evict/invalidate
  //    churn, and the cached footprint the cluster budget is enforced
  //    against.
  if (p->metrics.has_value()) {
    int64_t hits = 0, misses = 0, publishes = 0, evictions = 0,
            invalidations = 0;
    bool have_cache = false;
    for (const auto& [name, value] : p->metrics->counters) {
      if (name == "cache_hits") hits = value;
      else if (name == "cache_misses") misses = value;
      else if (name == "cache_publishes") publishes = value;
      else if (name == "cache_evictions") evictions = value;
      else if (name == "cache_invalidations") invalidations = value;
      else continue;
      have_cache = have_cache || value != 0;
    }
    int64_t cache_bytes = 0, cache_entries = 0;
    for (const auto& [name, value] : p->metrics->gauges) {
      if (name == trace::kGaugeCacheBytes) {
        cache_bytes = value;
        have_cache = have_cache || value != 0;
      } else if (name == trace::kGaugeCacheEntries) {
        cache_entries = value;
        have_cache = have_cache || value != 0;
      }
    }
    if (have_cache) {
      const int64_t probes = hits + misses;
      const double hit_rate =
          probes > 0 ? static_cast<double>(hits) / probes : 0.0;
      os << "\n-- result cache (cross-session) --\n";
      std::snprintf(line, sizeof(line),
                    "  hits %lld  misses %lld  hit_rate %.3f\n",
                    static_cast<long long>(hits),
                    static_cast<long long>(misses), hit_rate);
      os << line;
      std::snprintf(line, sizeof(line),
                    "  publishes %lld  evictions %lld  invalidations %lld\n",
                    static_cast<long long>(publishes),
                    static_cast<long long>(evictions),
                    static_cast<long long>(invalidations));
      os << line;
      std::snprintf(line, sizeof(line),
                    "  cached %lld B in %lld entries\n",
                    static_cast<long long>(cache_bytes),
                    static_cast<long long>(cache_entries));
      os << line;
    }
  }

  // 8. Counters (the whole counter table, whichever snapshot section
  //    holds each) + histograms from the attached metrics snapshot.
  if (p->metrics.has_value()) {
    os << "\n-- counters (non-zero) --\n";
    for (const CounterInfo& c : kCounterTable) {
      const auto& section = c.section == CounterSection::kCounters
                                ? p->metrics->counters
                                : p->metrics->gauges;
      for (const auto& [name, value] : section) {
        if (name != c.name) continue;
        if (value != 0) os << "  " << name << " = " << value << "\n";
        break;
      }
    }
    os << "\n-- histograms --\n";
    for (const HistogramSnapshot& h : p->metrics->histograms) {
      const double mean =
          h.count > 0 ? static_cast<double>(h.sum) / h.count : 0.0;
      std::snprintf(line, sizeof(line),
                    "  %s (%s): count=%lld mean=%.1f min=%lld max=%lld\n",
                    h.name.c_str(), h.unit.c_str(),
                    static_cast<long long>(h.count), mean,
                    static_cast<long long>(h.min),
                    static_cast<long long>(h.max));
      os << line;
      for (size_t i = 0; i < h.counts.size(); ++i) {
        if (h.counts[i] == 0) continue;
        if (i < h.bounds.size()) {
          std::snprintf(line, sizeof(line), "    <= %-12lld %lld\n",
                        static_cast<long long>(h.bounds[i]),
                        static_cast<long long>(h.counts[i]));
        } else {
          std::snprintf(line, sizeof(line), "    >  %-12lld %lld\n",
                        static_cast<long long>(h.bounds.back()),
                        static_cast<long long>(h.counts[i]));
        }
        os << line;
      }
    }
  }
  os << "\n";
  return os.str();
}

std::string Tracer::RenderAllReports() const {
  std::string out;
  for (int pid : process_ids()) out += RenderRunReport(pid);
  return out;
}

}  // namespace xorbits
