#ifndef XORBITS_COMMON_THREAD_POOL_H_
#define XORBITS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xorbits {

/// Morsel body: processes rows/elements in [begin, end).
using MorselFn = std::function<void(int64_t, int64_t)>;

/// Work-stealing worker pool. Each worker owns a deque: it pops its own
/// tasks LIFO (cache-warm) and steals from siblings FIFO (oldest first);
/// external submissions round-robin across workers. Band workers in the
/// simulated cluster share one pool per worker node and run chunk-kernel
/// morsels on it via `ParallelFor`.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution on some pool thread.
  void Submit(std::function<void()> fn);

  /// Blocks until every queue is empty and no task is running.
  void WaitIdle();

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Runs `fn` over [begin, end) split into grain-sized morsels, blocking
  /// until all morsels finished. Submits `min(threads, morsels - 1, free
  /// cores)` runners, each holding one core of the budget until its loop
  /// exits; with no free core the morsels run inline. The calling thread
  /// participates (it claims morsels like a pool worker), so nested use
  /// cannot deadlock, and it takes back the cores of runners that had not
  /// started by the time the morsels ran out. The first
  /// exception thrown by a morsel is rethrown on the caller after all
  /// claimed morsels drain. Morsel decomposition depends only on
  /// (begin, end, grain) — never on thread count — so kernels that write
  /// disjoint per-morsel outputs and merge them in morsel-index order are
  /// byte-identical at any parallelism.
  void RunParallelFor(int64_t begin, int64_t end, int64_t grain,
                      const MorselFn& fn);

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;
  };

  void WorkerLoop(int self);
  /// Pops a task: own deque back, then steal sibling fronts. mu_ held.
  bool PopTask(int self, std::function<void()>* out);

  std::mutex mu_;
  std::condition_variable cv_;       // wakes workers
  std::condition_variable idle_cv_;  // wakes WaitIdle
  std::vector<Worker> workers_;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> submit_seq_{0};  // round-robin for external submits
  int active_ = 0;
  int queued_ = 0;
  bool shutdown_ = false;
};

/// Accumulates CPU time spent inside `ParallelFor`/`ParallelReduce` morsels
/// while installed on the current thread (RAII). `total_us` counts morsel
/// CPU across all executing threads; `inline_us` counts the share executed
/// on the installing thread itself (already visible to that thread's
/// CLOCK_THREAD_CPUTIME_ID). The executor installs one scope per subtask so
/// work offloaded to pool threads enters the simulated cost model instead
/// of being free.
class ParallelCpuScope {
 public:
  ParallelCpuScope();
  ~ParallelCpuScope();

  ParallelCpuScope(const ParallelCpuScope&) = delete;
  ParallelCpuScope& operator=(const ParallelCpuScope&) = delete;

  int64_t total_us() const { return total_us_.load(std::memory_order_relaxed); }
  int64_t inline_us() const {
    return inline_us_.load(std::memory_order_relaxed);
  }

  /// Morsel runners report here (owner = ran on the installing thread).
  void Add(int64_t us, bool owner);

 private:
  std::atomic<int64_t> total_us_{0};
  std::atomic<int64_t> inline_us_{0};
  ParallelCpuScope* prev_;  // scopes nest per thread
};

/// Installs `pool` as the current thread's kernel pool; chunk kernels pick
/// it up through the free `ParallelFor` below. Pass nullptr to force serial
/// execution. Returns the previously installed pool.
ThreadPool* SetCurrentThreadPool(ThreadPool* pool);
ThreadPool* CurrentThreadPool();

/// CLOCK_THREAD_CPUTIME_ID in microseconds.
int64_t ThreadCpuMicros();

/// Host-wide core budget (DESIGN.md §2a): one process-wide count of cores
/// in use, never above `CoreBudget()` = hardware_concurrency(). A band
/// worker holds one core per subtask (`CoreHold`); `ParallelFor` fans out
/// only onto the cores left free, so busy bands are not oversubscribed by
/// each other's morsel runners.
int CoreBudget();
int CoresInUse();
/// Reserves up to `want` cores, fewer when fewer are free, and returns how
/// many it got. Never blocks; the count never exceeds `CoreBudget()`.
int ReserveCores(int want);
/// Gives back `n` cores taken with ReserveCores.
void ReleaseCores(int n);

/// Holds one core of the budget for its lifetime (RAII) when one is free,
/// else none: the holder runs either way, it only stops others fanning out
/// onto its core.
class CoreHold {
 public:
  CoreHold() : held_(ReserveCores(1)) {}
  ~CoreHold() { ReleaseCores(held_); }

  CoreHold(const CoreHold&) = delete;
  CoreHold& operator=(const CoreHold&) = delete;

 private:
  const int held_;
};

/// Morsel-driven parallel loop over [begin, end). Uses the thread's current
/// pool when one is installed, the range spans several morsels and the core
/// budget has a free core; falls back to running the same morsel sequence
/// inline otherwise (including when already inside a morsel — nested calls
/// serialize, which keeps the decomposition identical and cannot deadlock).
/// A call that had a pool and several morsels but found no free core counts
/// `morsel_fanouts_declined`. CPU time is charged to the innermost
/// ParallelCpuScope of the thread that entered the loop, and counters
/// raised by morsels to that thread's MetricsScope.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const MorselFn& fn);

/// How many runners a ParallelFor over `morsels` morsels would get if it
/// started now: the caller plus one per free core, at most the pool size
/// and at most CoreBudget() in all; 1 with no pool, inside a morsel, or
/// when no core is idle. Kernels that cut their work into one piece per
/// runner, and whose results do not depend on the cut, size it with this.
/// A core freed or taken after the call only moves pieces between
/// runners.
int ParallelWidth(int64_t morsels);

/// Number of morsels ParallelFor will use for this range.
inline int64_t NumMorsels(int64_t begin, int64_t end, int64_t grain) {
  if (end <= begin) return 0;
  if (grain < 1) grain = 1;
  return (end - begin + grain - 1) / grain;
}

/// A grain that caps a range at `max_morsels` pieces (but never below
/// `min_grain` rows). Aggregation kernels use this so per-morsel partial
/// buffers stay bounded while the decomposition remains a pure function of
/// the input size.
inline int64_t GrainForMorsels(int64_t n, int64_t min_grain,
                               int64_t max_morsels) {
  int64_t grain = (n + max_morsels - 1) / max_morsels;
  return grain < min_grain ? min_grain : grain;
}

/// Deterministic parallel reduction: maps each morsel to a partial with
/// `map(lo, hi)` and folds the partials in morsel-index order, so
/// floating-point results do not depend on thread count or interleaving.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(int64_t begin, int64_t end, int64_t grain, T identity,
                 const MapFn& map, const CombineFn& combine) {
  const int64_t morsels = NumMorsels(begin, end, grain);
  if (morsels == 0) return identity;
  if (grain < 1) grain = 1;
  std::vector<T> partials(morsels);  // each one is assigned by `map`
  ParallelFor(begin, end, grain, [&](int64_t lo, int64_t hi) {
    partials[(lo - begin) / grain] = map(lo, hi);
  });
  T acc = std::move(identity);
  for (int64_t m = 0; m < morsels; ++m) {
    acc = combine(std::move(acc), std::move(partials[m]));
  }
  return acc;
}

}  // namespace xorbits

#endif  // XORBITS_COMMON_THREAD_POOL_H_
