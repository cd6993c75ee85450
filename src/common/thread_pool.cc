#include "common/thread_pool.h"

#include <algorithm>
#include <ctime>
#include <exception>
#include <memory>

#include "common/metrics.h"

namespace xorbits {

namespace {

thread_local ThreadPool* t_current_pool = nullptr;
thread_local ParallelCpuScope* t_cpu_scope = nullptr;
// True while this thread is executing a morsel body; nested ParallelFor
// calls then run inline so one logical task cannot recursively flood the
// pool (and caller-helping threads cannot re-enter fan-out).
thread_local bool t_in_morsel = false;

/// Host-wide cores in use: band workers inside a subtask plus running (or
/// queued, not yet revoked) morsel runners. Capped at CoreBudget().
std::atomic<int> g_cores_in_use{0};

/// Runs morsels [0, morsels) of (begin, grain, end) on the calling thread
/// in morsel order — the same decomposition as the fanned-out path, so
/// results are identical by construction. A nested call (already inside a
/// morsel) must not charge the scope: the enclosing morsel's timer covers
/// this CPU already.
void RunInline(int64_t begin, int64_t end, int64_t grain, int64_t morsels,
               const MorselFn& fn) {
  const bool charge = !t_in_morsel;
  for (int64_t m = 0; m < morsels; ++m) {
    const int64_t lo = begin + m * grain;
    const int64_t hi = std::min(end, lo + grain);
    const bool was_in_morsel = t_in_morsel;
    t_in_morsel = true;
    const int64_t t0 = ThreadCpuMicros();
    try {
      fn(lo, hi);
    } catch (...) {
      t_in_morsel = was_in_morsel;
      if (charge && t_cpu_scope) {
        t_cpu_scope->Add(ThreadCpuMicros() - t0, true);
      }
      throw;
    }
    t_in_morsel = was_in_morsel;
    if (charge && t_cpu_scope) {
      t_cpu_scope->Add(ThreadCpuMicros() - t0, true);
    }
  }
}

/// Shared state of one fanned-out ParallelFor call. Heap-allocated and
/// shared with the runner tasks so a straggling runner that wakes after the
/// caller returned still touches valid memory.
struct MorselState {
  int64_t begin = 0;
  int64_t grain = 1;
  int64_t end = 0;
  int64_t morsels = 0;
  const MorselFn* fn = nullptr;
  ParallelCpuScope* cpu = nullptr;  // caller's scope; may be null
  Metrics* metrics = nullptr;       // caller's MetricsScope target

  std::atomic<int64_t> next{0};  // morsel claim ticket
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t done = 0;  // guarded by mu
  std::exception_ptr error;  // first failure, guarded by mu
  // Runners submitted with a reserved core that have not started yet, and
  // runners inside their loop. Guarded by mu.
  int pending = 0;
  int running = 0;

  /// Body of one submitted runner. It owns one reserved core from start to
  /// exit; a runner the caller already revoked (its core given back) does
  /// nothing.
  void RunRunner() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (pending == 0) return;
      --pending;
      ++running;
    }
    RunLoop(/*is_owner=*/false);  // catches every morsel failure
    ReleaseCores(1);
    std::lock_guard<std::mutex> lock(mu);
    if (--running == 0 && done == morsels) done_cv.notify_all();
  }

  /// Claims and runs morsels until none remain. CPU time is charged per
  /// morsel *before* the morsel is marked done, so once the caller observes
  /// completion no runner touches the (stack-owned) CpuScope again.
  void RunLoop(bool is_owner) {
    MetricsScope scope(metrics);
    for (;;) {
      const int64_t m = next.fetch_add(1, std::memory_order_relaxed);
      if (m >= morsels) return;
      const int64_t lo = begin + m * grain;
      const int64_t hi = std::min(end, lo + grain);
      const bool was_in_morsel = t_in_morsel;
      t_in_morsel = true;
      const int64_t t0 = ThreadCpuMicros();
      std::exception_ptr err;
      try {
        (*fn)(lo, hi);
      } catch (...) {
        err = std::current_exception();
      }
      const int64_t dt = ThreadCpuMicros() - t0;
      t_in_morsel = was_in_morsel;
      if (cpu != nullptr) cpu->Add(dt, is_owner);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (err && !error) error = err;
        if (++done == morsels) done_cv.notify_all();
      }
    }
  }
};

}  // namespace

int64_t ThreadCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1000000LL + ts.tv_nsec / 1000;
}

int CoreBudget() {
  static const int budget =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return budget;
}

int CoresInUse() { return g_cores_in_use.load(std::memory_order_relaxed); }

int ReserveCores(int want) {
  if (want <= 0) return 0;
  const int budget = CoreBudget();
  int used = g_cores_in_use.load(std::memory_order_relaxed);
  for (;;) {
    const int got = std::min(want, budget - used);
    if (got <= 0) return 0;
    if (g_cores_in_use.compare_exchange_weak(used, used + got,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      return got;
    }
  }
}

void ReleaseCores(int n) {
  if (n > 0) g_cores_in_use.fetch_sub(n, std::memory_order_acq_rel);
}

ThreadPool* SetCurrentThreadPool(ThreadPool* pool) {
  ThreadPool* prev = t_current_pool;
  t_current_pool = pool;
  return prev;
}

ThreadPool* CurrentThreadPool() { return t_current_pool; }

ParallelCpuScope::ParallelCpuScope() : prev_(t_cpu_scope) {
  t_cpu_scope = this;
}

ParallelCpuScope::~ParallelCpuScope() { t_cpu_scope = prev_; }

void ParallelCpuScope::Add(int64_t us, bool owner) {
  total_us_.fetch_add(us, std::memory_order_relaxed);
  if (owner) inline_us_.fetch_add(us, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.resize(num_threads);
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  const int target = static_cast<int>(
      submit_seq_.fetch_add(1, std::memory_order_relaxed) % workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers_[target].deque.push_back(std::move(fn));
    ++queued_;
  }
  cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
}

bool ThreadPool::PopTask(int self, std::function<void()>* out) {
  // Own deque first, newest task (LIFO keeps the working set warm) …
  if (!workers_[self].deque.empty()) {
    *out = std::move(workers_[self].deque.back());
    workers_[self].deque.pop_back();
    --queued_;
    return true;
  }
  // … then steal the oldest task of a sibling (FIFO leaves the victim its
  // recent work).
  const int n = static_cast<int>(workers_.size());
  for (int k = 1; k < n; ++k) {
    Worker& victim = workers_[(self + k) % n];
    if (!victim.deque.empty()) {
      *out = std::move(victim.deque.front());
      victim.deque.pop_front();
      --queued_;
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
      if (shutdown_ && queued_ == 0) return;
      if (!PopTask(self, &task)) continue;
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queued_ == 0 && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::RunParallelFor(int64_t begin, int64_t end, int64_t grain,
                                const MorselFn& fn) {
  if (grain < 1) grain = 1;
  const int64_t morsels = NumMorsels(begin, end, grain);
  // The caller is one runner already; the others each need a free core.
  // Progress never depends on pool threads being free, which is what makes
  // nested/fan-in use deadlock-proof.
  const int runners = ReserveCores(static_cast<int>(
      std::min<int64_t>(num_threads(), morsels - 1)));
  if (runners == 0) {
    if (morsels >= 2) ChargeScoped(CounterId::kMorselFanoutsDeclined);
    RunInline(begin, end, grain, morsels, fn);
    return;
  }
  auto state = std::make_shared<MorselState>();
  state->begin = begin;
  state->grain = grain;
  state->end = end;
  state->morsels = morsels;
  state->fn = &fn;
  state->cpu = t_cpu_scope;
  state->metrics = MetricsScope::Current();
  state->pending = runners;
  for (int i = 0; i < runners; ++i) {
    Submit([state] { state->RunRunner(); });
  }
  state->RunLoop(/*is_owner=*/true);
  std::unique_lock<std::mutex> lock(state->mu);
  // Runners still queued behind other work would find nothing left to do:
  // give their cores back now rather than when the pool reaches them.
  ReleaseCores(state->pending);
  state->pending = 0;
  state->done_cv.wait(lock, [&] {
    return state->done == state->morsels && state->running == 0;
  });
  if (state->error) std::rethrow_exception(state->error);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const MorselFn& fn) {
  const int64_t morsels = NumMorsels(begin, end, grain);
  if (morsels == 0) return;
  if (grain < 1) grain = 1;
  ThreadPool* pool = t_current_pool;
  if (pool == nullptr || morsels < 2 || t_in_morsel) {
    RunInline(begin, end, grain, morsels, fn);
    return;
  }
  pool->RunParallelFor(begin, end, grain, fn);
}

}  // namespace xorbits
