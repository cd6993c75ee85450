#include "scheduler/executor.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/trace_names.h"
#include "common/tracing.h"
#include "operators/operator.h"
#include "scheduler/placement.h"
#include "services/result_cache.h"

namespace xorbits::scheduler {

using operators::ChunkOp;
using operators::ExecutionContext;
using services::ChunkDataPtr;

/// Shared dispatch state for one Run call. Owned by Run's stack frame; band
/// workers only dereference it under mu_ while it is still listed in
/// `runs_`, and Run does not return until no worker is busy with one of its
/// subtasks.
struct Executor::RunState {
  graph::SubtaskGraph* graph = nullptr;
  std::chrono::steady_clock::time_point deadline;
  std::vector<std::deque<int>> band_queues;
  std::vector<int> indegree;
  /// Retry count per subtask (attempt = attempts[id] on dispatch).
  std::vector<int> attempts;
  /// uid_base + subtask id = the stable identity the injector hashes.
  int64_t uid_base = 0;
  int remaining = 0;
  int busy = 0;  // workers currently executing a subtask of this run
  std::atomic<bool> cancelled{false};
  Status failure = Status::OK();

  // --- multi-tenant scheduling identity (see RunOptions) ---
  int64_t session_id = -1;
  int priority = 1;
  int max_inflight = 0;  // 0 = unlimited
  Metrics* metrics = nullptr;     // resolved, never null while listed
  TraceConfig trace;              // resolved per-run trace identity
  /// Weighted-fair virtual work: each dispatch adds kVirtualWork/priority;
  /// band workers serve the eligible run with the least vwork. Guarded by
  /// mu_.
  int64_t vwork = 0;
  /// Subtasks of this run currently executing across all bands (mu_).
  int inflight = 0;

  // --- pipelined exchange dispatch (DESIGN.md §11; all guarded by mu_) ---
  /// Per subtask: input partitions not yet sealed. A reducer becomes
  /// runnable when this hits zero and `nonex_left` is zero — possibly while
  /// its mapper subtasks are still executing.
  std::vector<int> ex_wait;
  /// Per subtask: predecessors that feed it through ordinary stored chunks
  /// (not the exchange) and have not completed yet.
  std::vector<int> nonex_left;
  /// Per subtask: whether it has been enqueued once. Guards against the
  /// double dispatch of a seal-triggered early enqueue followed by the
  /// normal indegree-zero enqueue when its mappers complete.
  std::vector<char> enqueued;
  /// Per subtask: the predecessors classified exchange-only (their whole
  /// contribution arrives as sealed partitions); their completion does not
  /// decrement nonex_left.
  std::vector<std::unordered_set<int>> ex_preds;
  /// Partition key -> subtasks waiting on its seal.
  std::unordered_map<std::string, std::vector<int>> seal_waiters;
};

namespace {
/// Virtual-work unit one dispatch charges at priority 1. Divides exactly
/// by every legal priority in [1, 100], so shares stay proportional.
constexpr int64_t kVirtualWork = 9900;
}  // namespace

Executor::Executor(const Config& config, Metrics* metrics,
                   services::StorageService* storage,
                   services::MetaService* meta)
    : config_(config),
      metrics_(metrics),
      storage_(storage),
      meta_(meta),
      injector_(config),
      blacklisted_(config.total_bands(), 0) {
  exchange_ = std::make_unique<services::ExchangeService>(config, metrics,
                                                          storage, meta);
  exchange_->set_seal_listener(
      [this](const std::string& partition_key) {
        OnPartitionSealed(partition_key);
      });
  kernel_pools_.resize(config_.num_workers);
  if (config_.cpus_per_band > 1) {
    // The modeled slots (bands_per_worker × cpus_per_band) may exceed the
    // host; running that many threads only oversubscribes it. Each worker
    // gets its share of the hardware instead. Morsels depend on the grain,
    // not the thread count, so outputs do not change, and the cost model
    // still divides parallel CPU by cpus_per_band.
    const int hardware =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const int pool_threads =
        std::min(config_.bands_per_worker * config_.cpus_per_band,
                 std::max(1, hardware / std::max(1, config_.num_workers)));
    for (int w = 0; w < config_.num_workers; ++w) {
      kernel_pools_[w] = std::make_unique<ThreadPool>(pool_threads);
    }
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : band_threads_) t.join();
}

namespace {

services::ChunkMeta MetaOf(const ChunkDataPtr& data, int64_t nbytes,
                           int band) {
  services::ChunkMeta m;
  m.rows = data->rows();
  m.nbytes = nbytes;
  m.band = band;
  if (data->is_dataframe()) {
    m.cols = data->dataframe().num_columns();
    m.columns = data->dataframe().column_names();
  } else if (data->is_ndarray()) {
    m.cols = data->ndarray().cols();
  } else {
    m.cols = 1;
  }
  return m;
}

/// Lineage is keyed by the producing node's key; shuffle partitions
/// ("<key>@<p>") map back to it by stripping the suffix.
std::string BaseKey(const std::string& key) {
  const auto pos = key.rfind('@');
  return pos == std::string::npos ? key : key.substr(0, pos);
}

}  // namespace

namespace {
// Cost model for modeled cluster time (see Metrics::simulated_us):
// cross-band reads move at 1 GB/s; publishing a chunk to the storage
// service costs a 2 GB/s (de)serialization pass; and dispatching one
// subtask from the supervisor costs a fixed RPC/scheduling latency — the
// overhead the paper's graph-level fusion exists to amortize.
constexpr int64_t kNetworkBytesPerUs = 1000;
constexpr int64_t kStoreBytesPerUs = 2000;
constexpr int64_t kDispatchUs = 1000;
}  // namespace

Status Executor::RunSubtask(graph::Subtask& subtask, int64_t uid,
                            int attempt, std::string* lost_key,
                            Metrics* metrics, const TraceConfig& trace,
                            int64_t session_id) {
  // This band thread is one busy core for the whole attempt: kernels it
  // runs fan out only onto the cores other bands and runners leave free.
  const CoreHold core;
  const int band = subtask.band;
  // Injected transient faults fire before any work: a fated (uid, attempt)
  // pair fails here deterministically, and a re-run of the same attempt
  // after lineage recovery passes identically.
  Status injected = injector_.MaybeInjectSubtaskFault(uid, attempt);
  if (!injected.ok()) {
    metrics->Add(CounterId::kFaultsInjected);
    if (Tracer* tr = trace.sink) {
      tr->Instant(trace.pid, kTrackBandBase + band,
                  trace::kEventFaultTransient,
                  {Arg("uid", uid), Arg("attempt", int64_t{attempt})});
    }
    return injected;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  // Kernel CPU accounting. `cpu_start` sees only this band thread;
  // ParallelFor morsels executed by pool threads report into `par_cpu`
  // (with the band thread's own morsel share flagged inline so it is not
  // counted twice). The modeled cost then charges serial CPU at full price
  // and parallel CPU divided across the band's cpus_per_band slots.
  // Counters raised below (kernels, readers, the exchange) and in pool
  // morsels are charged to the same metrics as the attempt.
  ParallelCpuScope par_cpu;
  MetricsScope metrics_scope(metrics);
  const int64_t cpu_start = ThreadCpuMicros();
  int64_t transfer_us = 0;
  int64_t store_us = 0;
  std::unordered_map<std::string, ChunkDataPtr> local;
  std::unordered_map<std::string, std::vector<ChunkDataPtr>> unit_cache;
  std::unordered_set<const graph::ChunkNode*> persist(
      subtask.outputs.begin(), subtask.outputs.end());
  // Provenance for lineage recovery: every storage key this attempt read
  // (the group's external inputs) and wrote (outputs + shuffle
  // partitions). Recorded only after the whole group succeeds.
  std::vector<std::string> fetched_keys;
  std::vector<std::string> published_keys;
  std::vector<graph::ChunkNode*> shuffle_map_nodes;
  std::vector<int64_t> transients;
  auto release_all = [&] {
    for (int64_t b : transients) storage_->ReleaseTransient(band, b);
  };

  for (graph::ChunkNode* node : subtask.chunk_nodes) {
    const auto* op = dynamic_cast<const ChunkOp*>(node->op.get());
    if (op == nullptr) {
      release_all();
      return Status::ExecutionError("node without a chunk operator");
    }
    const std::vector<std::string> keys = op->InputKeys(*node);
    // Execution unit: one op applied to one input set; multi-output ops
    // run once even when several sibling nodes live in this subtask.
    std::string unit_key = std::to_string(
        reinterpret_cast<uintptr_t>(node->op.get()));
    for (const auto& k : keys) {
      unit_key += '|';
      unit_key += k;
    }
    ExecutionContext ctx;
    ctx.metrics = metrics;
    auto cached = unit_cache.find(unit_key);
    if (cached != unit_cache.end()) {
      ctx.outputs = cached->second;
    } else {
      ctx.node = node;
      ctx.band = band;
      ctx.outputs.resize(op->num_outputs());
      for (const auto& k : keys) {
        auto it = local.find(k);
        if (it != local.end()) {
          ctx.inputs.push_back(it->second);
          continue;
        }
        // Shuffle input (DESIGN.md §11): a sealed partition is reassembled
        // from its exchange blocks, and transfer is metered on the blocks'
        // *wire* (compressed) bytes — the UC10 advantage over moving
        // logical bytes.
        if (!storage_->Has(k) && exchange_->IsSealed(k)) {
          int64_t wire = 0;
          std::string lost;
          auto part = exchange_->FetchPartition(k, band, &wire, &lost);
          if (!part.ok()) {
            release_all();
            if (part.status().IsChunkLost() && lost_key != nullptr) {
              *lost_key = lost.empty() ? k : lost;
            }
            return part.status().WithContext(
                std::string("fetching input for ") + op->type_name());
          }
          transfer_us += wire / kNetworkBytesPerUs;
          fetched_keys.push_back(k);
          ctx.inputs.push_back(std::move(*part));
          continue;
        }
        bool transferred = false;
        auto fetched = storage_->Get(k, band, &transferred);
        if (!fetched.ok()) {
          release_all();
          if (fetched.status().IsChunkLost() && lost_key != nullptr) {
            *lost_key = k;
          }
          return fetched.status().WithContext(
              std::string("fetching input for ") + op->type_name());
        }
        if (transferred) {
          transfer_us += (*fetched)->nbytes() / kNetworkBytesPerUs;
        }
        fetched_keys.push_back(k);
        ctx.inputs.push_back(*fetched);
      }
      // Shuffle output: plant the streaming sink before the kernel runs,
      // so each partition leaves as sealed blocks the moment the mapper
      // cuts it. Provisional lineage goes in first — a block
      // lost while the mapper is still executing must already resolve to
      // this group for recovery (output_keys stays empty; rollback and
      // recovery sweep mapper blocks by "<key>@" prefix anyway).
      struct ExchangeSink final : ExecutionContext::ShuffleSink {
        services::ExchangeService* exchange = nullptr;
        std::string base;
        int band = 0;
        std::vector<std::string>* published = nullptr;
        int64_t memory_bytes = 0;
        int64_t wire_bytes = 0;
        int64_t rows = 0;
        Status Emit(int partition, ChunkDataPtr data) override {
          rows += data->rows();
          return exchange->PushPartition(
              base + "@" + std::to_string(partition), std::move(data), band,
              published, &memory_bytes, &wire_bytes);
        }
      };
      ExchangeSink sink;
      if (op->is_shuffle_map()) {
        sink.exchange = exchange_.get();
        sink.base = node->key;
        sink.band = band;
        sink.published = &published_keys;
        ctx.shuffle_sink = &sink;
        services::ChunkLineage provisional;
        provisional.nodes = subtask.chunk_nodes;
        provisional.outputs = subtask.outputs;
        provisional.input_keys = fetched_keys;
        provisional.session = session_id;
        meta_->PutLineage(node->key, provisional);
      }
      Status st = op->Execute(ctx);
      if (!st.ok()) {
        release_all();
        return st.WithContext(op->type_name());
      }
      if (op->is_shuffle_map()) {
        // Partitions already streamed out block-by-block mid-kernel; all
        // that is left is the aggregate meta and the store pass, charged
        // on the logical bytes.
        store_us += sink.memory_bytes / kStoreBytesPerUs;
        services::ChunkMeta m;
        m.rows = sink.rows;
        m.nbytes = sink.memory_bytes;
        m.band = band;
        meta_->Put(node->key, m);
        shuffle_map_nodes.push_back(node);
        node->executed = true;
        continue;
      }
      unit_cache.emplace(unit_key, ctx.outputs);
    }
    ChunkDataPtr payload = ctx.outputs[node->output_index];
    if (!payload) {
      release_all();
      return Status::ExecutionError(std::string(op->type_name()) +
                                    " produced no output");
    }
    const int64_t payload_bytes = payload->nbytes();
    if (persist.count(node)) {
      Status put = storage_->Put(node->key, payload, band);
      if (!put.ok()) {
        release_all();
        return put.WithContext(op->type_name());
      }
      store_us += payload_bytes / kStoreBytesPerUs;
      meta_->Put(node->key, MetaOf(payload, payload_bytes, band));
      published_keys.push_back(node->key);
      node->executed = true;
    } else {
      // Fused intermediate: never stored, but it occupies worker memory
      // while the subtask runs.
      Status res = storage_->ReserveTransient(band, payload_bytes);
      if (!res.ok()) {
        release_all();
        return res.WithContext(op->type_name());
      }
      transients.push_back(payload_bytes);
    }
    // Result-cache publish (DESIGN.md §9): the optimizer stamped this node
    // as a cache miss worth keeping. Both branches feed the cache — fusion
    // routinely turns the cacheable payload into a transient intermediate.
    // Best-effort by contract; a full cache just misses out.
    if (result_cache_ != nullptr && !node->cache_plan_sig.empty()) {
      result_cache_->Publish(node->cache_plan_sig, payload, band,
                             MetaOf(payload, payload_bytes, band),
                             node->cache_tags);
    }
    local[node->key] = std::move(payload);
  }
  release_all();
  // Record provenance at subtask granularity: a fused group's interior
  // nodes were never persisted, so recovering any one output means
  // re-running the whole group from its external inputs. Recorded only
  // now, after every output is published — the chaos chunk-loss picker
  // skips lineage-less keys, so half-published groups are never chosen.
  {
    services::ChunkLineage lineage;
    lineage.nodes = subtask.chunk_nodes;
    lineage.outputs = subtask.outputs;
    lineage.input_keys = fetched_keys;
    lineage.output_keys = published_keys;
    lineage.session = session_id;
    for (const graph::ChunkNode* out : subtask.outputs) {
      meta_->PutLineage(out->key, lineage);
    }
    // Shuffle mappers publish partitions whether or not they are listed as
    // outputs; their base key must resolve to this group's lineage too.
    for (const graph::ChunkNode* m : shuffle_map_nodes) {
      meta_->PutLineage(m->key, lineage);
    }
  }
  const int64_t band_cpu = ThreadCpuMicros() - cpu_start;
  const int64_t par_total = par_cpu.total_us();
  int64_t serial_cpu = band_cpu - par_cpu.inline_us();
  if (serial_cpu < 0) serial_cpu = 0;
  const int64_t slots = std::max(1, config_.cpus_per_band);
  metrics->Add(CounterId::kKernelCpuUs, serial_cpu + par_total);
  subtask.cost.serial_us = serial_cpu;
  subtask.cost.parallel_us = (par_total + slots - 1) / slots;
  subtask.cost.dispatch_us = kDispatchUs;
  subtask.cost.transfer_us = transfer_us;
  subtask.cost.store_us = store_us;
  subtask.cost.recovery_us = 0;
  subtask.sim_us = subtask.cost.serial_us + subtask.cost.parallel_us +
                   kDispatchUs + transfer_us + store_us;
  // Per-subtask timeout, checked cooperatively after the kernel returns
  // (a kernel that never returns is the task-level deadline's job). An
  // overrunning attempt is rolled back and reported as a retryable
  // straggler.
  if (config_.subtask_timeout_ms > 0) {
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (elapsed_ms > config_.subtask_timeout_ms) {
      RollbackSubtask(subtask);
      return Status::Timeout(
          "subtask attempt took " + std::to_string(elapsed_ms) +
          " ms, over the per-subtask timeout of " +
          std::to_string(config_.subtask_timeout_ms) + " ms");
    }
  }
  return Status::OK();
}

void Executor::RollbackSubtask(graph::Subtask& subtask, bool tombstone) {
  for (graph::ChunkNode* node : subtask.chunk_nodes) {
    // In-flight exchange streams (DESIGN.md §11): a mapper that failed
    // mid-partition has published sealed blocks without ever flipping
    // `executed`, and early-dispatched reducers may be reading them right
    // now. Sweep its whole "@" namespace with tombstones regardless of the
    // rollback flavour — a concurrent consumer must see recoverable
    // kChunkLost, never fatal kKeyError, and the retried mapper
    // re-publishes byte-identical blocks over the tombstones. Seal records
    // stay: the deterministic re-run reseals the same ranges, and deleting
    // them would turn a concurrent FetchPartition into kKeyError.
    const auto* op = dynamic_cast<const operators::ChunkOp*>(node->op.get());
    if (op != nullptr && op->is_shuffle_map()) {
      storage_->DropByPrefix(node->key + "@");
      meta_->Delete(node->key);
      node->executed = false;
      continue;
    }
    if (!node->executed) continue;
    if (tombstone) {
      // Recovery-path rollback: the keys being torn down may have live
      // consumers on other bands — leave kChunkLost tombstones behind.
      Status ignored = storage_->DropChunk(node->key);
      (void)ignored;
    } else {
      Status ignored = storage_->Delete(node->key);
      (void)ignored;
    }
    meta_->Delete(node->key);
    node->executed = false;
  }
}

int64_t Executor::BackoffMs(int attempt) const {
  if (config_.retry_backoff_base_ms <= 0) return 0;
  int64_t delay = config_.retry_backoff_base_ms;
  for (int i = 1; i < attempt && delay < config_.retry_backoff_cap_ms; ++i) {
    delay *= 2;
  }
  return std::min(delay, config_.retry_backoff_cap_ms);
}

Status Executor::EnsureChunkAvailable(const std::string& key) {
  if (storage_->Has(key) || !storage_->IsLost(key)) return Status::OK();
  int band = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int b = 0; b < config_.total_bands(); ++b) {
      if (!blacklisted_[b]) {
        band = b;
        break;
      }
    }
  }
  if (band < 0) {
    return Status::WorkerLost("chunk '" + key +
                              "' is lost and every band is dead");
  }
  int64_t sim_us = 0;
  Status st = RecoverLostChunk(key, band, &sim_us);
  metrics_->Add(CounterId::kSimulatedUs, sim_us);
  // Supervisor-side recovery (a fetch found the chunk gone outside any
  // run): the recompute advances this session's simulated clock and is
  // charged to the recovery stage in full.
  if (Tracer* tr = config_.trace.sink) {
    const int pid = config_.trace.pid;
    const int64_t ts = tr->sim_now(pid);
    tr->AdvanceSim(pid, sim_us);
    tr->AddStage(pid, TraceStage::kRecovery, sim_us);
    tr->CompleteAt(pid, kTrackBandBase + band, trace::kSpanRecoverPrefix + key,
                   ts, sim_us,
                   {Arg("ok", int64_t{st.ok() ? 1 : 0})});
  }
  return st;
}

Status Executor::RecoverLostChunk(const std::string& key, int band,
                                  int64_t* sim_us) {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(recovery_mu_);
  Status out = Status::OK();
  if (!storage_->Has(key)) {  // a racing recovery may have rebuilt it
    out = RecoverKey(key, band, /*depth=*/0, sim_us);
  }
  metrics_->Add(CounterId::kRecoveryUs,
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
  return out;
}

bool Executor::InputAvailable(const std::string& key) const {
  return storage_->Has(key) || exchange_->PartitionIntact(key);
}

Status Executor::RecoverKey(const std::string& key, int band, int depth,
                            int64_t* sim_us) {
  if (depth > config_.max_recovery_depth) {
    return Status::ChunkLost("lineage recovery depth cap (" +
                             std::to_string(config_.max_recovery_depth) +
                             ") exceeded at chunk '" + key + "'");
  }
  const std::string base = BaseKey(key);
  auto lineage = meta_->GetLineage(base);
  if (!lineage.ok()) {
    return Status::ChunkLost("chunk '" + key +
                             "' is lost and has no recorded lineage");
  }
  // Rebuild the minimal recomputation subgraph: recursively recover every
  // external input of the producing group that is itself gone, then re-run
  // the whole group (its interior nodes were never persisted). Inputs that
  // arrive through the exchange ("<mapper>@<p>") count as available when
  // sealed with every block readable.
  for (const std::string& in : lineage->input_keys) {
    if (!InputAvailable(in)) {
      XORBITS_RETURN_NOT_OK(RecoverKey(in, band, depth + 1, sim_us));
    }
  }
  // Drop surviving outputs so the re-publish is clean; stale shuffle
  // partitions are swept by base-key prefix. Tombstoning drops, not plain
  // deletes: subtasks on other bands keep running while this group
  // recomputes, and a consumer that reads a sibling output inside the
  // teardown-to-republish window must see recoverable kChunkLost (it will
  // serialize on recovery_mu_ and find the key rebuilt), never kKeyError.
  for (const std::string& out_key : lineage->output_keys) {
    Status ignored = storage_->DropChunk(out_key);
    (void)ignored;
  }
  for (const graph::ChunkNode* n : lineage->nodes) {
    storage_->DropByPrefix(n->key + "@");
  }
  // Clear executed flags only for nodes whose chunks are actually gone: a
  // cache-hit lineage (DESIGN.md §9) may share ancestors with the live
  // closure of a still-running query — those executed, still-stored nodes
  // recompute transiently below without losing their flag (flipping it
  // would invite a later tiling round into a duplicate-key republish).
  for (graph::ChunkNode* n : lineage->nodes) {
    if (!storage_->Has(n->key)) n->executed = false;
  }

  graph::Subtask recompute;
  recompute.id = -1;
  recompute.band = band;
  recompute.chunk_nodes = lineage->nodes;
  recompute.outputs = lineage->outputs;
  // Stable injector identity for recovery work, distinct from regular
  // subtask uids (bit 59 set); recovery attempts are themselves subject to
  // transient injection and retry.
  const int64_t uid =
      static_cast<int64_t>(std::hash<std::string>{}(base) &
                           0x07ffffffffffffffULL) |
      (int64_t{1} << 59);
  Status result = Status::OK();
  const int max_attempts = config_.max_subtask_retries + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::string lost;
    result = RunSubtask(recompute, uid, attempt, &lost, metrics_,
                        config_.trace, lineage->session);
    if (result.ok()) break;
    RollbackSubtask(recompute, /*tombstone=*/true);
    if (result.IsChunkLost() && !lost.empty()) {
      // An input vanished between the availability check and the read
      // (nested loss); recover it and burn one attempt.
      Status nested = RecoverKey(lost, band, depth + 1, sim_us);
      if (!nested.ok()) return nested;
      continue;
    }
    if (result.IsRetryable() && attempt + 1 < max_attempts) {
      metrics_->Add(CounterId::kSubtasksRetried);
      const int64_t delay =
          std::max(BackoffMs(attempt + 1), result.backoff_hint_ms());
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      continue;
    }
    return result.WithContext("recomputing lost chunk '" + base + "'");
  }
  if (!result.ok()) {
    return result.WithContext("recomputing lost chunk '" + base + "'");
  }
  for (graph::ChunkNode* n : lineage->nodes) n->band = band;
  *sim_us += recompute.sim_us;
  metrics_->Add(CounterId::kChunksRecovered,
                static_cast<int64_t>(lineage->outputs.size()));
  // Block-range lineage at work: a lost exchange block re-ran only its
  // producing mapper group, whose deterministic re-emission resealed the
  // same block range with identical bytes.
  if (key.find('#') != std::string::npos &&
      key.find('@') != std::string::npos) {
    metrics_->Add(CounterId::kShuffleBlocksRecovered);
  }
  XORBITS_LOG(Info) << "recovered chunk " << base << " on band " << band
                    << " (group of " << lineage->nodes.size()
                    << ", depth " << depth << ")";
  return Status::OK();
}

void Executor::EnsureWorkersStarted() {
  if (workers_started_) return;
  workers_started_ = true;
  const int num_bands = config_.total_bands();
  band_threads_.reserve(num_bands);
  for (int b = 0; b < num_bands; ++b) {
    band_threads_.emplace_back([this, b] { BandWorkerLoop(b); });
  }
}

int Executor::AliveBandLocked(RunState* state) const {
  int best = -1;
  size_t best_queue = std::numeric_limits<size_t>::max();
  for (int b = 0; b < config_.total_bands(); ++b) {
    if (blacklisted_[b]) continue;
    const size_t q = state->band_queues[b].size();
    if (q < best_queue) {
      best_queue = q;
      best = b;
    }
  }
  return best;
}

void Executor::EnqueueLocked(RunState* state, int task_id) {
  graph::Subtask& st = state->graph->subtasks[task_id];
  if (st.band < 0 || st.band >= config_.total_bands() ||
      blacklisted_[st.band]) {
    const int target = AliveBandLocked(state);
    if (target < 0) {
      state->cancelled = true;
      if (state->failure.ok()) {
        state->failure =
            Status::WorkerLost("every band in the cluster is dead");
      }
      return;
    }
    st.band = target;
    for (graph::ChunkNode* n : st.chunk_nodes) n->band = target;
  }
  state->enqueued[task_id] = 1;
  state->band_queues[st.band].push_back(task_id);
}

void Executor::OnPartitionSealed(const std::string& partition_key) {
  std::lock_guard<std::mutex> lock(mu_);
  bool woke = false;
  for (RunState* state : runs_) {
    auto it = state->seal_waiters.find(partition_key);
    if (it == state->seal_waiters.end()) continue;
    for (int id : it->second) {
      // Early dispatch: every input partition sealed and every ordinary
      // predecessor done — runnable while its mappers' subtasks are still
      // executing. `enqueued` keeps the later indegree-zero path from
      // dispatching it a second time.
      if (--state->ex_wait[id] == 0 && state->nonex_left[id] == 0 &&
          !state->enqueued[id]) {
        EnqueueLocked(state, id);
        woke = true;
      }
    }
    // Re-seals after a mapper retry find no waiters and no-op.
    state->seal_waiters.erase(it);
  }
  if (woke) cv_.notify_all();
}

void Executor::KillBandLocked(int band) {
  if (band < 0 || band >= config_.total_bands() || blacklisted_[band]) {
    return;
  }
  blacklisted_[band] = 1;
  metrics_->Add(CounterId::kBandsBlacklisted);
  const std::vector<std::string> lost = storage_->MarkBandDead(band);
  if (Tracer* tr = config_.trace.sink) {
    tr->Instant(config_.trace.pid, kTrackBandBase + band,
                trace::kEventBandKill,
                {Arg("chunks_lost", static_cast<int64_t>(lost.size()))});
  }
  XORBITS_LOG(Warn) << "chaos: band " << band << " died, " << lost.size()
                    << " chunk(s) lost; re-placing its queue";
  // The band died for every tenant at once: re-place each active run's
  // queued work; lost chunks are recovered lazily when a consumer's read
  // surfaces kChunkLost.
  for (RunState* state : runs_) {
    std::deque<int> orphaned;
    orphaned.swap(state->band_queues[band]);
    for (int task_id : orphaned) {
      graph::Subtask& st = state->graph->subtasks[task_id];
      st.band = -1;  // force re-placement
      EnqueueLocked(state, task_id);
    }
  }
}

void Executor::DropOneChunkLocked() {
  for (const std::string& key : storage_->SortedKeys()) {
    if (!meta_->HasLineage(BaseKey(key))) continue;
    Status dropped = storage_->DropChunk(key);
    if (dropped.ok()) {
      XORBITS_LOG(Warn) << "chaos: dropped chunk " << key;
      if (Tracer* tr = config_.trace.sink) {
        tr->Instant(config_.trace.pid, kTrackStorage, trace::kEventChunkLoss,
                    {Arg("key", key)});
      }
      return;
    }
  }
}

void Executor::ProcessDueFaultsLocked(int64_t completed) {
  if (!injector_.enabled()) return;
  for (int band : injector_.TakeDueBandKills(completed)) {
    KillBandLocked(band);
  }
  for (int n = injector_.TakeDueChunkLosses(completed); n > 0; --n) {
    DropOneChunkLocked();
  }
}

Executor::RunState* Executor::PickRunLocked(int band) {
  RunState* best = nullptr;
  for (RunState* r : runs_) {
    if (r->cancelled.load()) continue;
    if (r->band_queues[band].empty()) continue;
    if (r->max_inflight > 0 && r->inflight >= r->max_inflight) continue;
    if (best == nullptr || r->vwork < best->vwork ||
        (r->vwork == best->vwork && r->session_id < best->session_id)) {
      best = r;
    }
  }
  return best;
}

void Executor::BandWorkerLoop(int band) {
  // Kernels dispatched from this band use the owning worker node's pool.
  const int worker = band / std::max(1, config_.bands_per_worker);
  if (worker < static_cast<int>(kernel_pools_.size())) {
    SetCurrentThreadPool(kernel_pools_[worker].get());
  }
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    RunState* state = nullptr;
    cv_.wait(lock, [&] {
      if (shutdown_) return true;
      state = PickRunLocked(band);
      return state != nullptr;
    });
    if (shutdown_) return;
    const int task_id = state->band_queues[band].front();
    state->band_queues[band].pop_front();
    state->busy++;
    state->inflight++;
    // Weighted-fair accounting: this dispatch charges the run virtual work
    // inversely to its priority, so higher-priority sessions win more
    // slots under contention while everyone keeps making progress.
    state->vwork += kVirtualWork / std::max(1, state->priority);
    const int attempt = state->attempts[task_id];
    const int64_t uid = state->uid_base + task_id;
    lock.unlock();

    graph::Subtask& st = state->graph->subtasks[task_id];
    std::string lost_key;
    Status result = RunSubtask(st, uid, attempt, &lost_key, state->metrics,
                               state->trace, state->session_id);

    // Lineage recovery: rebuild lost inputs on this band, then re-run the
    // attempt in place. Each iteration recovers one lost input chain, so
    // the loop is bounded by the subtask's input count (cap guards the
    // pathological case).
    int64_t recovered_sim_us = 0;
    int recovery_rounds = 0;
    while (result.IsChunkLost() && !lost_key.empty() &&
           recovery_rounds <= config_.max_recovery_depth &&
           !state->cancelled.load()) {
      RollbackSubtask(st);
      Status recovered = RecoverLostChunk(lost_key, band, &recovered_sim_us);
      if (!recovered.ok()) {
        result = recovered;
        break;
      }
      ++recovery_rounds;
      lost_key.clear();
      result = RunSubtask(st, uid, attempt, &lost_key, state->metrics,
                          state->trace, state->session_id);
    }
    if (result.ok()) {
      st.sim_us += recovered_sim_us;
      st.cost.recovery_us += recovered_sim_us;
    }

    lock.lock();
    state->metrics->Add(CounterId::kSubtasksExecuted);
    if (result.ok() && blacklisted_[band]) {
      // The band died while this subtask ran; whatever it published went
      // down with the band's storage.
      result = Status::WorkerLost("band " + std::to_string(band) +
                                  " died while executing subtask " +
                                  std::to_string(task_id));
    }
    if (result.ok()) {
      state->remaining--;
      for (int succ : st.succs) {
        if (state->ex_preds[succ].count(task_id) == 0) {
          state->nonex_left[succ]--;
        }
        const bool ready =
            --state->indegree[succ] == 0 ||
            (state->ex_wait[succ] == 0 && state->nonex_left[succ] == 0);
        if (ready && !state->enqueued[succ]) {
          EnqueueLocked(state, succ);
        }
      }
      ProcessDueFaultsLocked(++completed_subtasks_);
    } else if (result.IsRetryable() &&
               state->attempts[task_id] < config_.max_subtask_retries &&
               !state->cancelled.load()) {
      // Retryable failure with budget left: roll back, back off, re-queue
      // (off this band if it just died). `busy` stays held through the
      // backoff so Run cannot drain while the subtask is parked here. The
      // delay honours a server-supplied backoff hint (overload shedding)
      // when it exceeds the capped exponential schedule.
      state->attempts[task_id]++;
      state->metrics->Add(CounterId::kSubtasksRetried);
      const int next_attempt = state->attempts[task_id];
      const int64_t delay_ms =
          std::max(BackoffMs(next_attempt), result.backoff_hint_ms());
      lock.unlock();
      if (Tracer* tr = state->trace.sink) {
        tr->Instant(state->trace.pid, kTrackBandBase + band,
                    trace::kEventSubtaskRetry,
                    {Arg("subtask", int64_t{task_id}),
                     Arg("attempt", int64_t{next_attempt}),
                     Arg("error", result.message())});
      }
      RollbackSubtask(st);
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      lock.lock();
      if (!state->cancelled.load()) {
        if (blacklisted_[st.band]) st.band = -1;
        EnqueueLocked(state, task_id);
      }
    } else {
      state->metrics->Add(CounterId::kSubtasksFailed);
      state->cancelled = true;
      if (state->failure.ok()) state->failure = result;
    }
    state->busy--;
    state->inflight--;
    cv_.notify_all();
    done_cv_.notify_all();
  }
}

Status Executor::Run(graph::SubtaskGraph* st_graph,
                     std::chrono::steady_clock::time_point deadline,
                     const RunOptions& opts) {
  if (st_graph->subtasks.empty()) return Status::OK();
  // Resolve the run's context: callers outside a session fall back to the
  // executor's cluster-level metrics and trace identity.
  Metrics* run_metrics = opts.metrics != nullptr ? opts.metrics : metrics_;
  MetricsScope metrics_scope(run_metrics);
  const TraceConfig run_trace =
      opts.trace.enabled() ? opts.trace : config_.trace;
  // Spill bytes are metered on the storage service's (cluster) metrics;
  // the delta across this run charges shared-disk backpressure to whoever
  // ran while the disk was busy — co-tenant interference is part of the
  // model, not an accounting bug.
  const int64_t spilled_before = metrics_->Get(CounterId::kBytesSpilled);
  const int num_bands = config_.total_bands();

  std::vector<char> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead = blacklisted_;
  }
  if (std::count(dead.begin(), dead.end(), 1) == num_bands) {
    return Status::WorkerLost("every band in the cluster is dead");
  }
  AssignBands(config_, st_graph, &dead);
  if (Tracer* tr = run_trace.sink) {
    std::vector<int64_t> per_band(num_bands, 0);
    for (const graph::Subtask& st : st_graph->subtasks) {
      if (st.band >= 0 && st.band < num_bands) per_band[st.band]++;
    }
    TraceArgs args = {
        Arg("subtasks", static_cast<int64_t>(st_graph->subtasks.size()))};
    for (int b = 0; b < num_bands; ++b) {
      args.push_back(Arg("band_" + std::to_string(b), per_band[b]));
    }
    tr->Instant(run_trace.pid, kTrackSupervisor, trace::kEventPlacement,
                std::move(args));
  }

  RunState state;
  state.graph = st_graph;
  state.deadline = deadline;
  state.band_queues.resize(num_bands);
  state.indegree.resize(st_graph->subtasks.size());
  state.attempts.assign(st_graph->subtasks.size(), 0);
  state.remaining = static_cast<int>(st_graph->subtasks.size());
  state.session_id = opts.session_id;
  state.priority = std::max(1, std::min(100, opts.priority));
  state.max_inflight = std::max(0, opts.max_inflight);
  state.metrics = run_metrics;
  state.trace = run_trace;
  for (const graph::Subtask& st : st_graph->subtasks) {
    state.indegree[st.id] = static_cast<int>(st.preds.size());
  }

  // Pipelined exchange dispatch setup (DESIGN.md §11): classify, per
  // subtask, which inputs arrive as exchange partitions ("<base>@<p>") and
  // which predecessors feed it through ordinary stored chunks, so a reducer
  // dispatches the moment its last input partition seals instead of waiting
  // for whole mapper subtasks. Computed before the run is published in
  // runs_, so the seal listener can never observe a half-built table.
  const size_t n_subtasks = st_graph->subtasks.size();
  state.enqueued.assign(n_subtasks, 0);
  state.ex_wait.assign(n_subtasks, 0);
  state.nonex_left.assign(n_subtasks, 0);
  state.ex_preds.assign(n_subtasks, {});
  for (graph::Subtask& st : st_graph->subtasks) {
    std::unordered_set<std::string> own;  // keys produced inside
    for (const graph::ChunkNode* node : st.chunk_nodes) own.insert(node->key);
    std::unordered_set<std::string> part_keys;   // "<base>@<p>" inputs
    std::unordered_set<std::string> part_bases;  // their mapper keys
    std::unordered_set<std::string> plain_keys;  // ordinary inputs
    for (const graph::ChunkNode* node : st.chunk_nodes) {
      const auto* op = dynamic_cast<const ChunkOp*>(node->op.get());
      if (op == nullptr) continue;
      for (const std::string& k : op->InputKeys(*node)) {
        if (own.count(k)) continue;  // fused-internal edge
        const auto at = k.rfind('@');
        if (at != std::string::npos) {
          const std::string base = k.substr(0, at);
          if (own.count(base)) continue;  // in-subtask mapper
          part_keys.insert(k);
          part_bases.insert(base);
        } else {
          plain_keys.insert(k);
        }
      }
    }
    // A predecessor is exchange-only when none of its nodes feed this
    // subtask directly and at least one is a mapper it consumes; its
    // completion then carries no dispatch information beyond the seals.
    // Anything ambiguous stays a direct predecessor (correct, not early).
    int nonex = 0;
    for (int p : st.preds) {
      bool direct = false;
      bool via_exchange = false;
      for (const graph::ChunkNode* pn : st_graph->subtasks[p].chunk_nodes) {
        if (plain_keys.count(pn->key)) {
          direct = true;
          break;
        }
        if (part_bases.count(pn->key)) via_exchange = true;
      }
      if (!direct && via_exchange) {
        state.ex_preds[st.id].insert(p);
      } else {
        nonex++;
      }
    }
    state.nonex_left[st.id] = nonex;
    int waits = 0;
    for (const std::string& k : part_keys) {
      if (exchange_->IsSealed(k)) continue;  // from an earlier partial run
      waits++;
      state.seal_waiters[k].push_back(st.id);
    }
    state.ex_wait[st.id] = waits;
  }

  Status out = Status::OK();
  {
    std::unique_lock<std::mutex> lock(mu_);
    EnsureWorkersStarted();
    state.uid_base = (++run_seq_) << 20;
    // A newcomer starts at the least virtual work currently in flight, so
    // it competes fairly from its first dispatch without draining a debt
    // accrued by runs that came before it.
    int64_t min_vwork = 0;
    bool first = true;
    for (const RunState* r : runs_) {
      if (first || r->vwork < min_vwork) min_vwork = r->vwork;
      first = false;
    }
    state.vwork = min_vwork;
    for (const graph::Subtask& st : st_graph->subtasks) {
      // Roots; plus subtasks whose whole input set is already-sealed
      // partitions from an earlier partial run.
      const bool ready =
          st.preds.empty() ||
          (state.ex_wait[st.id] == 0 && state.nonex_left[st.id] == 0);
      if (ready && !state.enqueued[st.id]) EnqueueLocked(&state, st.id);
    }
    // Kill/loss events scheduled at or before the current completion count
    // (e.g. "kill band 1 at step 0") fire before dispatch.
    runs_.push_back(&state);
    ProcessDueFaultsLocked(completed_subtasks_);
    cv_.notify_all();
    auto drained = [&] {
      return (state.remaining == 0 || state.cancelled.load()) &&
             state.busy == 0;
    };
    if (!done_cv_.wait_until(lock, deadline, drained)) {
      // Deadline passed: stop dispatching; workers finish their current
      // subtask and quiesce, then the drain completes. Co-tenant runs are
      // untouched — only this run's queue stops draining.
      state.cancelled = true;
      if (state.failure.ok()) {
        state.failure = Status::Timeout("task deadline exceeded");
      }
      cv_.notify_all();
      done_cv_.wait(lock, drained);
    }
    // Detach the run before releasing the lock so workers never observe a
    // dangling RunState.
    runs_.erase(std::find(runs_.begin(), runs_.end(), &state));
    if (!state.failure.ok()) {
      out = state.failure;
    } else if (state.remaining != 0) {
      out = Status::Timeout("task deadline exceeded");
    }
  }
  if (!out.ok()) return out;

  // Modeled cluster time: list-schedule the measured per-subtask costs with
  // one serial dispatch slot per band (subtask order is topological); each
  // subtask's sim_us already folds its parallel-kernel CPU divided across
  // the band's cpus_per_band slots (and any lineage-recovery recompute it
  // had to wait for).
  {
    const size_t n = st_graph->subtasks.size();
    std::vector<int64_t> band_free(num_bands, 0);
    std::vector<int64_t> finish(n, 0);
    std::vector<int64_t> queue_wait(n, 0);
    // Band-serialization edge: the subtask that ran on this band right
    // before, so the critical-path walk can cross "waited for the band"
    // dependencies as well as graph edges.
    std::vector<int> band_pred(n, -1);
    std::vector<int> prev_on_band(num_bands, -1);
    int64_t makespan = 0;
    int last = -1;
    for (const graph::Subtask& st : st_graph->subtasks) {
      int64_t ready_inputs = 0;
      for (int p : st.preds) {
        ready_inputs = std::max(ready_inputs, finish[p]);
      }
      const int64_t start = std::max(ready_inputs, band_free[st.band]);
      queue_wait[st.id] = start - ready_inputs;
      band_pred[st.id] = prev_on_band[st.band];
      finish[st.id] = start + st.sim_us;
      band_free[st.band] = finish[st.id];
      prev_on_band[st.band] = st.id;
      if (finish[st.id] > makespan) {
        makespan = finish[st.id];
        last = st.id;
      }
      run_metrics->subtask_latency_us->Observe(st.sim_us);
      run_metrics->queue_wait_us->Observe(queue_wait[st.id]);
    }
    // Memory pressure: spilled bytes pass through a shared 500 MB/s disk
    // (write + eventual fault-back), the cost that turns static engines'
    // over-materialization into the paper's slowdowns and hangs.
    const int64_t spilled =
        metrics_->Get(CounterId::kBytesSpilled) - spilled_before;
    const int64_t spill_us = 2 * spilled / 500;  // bytes / (500 B/us)
    run_metrics->Add(CounterId::kSimulatedUs, makespan + spill_us);

    if (Tracer* tr = run_trace.sink) {
      const int pid = run_trace.pid;
      // Critical path: walk back from the last-finishing subtask, at each
      // step to whichever dependency (graph pred or band predecessor)
      // finished last. Each critical subtask contributes its cost
      // components to the stage totals; whatever the chain spent waiting
      // (band busy elsewhere) is idle. By construction the stage totals
      // sum exactly to the makespan, so the session-wide totals sum to
      // simulated_us.
      std::vector<char> critical(n, 0);
      int64_t critical_us = 0;
      for (int cur = last; cur >= 0;) {
        critical[cur] = 1;
        const graph::Subtask& st = st_graph->subtasks[cur];
        tr->AddStage(pid, TraceStage::kKernelSerial, st.cost.serial_us);
        tr->AddStage(pid, TraceStage::kKernelParallel, st.cost.parallel_us);
        tr->AddStage(pid, TraceStage::kDispatch, st.cost.dispatch_us);
        tr->AddStage(pid, TraceStage::kTransfer, st.cost.transfer_us);
        tr->AddStage(pid, TraceStage::kStore, st.cost.store_us);
        tr->AddStage(pid, TraceStage::kRecovery, st.cost.recovery_us);
        critical_us += st.sim_us;
        int next = -1;
        int64_t best = -1;
        for (int p : st.preds) {
          if (finish[p] > best) {
            best = finish[p];
            next = p;
          }
        }
        const int bp = band_pred[cur];
        if (bp >= 0 && finish[bp] > best) {
          best = finish[bp];
          next = bp;
        }
        cur = next;
      }
      tr->AddStage(pid, TraceStage::kIdle, makespan - critical_us);
      tr->AddStage(pid, TraceStage::kSpill, spill_us);

      // Emit the schedule post-hoc onto the band tracks, anchored at this
      // run's slice of the session's simulated clock.
      const int64_t base = tr->sim_now(pid);
      TraceSpan run_span(tr, pid, kTrackSupervisor, trace::kSpanScheduleRun);
      run_span.AddArg(Arg("subtasks", static_cast<int64_t>(n)));
      run_span.AddArg(Arg("makespan_us", makespan));
      for (const graph::Subtask& st : st_graph->subtasks) {
        const graph::ChunkNode* out =
            st.chunk_nodes.empty() ? nullptr : st.chunk_nodes.back();
        const char* op_name =
            out != nullptr && out->op != nullptr ? out->op->type_name()
                                                 : "unknown";
        TraceArgs args = {
            Arg("subtask", int64_t{st.id}),
            Arg("ops", static_cast<int64_t>(st.chunk_nodes.size())),
            Arg("queue_wait_us", queue_wait[st.id]),
            Arg("attempts", int64_t{state.attempts[st.id] + 1}),
        };
        if (out != nullptr) args.push_back(Arg("chunk", out->key));
        tr->CompleteAt(pid, kTrackBandBase + st.band,
                       trace::kSpanSubtaskPrefix + std::string(op_name),
                       base + finish[st.id] - st.sim_us, st.sim_us,
                       std::move(args), critical[st.id] != 0);
      }
      if (spill_us > 0) {
        tr->CompleteAt(pid, kTrackStorage, trace::kSpanSpillBackpressure,
                       base + makespan, spill_us,
                       {Arg("bytes", spilled)});
      }
      tr->AdvanceSim(pid, makespan + spill_us);
      // run_span ends here and spans exactly this run's simulated slice.
    }
  }
  return Status::OK();
}

}  // namespace xorbits::scheduler
