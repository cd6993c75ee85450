#ifndef XORBITS_OPERATORS_OPERATOR_H_
#define XORBITS_OPERATORS_OPERATOR_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/result.h"
#include "graph/graph.h"
#include "services/chunk_data.h"
#include "services/meta_service.h"

namespace xorbits::operators {

using services::ChunkDataPtr;

/// Everything a chunk kernel sees while running on a worker: fetched input
/// payloads, slots for its outputs, and (for shuffle mappers) the sink that
/// streams its partitions out. Mirrors the `ctx` dict of the paper's
/// execute method.
struct ExecutionContext {
  /// Streaming destination for shuffle partitions (DESIGN.md §11). The
  /// executor plants one for every shuffle mapper, and each partition
  /// leaves the mapper the moment it is cut — blocked, compressed, and
  /// sealed mid-subtask — published as "<key>@<partition>".
  class ShuffleSink {
   public:
    virtual ~ShuffleSink() = default;
    virtual Status Emit(int partition, ChunkDataPtr data) = 0;
  };

  const graph::ChunkNode* node = nullptr;
  std::vector<ChunkDataPtr> inputs;
  std::vector<ChunkDataPtr> outputs;
  /// Set for shuffle mappers; a mapper run without one fails.
  ShuffleSink* shuffle_sink = nullptr;
  int band = 0;
  /// Run counters (source_bytes_read, ...); null in bare kernel tests.
  Metrics* metrics = nullptr;

  /// How mapper kernels hand off a finished partition.
  Status EmitShufflePartition(int partition, ChunkDataPtr data) {
    if (shuffle_sink == nullptr) {
      return Status::Invalid("shuffle mapper run without a shuffle sink");
    }
    return shuffle_sink->Emit(partition, std::move(data));
  }
};

/// Chunk-level operator: the `execute` side of the paper's operator triple.
/// Instances are immutable after construction and shared between the chunk
/// graph and the executor.
class ChunkOp : public graph::OperatorBase {
 public:
  virtual Status Execute(ExecutionContext& ctx) const = 0;
  virtual int num_outputs() const { return 1; }
  /// Storage keys to fetch for `node`'s inputs; shuffle reducers override
  /// this to address per-partition keys.
  virtual std::vector<std::string> InputKeys(
      const graph::ChunkNode& node) const;
  /// True when Execute emits partitions through ctx.shuffle_sink instead
  /// of filling outputs.
  virtual bool is_shuffle_map() const { return false; }
  /// Value-identity signature for common-subexpression elimination: two
  /// nodes whose ops return the same signature, and whose inputs and
  /// output_index match, produce identical payloads and may be merged.
  /// nullopt (the default) opts the op out of CSE — only pure, determinis-
  /// tic kernels whose parameters are fully captured should return one.
  virtual std::optional<std::string> CseSignature() const {
    return std::nullopt;
  }
  /// Signature for the cross-session result cache (DESIGN.md §9). Stricter
  /// contract than CseSignature: the string must identify the op's output
  /// bytes across *sessions and processes*, so process-local identities
  /// (pointers, session-scoped ids) are banned, and source ops must fold
  /// in external-state versions (file mtime+size) so a changed input hashes
  /// to a fresh key instead of serving stale bytes. Defaults to
  /// CseSignature, which is already value-based for every built-in op
  /// except the in-memory data source (it opts out / re-tags — see
  /// DataChunkOp). nullopt excludes the node and all its descendants.
  virtual std::optional<std::string> CacheSignature() const {
    return CseSignature();
  }
  /// Name of the external source this op reads, if any: the invalidation
  /// handle for the result cache. File sources return their path; content-
  /// fingerprinted in-memory sources return their tag. A cached entry
  /// carries the union of its sub-plan's source tags, and
  /// ResultCache::Invalidate(tag) eagerly drops everything derived from
  /// that source (DESIGN.md §9).
  virtual std::optional<std::string> CacheSourceTag() const {
    return std::nullopt;
  }
};

/// What a tile coroutine hands to the driver when it needs metadata: run
/// these chunks (and their pending ancestors), record their meta, resume me.
struct TileYield {
  std::vector<graph::ChunkNode*> chunks;
};

/// C++20 coroutine return type for Operator::tile — the analogue of the
/// Python generator in the paper's Fig. 5(b). `co_yield TileYield{chunks}`
/// suspends tiling so the driver can execute the partial graph;
/// `co_return status` finishes.
class TileTask {
 public:
  struct promise_type {
    TileYield pending;
    Status result = Status::OK();

    TileTask get_return_object() {
      return TileTask(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    /// Accepts the chunk vector directly (not a TileYield temporary):
    /// gcc 12's coroutine codegen miscompiles aggregate operands of
    /// co_yield (double-free of the moved-from buffer).
    std::suspend_always yield_value(std::vector<graph::ChunkNode*> chunks) {
      pending.chunks = std::move(chunks);
      return {};
    }
    void return_value(Status s) { result = std::move(s); }
    void unhandled_exception() {
      result = Status::ExecutionError("uncaught exception during tile");
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  explicit TileTask(Handle handle) : handle_(handle) {}
  TileTask(TileTask&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  TileTask& operator=(TileTask&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = other.handle_;
      other.handle_ = nullptr;
    }
    return *this;
  }
  TileTask(const TileTask&) = delete;
  TileTask& operator=(const TileTask&) = delete;
  ~TileTask() {
    if (handle_) handle_.destroy();
  }

  /// Advances the coroutine; returns true if it yielded (needs execution),
  /// false if it finished.
  bool Resume() {
    handle_.resume();
    return !handle_.done();
  }
  bool done() const { return handle_.done(); }
  TileYield& pending() { return handle_.promise().pending; }
  const Status& result() const { return handle_.promise().result; }

 private:
  Handle handle_ = nullptr;
};

/// Supervisor-side state a tile coroutine works against: the growing chunk
/// graph, the meta service (for metadata of already-executed chunks), and
/// the engine configuration that decides dynamic vs. static behaviour.
class TileContext {
 public:
  TileContext(const Config& config, services::MetaService* meta,
              graph::ChunkGraph* chunk_graph, Metrics* metrics)
      : config_(config),
        meta_(meta),
        chunk_graph_(chunk_graph),
        metrics_(metrics) {}

  const Config& config() const { return config_; }
  /// True when tile may co_yield to trigger execution (the paper's core
  /// mechanism); false reproduces static-planning baselines.
  bool dynamic() const { return config_.dynamic_tiling; }
  graph::ChunkGraph* chunk_graph() { return chunk_graph_; }
  services::MetaService* meta() { return meta_; }
  Metrics* metrics() { return metrics_; }

  /// Meta of an executed chunk, by its storage key.
  Result<services::ChunkMeta> GetMeta(const graph::ChunkNode* node) const {
    return meta_->Get(node->key);
  }

 private:
  const Config& config_;
  services::MetaService* meta_;
  graph::ChunkGraph* chunk_graph_;
  Metrics* metrics_;
};

/// Tileable-level operator: owns parameters and implements `tile` (chunk
/// graph construction, possibly yielding). The `__call__` side lives in the
/// public API layer, which creates TileableNodes referencing these ops.
class TileableOp : public graph::OperatorBase {
 public:
  virtual TileTask Tile(TileContext& ctx, graph::TileableNode* node) = 0;

  /// Column-pruning hook: given the columns required from this op's output,
  /// the columns required from each input (nullopt = everything). Sources
  /// additionally accept the pruned set via SetPrunedColumns overrides.
  virtual std::optional<std::vector<std::set<std::string>>>
  RequiredInputColumns(const graph::TileableNode& node,
                       const std::set<std::string>& out_columns) const {
    return std::nullopt;
  }
};

// --- shared tiling helpers ---

/// Rows and bytes of a chunk, from recorded meta if executed, otherwise
/// from planning estimates on the node.
struct SizeEstimate {
  int64_t rows = -1;
  int64_t nbytes = -1;
  bool measured = false;
  /// Row count is trustworthy for positional indexing.
  bool exact = false;
};
SizeEstimate EstimateChunk(const TileContext& ctx,
                           const graph::ChunkNode* chunk);

/// Sum over chunks; unknown sizes extrapolate from the measured/estimated
/// mean (the metadata-driven sizing at the heart of auto reduce selection).
SizeEstimate EstimateChunks(const TileContext& ctx,
                            const std::vector<graph::ChunkNode*>& chunks);

/// Splits `total_rows` into near-equal spans no larger than needed for
/// `target_chunks` chunks. Returns (offset, count) pairs.
std::vector<std::pair<int64_t, int64_t>> SplitRows(int64_t total_rows,
                                                   int64_t target_chunks);

/// Number of chunks for a payload of `total_bytes` under the configured
/// chunk store limit, clamped to [1, 4 * total_bands].
int64_t ChooseChunkCount(const Config& config, int64_t total_bytes);

}  // namespace xorbits::operators

#endif  // XORBITS_OPERATORS_OPERATOR_H_
