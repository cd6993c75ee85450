#ifndef XORBITS_SERVICES_CHUNK_DATA_H_
#define XORBITS_SERVICES_CHUNK_DATA_H_

#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "dataframe/dataframe.h"
#include "dataframe/join.h"
#include "tensor/ndarray.h"

namespace xorbits::services {

/// A chunk's in-memory payload: one dataframe piece, one tensor block, or a
/// scalar (final reductions). Immutable once stored; workers share payloads
/// by pointer within a process, mirroring the zero-copy path of the paper's
/// storage backends. The only state added after construction is derived
/// and never changes the payload: join tables memoized by `JoinTableOn`.
class ChunkData {
 public:
  explicit ChunkData(dataframe::DataFrame df) : payload_(std::move(df)) {}
  explicit ChunkData(tensor::NDArray arr) : payload_(std::move(arr)) {}
  explicit ChunkData(dataframe::Scalar s) : payload_(std::move(s)) {}

  bool is_dataframe() const {
    return std::holds_alternative<dataframe::DataFrame>(payload_);
  }
  bool is_ndarray() const {
    return std::holds_alternative<tensor::NDArray>(payload_);
  }
  bool is_scalar() const {
    return std::holds_alternative<dataframe::Scalar>(payload_);
  }

  const dataframe::DataFrame& dataframe() const {
    return std::get<dataframe::DataFrame>(payload_);
  }
  const tensor::NDArray& ndarray() const {
    return std::get<tensor::NDArray>(payload_);
  }
  const dataframe::Scalar& scalar() const {
    return std::get<dataframe::Scalar>(payload_);
  }

  /// Logical payload bytes — the unit of transfer and spill metering.
  /// Windows shared by several columns of this chunk are counted once
  /// (deduped by exact buffer window), so a chunk assembled from views is
  /// no "larger" than its eagerly-copied equivalent.
  int64_t nbytes() const;
  /// Bytes not backed by shared buffers (index labels, scalar payloads).
  /// Retained-size accounting charges these per chunk, unconditionally.
  int64_t overhead_nbytes() const;
  /// Appends every underlying buffer of the payload, for the storage
  /// layer's per-band unique-byte (refcounted) accounting.
  void AppendBufferRefs(std::vector<common::BufferRef>* out) const;
  /// Rows for dataframes/tensors, 1 for scalars.
  int64_t rows() const;

  std::string ToString() const;

  /// The hash-join table over this dataframe's `keys` in `mode`, built on
  /// the first call and shared by every later one: all probe chunks of a
  /// broadcast join hold the same payload pointer, so they share one build
  /// (DESIGN.md §7). Concurrent callers wait for the one builder. The table
  /// lives as long as the payload; a spill reload or a recompute makes a
  /// new payload, which builds again.
  Result<std::shared_ptr<const dataframe::JoinTable>> JoinTableOn(
      const std::vector<std::string>& keys,
      dataframe::JoinKeyMode mode) const;

 private:
  struct JoinTableSlot {
    std::vector<std::string> keys;
    dataframe::JoinKeyMode mode;
    std::once_flag once;
    Status status;
    std::shared_ptr<const dataframe::JoinTable> table;
  };

  std::variant<dataframe::DataFrame, tensor::NDArray, dataframe::Scalar>
      payload_;
  mutable std::mutex join_mu_;
  mutable std::vector<std::shared_ptr<JoinTableSlot>> join_tables_;
};

using ChunkDataPtr = std::shared_ptr<const ChunkData>;

ChunkDataPtr MakeChunk(dataframe::DataFrame df);
ChunkDataPtr MakeChunk(tensor::NDArray arr);
ChunkDataPtr MakeChunk(dataframe::Scalar s);

/// Binary round-trip for spill and simulated cross-node transfer.
Result<std::string> SerializeChunk(const ChunkData& chunk);
Result<ChunkDataPtr> DeserializeChunk(const std::string& buf);

/// Typed accessors with checked errors.
Result<const dataframe::DataFrame*> AsDataFrame(const ChunkDataPtr& chunk);
Result<const tensor::NDArray*> AsNDArray(const ChunkDataPtr& chunk);

}  // namespace xorbits::services

#endif  // XORBITS_SERVICES_CHUNK_DATA_H_
