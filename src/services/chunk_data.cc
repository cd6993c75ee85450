#include "services/chunk_data.h"

#include <string_view>

#include "io/serialize.h"

namespace xorbits::services {

int64_t ChunkData::nbytes() const {
  std::vector<common::BufferRef> refs;
  AppendBufferRefs(&refs);
  return overhead_nbytes() + common::UniqueViewBytes(std::move(refs));
}

int64_t ChunkData::overhead_nbytes() const {
  // Lazy frames (DESIGN.md §10) charge only what is resident: the buffer
  // refs cover resolved cells / base payload / the selection vector, and
  // pending sources deliberately contribute nothing — an undecoded column
  // occupies no band memory until something reads it.
  if (is_dataframe()) return dataframe().index().nbytes();
  if (is_ndarray()) return 0;
  return 16;
}

void ChunkData::AppendBufferRefs(std::vector<common::BufferRef>* out) const {
  if (is_dataframe()) {
    dataframe().AppendBufferRefs(out);
  } else if (is_ndarray()) {
    ndarray().AppendBufferRefs(out);
  }
}

int64_t ChunkData::rows() const {
  if (is_dataframe()) return dataframe().num_rows();
  if (is_ndarray()) return ndarray().rows();
  return 1;
}

std::string ChunkData::ToString() const {
  if (is_dataframe()) return dataframe().ToString();
  if (is_ndarray()) return ndarray().ToString();
  return scalar().ToString();
}

Result<std::shared_ptr<const dataframe::JoinTable>> ChunkData::JoinTableOn(
    const std::vector<std::string>& keys, dataframe::JoinKeyMode mode) const {
  if (!is_dataframe()) return Status::TypeError("chunk is not a dataframe");
  std::shared_ptr<JoinTableSlot> slot;
  {
    std::lock_guard<std::mutex> lock(join_mu_);
    for (const auto& s : join_tables_) {
      if (s->mode == mode && s->keys == keys) {
        slot = s;
        break;
      }
    }
    if (slot == nullptr) {
      slot = std::make_shared<JoinTableSlot>();
      slot->keys = keys;
      slot->mode = mode;
      join_tables_.push_back(slot);
    }
  }
  // Built outside join_mu_, so a build over other keys never waits on it.
  std::call_once(slot->once, [&] {
    Result<std::shared_ptr<const dataframe::JoinTable>> built =
        dataframe::BuildJoinTable(dataframe(), keys, mode);
    if (built.ok()) {
      slot->table = built.MoveValue();
    } else {
      slot->status = built.status();
    }
  });
  if (!slot->status.ok()) return slot->status;
  return slot->table;
}

ChunkDataPtr MakeChunk(dataframe::DataFrame df) {
  return std::make_shared<ChunkData>(std::move(df));
}
ChunkDataPtr MakeChunk(tensor::NDArray arr) {
  return std::make_shared<ChunkData>(std::move(arr));
}
ChunkDataPtr MakeChunk(dataframe::Scalar s) {
  return std::make_shared<ChunkData>(std::move(s));
}

Result<std::string> SerializeChunk(const ChunkData& chunk) {
  std::string out;
  if (chunk.is_dataframe()) {
    out.push_back('D');
    io::AppendDataFrame(chunk.dataframe(), &out);
  } else if (chunk.is_ndarray()) {
    out.push_back('A');
    io::AppendNDArray(chunk.ndarray(), &out);
  } else {
    out.push_back('S');
    // Scalars spill via a single-value dataframe for simplicity.
    dataframe::DataFrame df;
    dataframe::Column col =
        chunk.scalar().is_null()
            ? dataframe::Column::Nulls(dataframe::DType::kFloat64, 1)
        : chunk.scalar().is_string()
            ? dataframe::Column::String({chunk.scalar().AsString()})
        : chunk.scalar().is_int()
            ? dataframe::Column::Int64({chunk.scalar().AsInt()})
        : chunk.scalar().is_bool()
            ? dataframe::Column::Bool({chunk.scalar().AsBool()})
            : dataframe::Column::Float64({chunk.scalar().AsDouble()});
    XORBITS_RETURN_NOT_OK(df.SetColumn("v", std::move(col)));
    io::AppendDataFrame(df, &out);
  }
  return out;
}

Result<ChunkDataPtr> DeserializeChunk(const std::string& buf) {
  if (buf.empty()) return Status::IOError("empty chunk buffer");
  const std::string_view body = std::string_view(buf).substr(1);
  if (buf[0] == 'D') {
    XORBITS_ASSIGN_OR_RETURN(auto df, io::DeserializeDataFrame(body));
    return MakeChunk(std::move(df));
  }
  if (buf[0] == 'A') {
    XORBITS_ASSIGN_OR_RETURN(auto arr, io::DeserializeNDArray(body));
    return MakeChunk(std::move(arr));
  }
  if (buf[0] == 'S') {
    XORBITS_ASSIGN_OR_RETURN(auto df, io::DeserializeDataFrame(body));
    if (df.num_rows() != 1 || df.num_columns() != 1) {
      return Status::IOError("bad scalar chunk");
    }
    return MakeChunk(df.column(0).GetScalar(0));
  }
  return Status::IOError("bad chunk tag");
}

Result<const dataframe::DataFrame*> AsDataFrame(const ChunkDataPtr& chunk) {
  if (!chunk) return Status::Invalid("null chunk");
  if (!chunk->is_dataframe()) {
    return Status::TypeError("chunk is not a dataframe");
  }
  return &chunk->dataframe();
}

Result<const tensor::NDArray*> AsNDArray(const ChunkDataPtr& chunk) {
  if (!chunk) return Status::Invalid("null chunk");
  if (!chunk->is_ndarray()) return Status::TypeError("chunk is not a tensor");
  return &chunk->ndarray();
}

}  // namespace xorbits::services
