#ifndef XORBITS_IO_SERIALIZE_H_
#define XORBITS_IO_SERIALIZE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "dataframe/dataframe.h"
#include "tensor/ndarray.h"

namespace xorbits::io {

/// Binary (de)serialization of chunk payloads. Used by the storage service
/// for disk spill and by the simulated network path (a chunk crossing bands
/// is serialized, byte-counted, and deserialized on the receiving side).
/// Readers check every length prefix and range and return IOError on
/// malformed input.
Result<std::string> SerializeDataFrame(const dataframe::DataFrame& df);
Result<dataframe::DataFrame> DeserializeDataFrame(std::string_view buf);
Result<std::string> SerializeNDArray(const tensor::NDArray& a);
Result<tensor::NDArray> DeserializeNDArray(std::string_view buf);

/// The Serialize* bytes appended to `out`, for callers that frame them.
void AppendDataFrame(const dataframe::DataFrame& df, std::string* out);
void AppendNDArray(const tensor::NDArray& a, std::string* out);

}  // namespace xorbits::io

#endif  // XORBITS_IO_SERIALIZE_H_
