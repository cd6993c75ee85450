#ifndef XORBITS_TESTS_TEST_UTIL_H_
#define XORBITS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>

#include "dataframe/dataframe.h"

namespace xorbits::test_util {

/// Exact fingerprint of a frame: column names, dtypes, validity and the
/// value bytes of every valid cell. Any float-level difference changes it;
/// the physical encoding and materialization state do not (AppendKeyBytes
/// is byte-identical across both).
inline std::string Fingerprint(const dataframe::DataFrame& df) {
  std::string out;
  for (int ci = 0; ci < df.num_columns(); ++ci) {
    out += df.column_name(ci);
    out += '|';
    const dataframe::Column& c = df.column(ci);
    out += static_cast<char>(c.dtype());
    for (int64_t i = 0; i < c.length(); ++i) {
      out += c.IsValid(i) ? 'v' : 'n';
      if (c.IsValid(i)) c.AppendKeyBytes(i, &out);
    }
    out += '\n';
  }
  return out;
}

}  // namespace xorbits::test_util

#endif  // XORBITS_TESTS_TEST_UTIL_H_
