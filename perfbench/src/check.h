#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

// The correctness gate: every distinct result a timed window produced is
// compared with a reference run of the same input on the single-band
// kPandasLike engine (integers, strings and validity exactly, floats within
// 1e-6 relative), and optionally with a cache-off run byte for byte.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataframe/dataframe.h"

namespace perfbench {

/// FNV-1a over column names, dtypes, validity and value bytes: equal
/// checksums mean byte-identical frames (row order included).
uint64_t Checksum(const xorbits::dataframe::DataFrame& df);

/// Empty when `actual` matches `expected` after both are sorted by all
/// columns (row order legitimately differs across shuffle layouts); else a
/// description of the first difference.
std::string CompareFrames(const xorbits::dataframe::DataFrame& actual,
                          const xorbits::dataframe::DataFrame& expected);

/// Every result of a window, grouped by request key and deduplicated by
/// checksum: one frame is kept per distinct result. Thread-safe.
class ResultLog {
 public:
  void Record(int key, const xorbits::dataframe::DataFrame& df);

  struct Distinct {
    xorbits::dataframe::DataFrame frame;
    int64_t count = 0;  // results with this checksum
  };
  /// key -> checksum -> distinct result.
  const std::map<int, std::map<uint64_t, Distinct>>& results() const {
    return results_;
  }

 private:
  std::mutex mu_;
  std::map<int, std::map<uint64_t, Distinct>> results_;
};

/// Reference producers for one request key.
struct GateSources {
  /// kPandasLike run of the same input.
  std::function<xorbits::Result<xorbits::dataframe::DataFrame>(int key)>
      reference;
  /// Optional cache-off run on the benchmark's cluster shape; when set, every
  /// distinct result must equal it byte for byte.
  std::function<xorbits::Result<xorbits::dataframe::DataFrame>(int key)>
      cache_off;
  /// Key -> printable name for mismatch reports.
  std::function<std::string(int key)> name;
};

/// Runs the gate over `log`; returns how many recorded results were wrong
/// and prints one line per mismatch.
int64_t RunGate(const ResultLog& log, const GateSources& sources);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
