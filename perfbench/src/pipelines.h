#ifndef PERFBENCH_PIPELINES_H_
#define PERFBENCH_PIPELINES_H_

// The four data-science pipelines of the `pipelines` and `serving`
// workloads, rebuilt from the public API over frames generated once at
// set-up, so input generation stays out of the timed window.

#include <cstdint>
#include <string>

#include "core/xorbits.h"
#include "layers.h"

namespace perfbench {

enum PipelineKind { kUc10 = 0, kCensus, kPlasticc, kLightcurve };
inline constexpr int kNumPipelines = 4;
const char* PipelineName(int kind);

/// The input frames of one pipeline run. uc10 reads `frame` (transactions)
/// and `customers`; the others read `frame` only.
struct PipelineInput {
  int kind = kUc10;
  xorbits::dataframe::DataFrame frame;
  xorbits::dataframe::DataFrame customers;
};

/// Generates the input of `kind` with the public pipelines::Make* functions:
/// `rows` transactions / census rows / light-curve points.
PipelineInput MakePipelineInput(int kind, int64_t rows, uint64_t seed);

/// Builds the pipeline over `in`, materializes it and fetches the result,
/// adding build / materialize / fetch wall time to `layers` when non-null.
xorbits::Result<xorbits::dataframe::DataFrame> RunPipeline(
    xorbits::core::Session* session, const PipelineInput& in,
    LayerTotals* layers);

/// Serial direct kernel calls mirroring the pipeline's main operators on
/// the same input: the per-pipeline floor of core.engine_over_kernel.
struct PipelineFloor {
  double groupby_ms = 0;
  double merge_ms = 0;
  double sort_ms = 0;
  double total() const { return groupby_ms + merge_ms + sort_ms; }
};
PipelineFloor MeasurePipelineFloor(const PipelineInput& in, int reps);

/// io floors on a frame: xparquet write-then-timed-read (under `dir`) and
/// serialization, in milliseconds.
void MeasureIoFloors(const xorbits::dataframe::DataFrame& df,
                     const std::string& dir, bool dict_encode, int reps,
                     Floors* floors);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINES_H_
