// Fraud-detection ETL — the paper's flagship industrial scenario (§III-B):
// a tiny customer table joined against a large, heavily skewed transaction
// log, followed by per-customer risk features. This is exactly the workload
// where static partitioning collapses onto one worker (the paper's 29x/37x
// result) and dynamic tiling broadcasts the small side instead.
//
// The example runs the same pipeline under the Modin-like static engine and
// under Xorbits, and prints the modeled cluster time of each.

#include <cstdio>

#include "core/xorbits.h"
#include "workloads/pipelines.h"

using namespace xorbits;  // NOLINT

namespace {

double RunOnce(EngineKind kind) {
  Config config = Config::Preset(kind);
  config.num_workers = 2;
  config.bands_per_worker = 2;
  config.band_memory_limit = 128LL << 20;
  config.chunk_store_limit = 1LL << 20;
  core::Session session(std::move(config));
  auto features =
      workloads::pipelines::TpcxAiUC10(&session, /*num_transactions=*/300000,
                                       /*num_customers=*/1000);
  if (!features.ok()) {
    std::printf("[%s] failed: %s\n", EngineKindName(kind),
                features.status().ToString().c_str());
    return -1;
  }
  const double sim_s = session.metrics().Get(CounterId::kSimulatedUs) / 1e6;
  std::printf("[%s] %lld customers scored, modeled cluster time %.3fs, "
              "dynamic yields %lld\n",
              EngineKindName(kind),
              static_cast<long long>(features->num_rows()), sim_s,
              static_cast<long long>(
                  session.metrics().Get(CounterId::kDynamicYields)));
  if (kind == EngineKind::kXorbits) {
    std::printf("top of the feature table:\n%s\n",
                features->ToString(6).c_str());
  }
  return sim_s;
}

}  // namespace

int main() {
  std::printf("fraud-detection ETL over a skewed transaction log\n\n");
  const double station = RunOnce(EngineKind::kModinLike);
  const double dynamic = RunOnce(EngineKind::kXorbits);
  if (station > 0 && dynamic > 0) {
    std::printf("\ndynamic tiling speedup over static partitioning: %.2fx\n",
                station / dynamic);
  }
  return 0;
}
