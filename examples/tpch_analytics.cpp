// Ad-hoc analytics: runs a selection of the TPC-H queries (ported to the
// dataframe API exactly as the paper ports them to pandas) and prints their
// result tables — the decision-support scenario of §VI-B.

#include <cstdio>
#include <cstdlib>

#include "core/xorbits.h"
#include "io/tpch_gen.h"
#include "workloads/tpch_queries.h"

using namespace xorbits;  // NOLINT

int main(int argc, char** argv) {
  const double sf = argc > 1 ? std::atof(argv[1]) : 0.01;
  const std::string dir = "/tmp/xorbits_tpch_example";
  std::printf("generating TPC-H at SF %.3f into %s ...\n", sf, dir.c_str());
  if (Status st = io::tpch::GenerateFiles(sf, dir); !st.ok()) {
    std::printf("generate failed: %s\n", st.ToString().c_str());
    return 1;
  }

  Config config;
  config.num_workers = 2;
  config.bands_per_worker = 2;
  config.chunk_store_limit = 2LL << 20;

  // Pricing summary (Q1), shipping priority (Q3), revenue forecast (Q6),
  // market share (Q8) and customer distribution (Q13).
  for (int q : {1, 3, 6, 8, 13}) {
    core::Session session(config);
    auto result = workloads::tpch::RunQuery(q, &session, dir);
    if (!result.ok()) {
      std::printf("Q%d failed: %s\n", q, result.status().ToString().c_str());
      continue;
    }
    std::printf("\n--- Q%d (modeled cluster time %.3fs) ---\n%s\n", q,
                session.metrics().Get(CounterId::kSimulatedUs) / 1e6,
                result->ToString(8).c_str());
  }
  return 0;
}
