// Quickstart: the C++ analogue of the paper's Listing 2 — "scale your data
// science workload by changing the import line". Here the import line is a
// Session: create one, then use the pandas/NumPy-style lazy handles.
//
//   import xorbits.pandas as pd        ->  xorbits::ReadParquet / FromPandas
//   import xorbits.numpy as np         ->  xorbits::RandomNormal / FromNumpy
//   xorbits.init(...)                  ->  core::Session session(config);
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/xorbits.h"
#include "io/tpch_gen.h"
#include "io/xparquet.h"

using namespace xorbits;  // NOLINT

int main() {
  // xorbits.init(): start a local "cluster" — 2 workers x 2 NUMA bands.
  Config config;
  config.num_workers = 2;
  config.bands_per_worker = 2;
  config.band_memory_limit = 256LL << 20;
  config.chunk_store_limit = 4LL << 20;
  core::Session session(std::move(config));

  // --- array example (Listing 2): Q, R = np.linalg.qr(a) ---
  auto a = RandomNormal(&session, {20000, 64});
  auto qr = a->QR();
  if (!qr.ok()) {
    std::printf("qr failed: %s\n", qr.status().ToString().c_str());
    return 1;
  }
  auto r_factor = qr->second.Fetch();
  std::printf("QR of a 20000x64 random matrix, R factor:\n%s\n",
              r_factor->ToString(4).c_str());

  // --- dataframe example 1: read_parquet + groupby.agg ---
  // Generate a small TPC-H dataset to have a parquet-like file to read.
  const std::string dir = "/tmp/xorbits_quickstart";
  if (Status st = io::tpch::GenerateFiles(0.01, dir); !st.ok()) {
    std::printf("generate failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto orders = ReadParquet(&session, dir + "/orders.xpq");
  auto by_priority = orders->GroupByAgg(
      {"o_orderpriority"},
      {{"o_totalprice", dataframe::AggFunc::kMean, "avg_price"},
       {"", dataframe::AggFunc::kSize, "n_orders"}});
  // Deferred evaluation: printing is what triggers execution.
  std::printf("orders by priority:\n%s\n",
              by_priority->Repr().ValueOrDie().c_str());

  // --- dataframe example 2 (the paper's running example): filter + iloc ---
  auto lineitem = ReadParquet(&session, dir + "/lineitem.xpq");
  auto filtered = lineitem->Filter(operators::CompareExpr(
      operators::Col("l_quantity"), dataframe::CmpOp::kLt,
      operators::Lit(int64_t{10})));
  auto row = filtered->Iloc(10);  // needs dynamic tiling: sizes are unknown
  std::printf("10th row of the filtered lineitem:\n%s\n",
              row->Repr().ValueOrDie().c_str());

  // The session's run counters, then its cluster's storage counters.
  std::printf("metrics: %s\n", session.metrics().ToString().c_str());
  std::printf("cluster metrics: %s\n",
              session.metrics().parent()->ToString().c_str());
  return 0;
}
