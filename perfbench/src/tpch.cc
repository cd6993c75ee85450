// tpch: one client runs the TPC-H queries (all but Q15, see kWrongQuery) in
// turn, each on a fresh tenant session, over xparquet files (sf 0.05)
// generated at set-up. The only
// workload that reads files: io, the optimizer (pushdown, pruning, CSE),
// joins and the pipelined exchange carry it. Its sorts touch only small
// grouped results, so it is the control for a sort change.

#include <filesystem>

#include "dataframe/groupby.h"
#include "dataframe/join.h"
#include "dataframe/kernels.h"
#include "io/serialize.h"
#include "io/tpch_gen.h"
#include "io/xparquet.h"
#include "workload.h"
#include "workloads/tpch_queries.h"

namespace perfbench {
namespace {

using xorbits::Result;
using xorbits::Status;
using xorbits::dataframe::AggFunc;
using xorbits::dataframe::DataFrame;

constexpr double kScaleFactor = 0.05;
/// Q15 fails the correctness gate on this cluster shape: it returns no row
/// where the reference returns one, because the total_revenue it filters
/// on (`>= max_rev`) is summed with different rounding than the one max_rev
/// was taken from. A workload may not contain a failing operation, so the
/// loop runs the other 21 queries until the engine is fixed.
constexpr int kWrongQuery = 15;

class Tpch : public Workload {
 public:
  explicit Tpch(const Options& opt)
      : Workload(opt), dir_(opt.work_dir + "/tpch") {}

  Status Generate() override {
    std::filesystem::remove_all(dir_);
    return xorbits::io::tpch::GenerateFiles(kScaleFactor, dir_, opt_.seed);
  }
  void ReleaseInputs() override { std::filesystem::remove_all(dir_); }

  std::string KeyName(int key) const override {
    return "Q" + std::to_string(key);
  }
  // A 20 s window holds 4-6 passes of 21 queries: 84-126 samples.
  double TailPercentile() const override { return 75; }

  Floors MeasureFloors(const TracedRun& run) override {
    Floors f;
    const bool dict = Settings().dict_encode;
    const std::string lineitem_path = dir_ + "/lineitem.xpq";
    DataFrame lineitem, orders;
    f.read_ms = TimeMedianMs(3, [&] {
      lineitem = xorbits::io::ReadXpq(lineitem_path, {}, 0, -1, nullptr, dict)
                     .MoveValue();
    });
    orders = xorbits::io::ReadXpq(dir_ + "/orders.xpq", {}, 0, -1, nullptr,
                                  dict)
                 .MoveValue();
    f.serialize_ms = TimeMedianMs(
        3, [&] { (void)xorbits::io::SerializeDataFrame(lineitem); });
    // Q1's aggregation over the whole of lineitem.
    f.groupby_ms = TimeMedianMs(3, [&] {
      (void)xorbits::dataframe::GroupByAgg(
          lineitem, {"l_returnflag", "l_linestatus"},
          {{"l_quantity", AggFunc::kSum, "sum_qty"},
           {"l_extendedprice", AggFunc::kSum, "sum_base_price"},
           {"l_quantity", AggFunc::kMean, "avg_qty"},
           {"l_extendedprice", AggFunc::kMean, "avg_price"},
           {"l_discount", AggFunc::kMean, "avg_disc"},
           {"", AggFunc::kSize, "count_order"}});
    });
    xorbits::dataframe::MergeOptions on_order;
    on_order.left_on = {"l_orderkey"};
    on_order.right_on = {"o_orderkey"};
    f.merge_ms = TimeMedianMs(3, [&] {
      (void)xorbits::dataframe::Merge(lineitem, orders, on_order);
    });
    f.sort_ms = TimeMedianMs(3, [&] {
      (void)xorbits::dataframe::SortValues(lineitem,
                                           {"l_shipdate", "l_orderkey"});
    });
    // Q1 end to end (untraced) over its serial floors: read + aggregate.
    std::vector<double> q1;
    for (size_t i = 0; i < run.untraced.kind.size(); ++i) {
      if (run.untraced.kind[i] == 1) q1.push_back(run.untraced.latency_ms[i]);
    }
    f.engine_ms = Median(q1);
    f.kernel_ms = f.read_ms + f.groupby_ms;
    return f;
  }

 protected:
  std::vector<int> CycleKeys() const override {
    std::vector<int> keys;
    for (int q = 1; q <= xorbits::workloads::tpch::NumQueries(); ++q) {
      if (q != kWrongQuery) keys.push_back(q);
    }
    return keys;
  }

  Result<DataFrame> Request(xorbits::core::Session* session, int key,
                            LayerTotals* layers) override {
    // RunQuery builds, materializes and fetches internally; the traced run
    // splits out materialize from its spans (TracedRun::
    // materialize_from_spans), so the whole call lands in fetch_ms here.
    const double t0 = NowMs();
    auto result = xorbits::workloads::tpch::RunQuery(key, session, dir_);
    if (layers != nullptr) layers->fetch_ms += NowMs() - t0;
    return result;
  }

 private:
  std::string dir_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpch(const Options& opt) {
  return std::make_unique<Tpch>(opt);
}

}  // namespace perfbench
