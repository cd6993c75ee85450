// pipelines: one client cycles through four in-memory data-science
// pipelines over ~1M-row frames generated once at set-up. No io and no
// pushdown: the load is on dataframe kernels, tiling (yields and reduce
// choice under skew) and the scheduler. lightcurve is the sort-bound one.

#include "pipelines.h"

#include <algorithm>
#include <filesystem>

#include "dataframe/groupby.h"
#include "dataframe/join.h"
#include "dataframe/kernels.h"
#include "io/serialize.h"
#include "io/xparquet.h"
#include "workload.h"
#include "workloads/pipelines.h"

namespace perfbench {

using xorbits::DataFrameRef;
using xorbits::Result;
using xorbits::Status;
using xorbits::dataframe::AggFunc;
using xorbits::dataframe::AggSpec;
using xorbits::dataframe::BinOp;
using xorbits::dataframe::CmpOp;
using xorbits::dataframe::DataFrame;
using xorbits::operators::AndExpr;
using xorbits::operators::BinaryExpr;
using xorbits::operators::Col;
using xorbits::operators::CompareExpr;
using xorbits::operators::Lit;
namespace gen = xorbits::workloads::pipelines;

#define AR(lhs, expr) XORBITS_ASSIGN_OR_RETURN(lhs, expr)

namespace {

constexpr int64_t kCustomers = 1000;
constexpr double kTransactionSkew = 3.0;  // as in TpcxAiUC10
constexpr int64_t kRollingWindow = 8;

const std::vector<AggSpec> kUc10Aggs = {
    {"amount", AggFunc::kSum, "total_amount"},
    {"amount", AggFunc::kMean, "avg_amount"},
    {"weighted", AggFunc::kSum, "risk_weighted"},
    {"", AggFunc::kSize, "tx_count"}};
const std::vector<std::string> kCensusKeys = {"workclass", "marital_status"};
const std::vector<AggSpec> kCensusAggs = {
    {"age", AggFunc::kMean, "avg_age"},
    {"education_num", AggFunc::kMean, "avg_edu"},
    {"hours_per_week", AggFunc::kMean, "avg_hours"},
    {"capital_gain", AggFunc::kSum, "total_gain"},
    {"", AggFunc::kSize, "n"}};
const std::vector<AggSpec> kPlasticcAggs = {
    {"flux", AggFunc::kMean, "flux_mean"},
    {"flux", AggFunc::kStd, "flux_std"},
    {"flux", AggFunc::kMin, "flux_min"},
    {"flux", AggFunc::kMax, "flux_max"},
    {"snr", AggFunc::kMean, "snr_mean"},
    {"mjd", AggFunc::kMax, "mjd_max"},
    {"mjd", AggFunc::kMin, "mjd_min"},
    {"", AggFunc::kSize, "n_obs"}};
const std::vector<std::string> kLightcurveOrder = {"object_id", "mjd"};

/// Skewed merge + per-customer fraud features (TPCx-AI UC10).
Result<DataFrameRef> BuildUc10(xorbits::core::Session* s,
                               const PipelineInput& in) {
  AR(DataFrameRef customers, xorbits::FromPandas(s, in.customers));
  AR(DataFrameRef trans, xorbits::FromPandas(s, in.frame));
  AR(trans, trans.Filter(CompareExpr(Col("amount"), CmpOp::kGt, Lit(10.0))));
  xorbits::dataframe::MergeOptions on;
  on.on = {"customer_id"};
  AR(DataFrameRef joined, trans.Merge(customers, on));
  AR(joined, joined.Assign("weighted", BinaryExpr(Col("amount"), BinOp::kMul,
                                                  Col("risk_score"))));
  return joined.GroupByAgg({"customer_id"}, kUc10Aggs);
}

/// Filter / derive / demographic groupby + a small sort.
Result<DataFrameRef> BuildCensus(xorbits::core::Session* s,
                                 const PipelineInput& in) {
  AR(DataFrameRef df, xorbits::FromPandas(s, in.frame));
  AR(df, df.Filter(xorbits::operators::NotNullExpr(Col("age"))));
  AR(df, df.WithColumns(
             {{"gain_filled",
               BinaryExpr(Col("capital_gain"), BinOp::kMul, Lit(1.0))},
              {"overtime", BinaryExpr(Col("hours_per_week"), BinOp::kSub,
                                      Lit(int64_t{40}))}}));
  AR(df, df.Filter(AndExpr(
             CompareExpr(Col("age"), CmpOp::kGe, Lit(int64_t{18})),
             CompareExpr(Col("age"), CmpOp::kLe, Lit(int64_t{65})))));
  AR(DataFrameRef g, df.GroupByAgg(kCensusKeys, kCensusAggs));
  return g.SortValues(kCensusKeys);
}

/// SNR filter + per-object light-curve statistics.
Result<DataFrameRef> BuildPlasticc(xorbits::core::Session* s,
                                   const PipelineInput& in) {
  AR(DataFrameRef df, xorbits::FromPandas(s, in.frame));
  AR(df, df.Assign("snr",
                   BinaryExpr(Col("flux"), BinOp::kDiv, Col("flux_err"))));
  AR(df, df.Filter(CompareExpr(Col("snr"), CmpOp::kGt, Lit(-5.0))));
  AR(DataFrameRef features, df.GroupByAgg({"object_id"}, kPlasticcAggs));
  return features.Assign("duration", BinaryExpr(Col("mjd_max"), BinOp::kSub,
                                                Col("mjd_min")));
}

/// Whole-frame sort into light curves, a rolling mean, a one-row summary.
Result<DataFrameRef> BuildLightcurve(xorbits::core::Session* s,
                                     const PipelineInput& in) {
  AR(DataFrameRef df, xorbits::FromPandas(s, in.frame));
  AR(df, df.SortValues(kLightcurveOrder));
  AR(df, df.RollingMean("flux", "flux_smooth", kRollingWindow));
  return df.Agg({{"flux_smooth", AggFunc::kMean, "smooth_mean"},
                 {"flux_smooth", AggFunc::kMax, "smooth_max"},
                 {"flux_smooth", AggFunc::kCount, "smooth_count"}});
}

Result<DataFrameRef> BuildPipeline(xorbits::core::Session* s,
                                   const PipelineInput& in) {
  switch (in.kind) {
    case kUc10:
      return BuildUc10(s, in);
    case kCensus:
      return BuildCensus(s, in);
    case kPlasticc:
      return BuildPlasticc(s, in);
    default:
      return BuildLightcurve(s, in);
  }
}

}  // namespace

const char* PipelineName(int kind) {
  static constexpr const char* kNames[] = {"uc10", "census", "plasticc",
                                           "lightcurve"};
  return kNames[kind];
}

PipelineInput MakePipelineInput(int kind, int64_t rows, uint64_t seed) {
  PipelineInput in;
  in.kind = kind;
  switch (kind) {
    case kUc10:
      in.customers = gen::MakeCustomers(kCustomers, seed);
      in.frame = gen::MakeTransactions(rows, kCustomers, kTransactionSkew,
                                       seed + 1);
      break;
    case kCensus:
      in.frame = gen::MakeCensus(rows, seed);
      break;
    default:
      in.frame = gen::MakePlasticc(rows, std::max<int64_t>(300, rows / 200),
                                   seed);
      break;
  }
  return in;
}

Result<DataFrame> RunPipeline(xorbits::core::Session* session,
                              const PipelineInput& in, LayerTotals* layers) {
  const double t0 = NowMs();
  AR(DataFrameRef out, BuildPipeline(session, in));
  const double t1 = NowMs();
  XORBITS_RETURN_NOT_OK(session->Materialize({out.node()}));
  const double t2 = NowMs();
  AR(DataFrame result, out.Fetch());
  if (layers != nullptr) {
    layers->build_ms += t1 - t0;
    layers->materialize_ms += t2 - t1;
    layers->fetch_ms += NowMs() - t2;
  }
  return result;
}

PipelineFloor MeasurePipelineFloor(const PipelineInput& in, int reps) {
  namespace df = xorbits::dataframe;
  PipelineFloor f;
  switch (in.kind) {
    case kUc10: {
      df::MergeOptions on;
      on.on = {"customer_id"};
      DataFrame joined;
      f.merge_ms = TimeMedianMs(reps, [&] {
        joined = df::Merge(in.frame, in.customers, on).MoveValue();
      });
      auto amount = joined.GetColumn("amount").MoveValue();
      auto risk = joined.GetColumn("risk_score").MoveValue();
      std::vector<double> weighted(amount->length());
      for (int64_t i = 0; i < amount->length(); ++i) {
        weighted[i] = amount->float64_data()[i] * risk->float64_data()[i];
      }
      (void)joined.SetColumn("weighted",
                             df::Column::Float64(std::move(weighted)));
      f.groupby_ms = TimeMedianMs(reps, [&] {
        (void)df::GroupByAgg(joined, {"customer_id"}, kUc10Aggs);
      });
      break;
    }
    case kCensus:
      f.groupby_ms = TimeMedianMs(reps, [&] {
        (void)df::GroupByAgg(in.frame, kCensusKeys, kCensusAggs);
      });
      break;
    case kPlasticc: {
      // The snr column is derived in the pipeline; the floor aggregates
      // the raw columns with the same keys and functions.
      std::vector<AggSpec> specs;
      for (const AggSpec& s : kPlasticcAggs) {
        if (s.input != "snr") specs.push_back(s);
      }
      f.groupby_ms = TimeMedianMs(reps, [&] {
        (void)df::GroupByAgg(in.frame, {"object_id"}, specs);
      });
      break;
    }
    default:
      f.sort_ms = TimeMedianMs(reps, [&] {
        (void)df::SortValues(in.frame, kLightcurveOrder);
      });
      break;
  }
  return f;
}

void MeasureIoFloors(const DataFrame& df, const std::string& dir,
                     bool dict_encode, int reps, Floors* floors) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/floor.xpq";
  if (xorbits::io::WriteXpq(path, df).ok()) {
    floors->read_ms = TimeMedianMs(reps, [&] {
      (void)xorbits::io::ReadXpq(path, {}, 0, -1, nullptr, dict_encode);
    });
  }
  std::filesystem::remove(path);
  floors->serialize_ms = TimeMedianMs(
      reps, [&] { (void)xorbits::io::SerializeDataFrame(df); });
}

namespace {

constexpr int64_t kRows = 1000000;

class Pipelines : public Workload {
 public:
  using Workload::Workload;

  Status Generate() override {
    for (int kind : {kUc10, kCensus, kPlasticc}) {
      inputs_[kind] = MakePipelineInput(kind, kRows, opt_.seed + 10 * kind);
    }
    // lightcurve sorts the plasticc frame; the copy shares its buffers.
    inputs_[kLightcurve] = inputs_[kPlasticc];
    inputs_[kLightcurve].kind = kLightcurve;
    return Status::OK();
  }
  void ReleaseInputs() override {
    for (PipelineInput& in : inputs_) in = PipelineInput{};
  }

  std::string KeyName(int key) const override { return PipelineName(key); }
  // A 20 s window holds 20-27 cycles of 4 pipelines (80-108 samples), and
  // at least the 10 cycles p75 needs on a slow host.
  double TailPercentile() const override { return 75; }

  Floors MeasureFloors(const TracedRun& run) override {
    Floors f;
    for (const PipelineInput& in : inputs_) {
      const PipelineFloor p = MeasurePipelineFloor(in, /*reps=*/3);
      f.groupby_ms += p.groupby_ms;
      f.merge_ms += p.merge_ms;
      f.sort_ms += p.sort_ms;
      f.kernel_ms += p.total();
    }
    // Materialize wall of one cycle (one run of each pipeline).
    const double cycles =
        static_cast<double>(run.traced.completed()) / kNumPipelines;
    f.engine_ms = cycles > 0 ? run.layers.materialize_ms / cycles : 0;
    const auto largest = std::max_element(
        inputs_, inputs_ + kNumPipelines,
        [](const PipelineInput& a, const PipelineInput& b) {
          return a.frame.nbytes() < b.frame.nbytes();
        });
    MeasureIoFloors(largest->frame, opt_.work_dir + "/floors",
                    Settings().dict_encode, /*reps=*/3, &f);
    return f;
  }

 protected:
  std::vector<int> CycleKeys() const override {
    return {kUc10, kCensus, kPlasticc, kLightcurve};
  }
  Result<DataFrame> Request(xorbits::core::Session* session, int key,
                            LayerTotals* layers) override {
    return RunPipeline(session, inputs_[key], layers);
  }

 private:
  PipelineInput inputs_[kNumPipelines];
};

}  // namespace

std::unique_ptr<Workload> MakePipelines(const Options& opt) {
  return std::make_unique<Pipelines>(opt);
}

#undef AR

}  // namespace perfbench
