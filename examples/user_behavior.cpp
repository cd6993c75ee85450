// E-commerce user-behavior analysis — the paper's other production use case
// (§III-B): sessionized event logs, funnel filtering, per-user engagement
// features, and a join against a user-attribute table. Demonstrates the
// dataframe API end to end: filters, expressions, merges, groupbys, sorts,
// head, and deferred evaluation.

#include <cstdio>

#include "common/random.h"
#include "core/xorbits.h"

using namespace xorbits;            // NOLINT
using namespace xorbits::operators;  // NOLINT
using dataframe::AggFunc;
using dataframe::CmpOp;
using dataframe::Column;
using dataframe::DataFrame;

namespace {

DataFrame MakeEvents(int64_t n, int64_t num_users) {
  Rng rng(11);
  std::vector<int64_t> user(n), ts(n), dwell(n);
  std::vector<std::string> action(n);
  const char* kActions[] = {"view", "click", "cart", "purchase"};
  for (int64_t i = 0; i < n; ++i) {
    user[i] = rng.Zipf(num_users, 1.4);  // heavy users dominate, as in logs
    ts[i] = rng.UniformInt(0, 86400 * 30);
    dwell[i] = rng.UniformInt(1, 600);
    // Funnel: most events are views, few are purchases.
    const int64_t r = rng.UniformInt(0, 99);
    action[i] = kActions[r < 70 ? 0 : (r < 90 ? 1 : (r < 97 ? 2 : 3))];
  }
  return DataFrame::Make({"user_id", "ts", "dwell_s", "action"},
                         {Column::Int64(user), Column::Int64(ts),
                          Column::Int64(dwell), Column::String(action)})
      .MoveValue();
}

DataFrame MakeUsers(int64_t n) {
  Rng rng(12);
  std::vector<int64_t> id(n), age(n);
  std::vector<std::string> tier(n);
  const char* kTiers[] = {"free", "plus", "pro"};
  for (int64_t i = 0; i < n; ++i) {
    id[i] = i;
    age[i] = rng.UniformInt(18, 70);
    tier[i] = kTiers[rng.UniformInt(0, 2)];
  }
  return DataFrame::Make({"user_id", "age", "tier"},
                         {Column::Int64(id), Column::Int64(age),
                          Column::String(tier)})
      .MoveValue();
}

Status Run() {
  Config config;
  config.num_workers = 2;
  config.bands_per_worker = 2;
  config.chunk_store_limit = 1LL << 20;
  core::Session session(std::move(config));

  XORBITS_ASSIGN_OR_RETURN(DataFrameRef events,
                           FromPandas(&session, MakeEvents(400000, 5000)));
  XORBITS_ASSIGN_OR_RETURN(DataFrameRef users,
                           FromPandas(&session, MakeUsers(5000)));

  // Engagement: long-dwell events only.
  XORBITS_ASSIGN_OR_RETURN(
      DataFrameRef engaged,
      events.Filter(CompareExpr(Col("dwell_s"), CmpOp::kGe,
                                Lit(int64_t{30}))));
  // Per-user funnel features.
  XORBITS_ASSIGN_OR_RETURN(
      DataFrameRef purchases,
      engaged.Filter(CompareExpr(Col("action"), CmpOp::kEq,
                                 Lit("purchase"))));
  XORBITS_ASSIGN_OR_RETURN(
      DataFrameRef purchase_counts,
      purchases.GroupByAgg({"user_id"},
                           {{"", AggFunc::kSize, "purchases"}}));
  XORBITS_ASSIGN_OR_RETURN(
      DataFrameRef activity,
      engaged.GroupByAgg({"user_id"},
                         {{"dwell_s", AggFunc::kSum, "total_dwell"},
                          {"dwell_s", AggFunc::kMean, "avg_dwell"},
                          {"", AggFunc::kSize, "events"}}));
  dataframe::MergeOptions on_user;
  on_user.on = {"user_id"};
  on_user.how = dataframe::JoinType::kLeft;
  XORBITS_ASSIGN_OR_RETURN(DataFrameRef features,
                           activity.Merge(purchase_counts, on_user));
  dataframe::MergeOptions attrs = on_user;
  attrs.how = dataframe::JoinType::kInner;
  XORBITS_ASSIGN_OR_RETURN(features, features.Merge(users, attrs));
  // Conversion proxy and ranking.
  XORBITS_ASSIGN_OR_RETURN(
      features,
      features.Assign("dwell_per_event",
                      BinaryExpr(Col("total_dwell"), dataframe::BinOp::kDiv,
                                 Col("events"))));
  XORBITS_ASSIGN_OR_RETURN(DataFrameRef top,
                           features.SortValues({"total_dwell"}, {false}));
  XORBITS_ASSIGN_OR_RETURN(top, top.Head(10));

  XORBITS_ASSIGN_OR_RETURN(std::string repr, top.Repr(12));
  std::printf("top-10 most engaged users:\n%s\n", repr.c_str());

  // Tier-level summary.
  XORBITS_ASSIGN_OR_RETURN(
      DataFrameRef by_tier,
      features.GroupByAgg({"tier"},
                          {{"events", AggFunc::kSum, "events"},
                           {"purchases", AggFunc::kSum, "purchases"},
                           {"avg_dwell", AggFunc::kMean, "avg_dwell"}}));
  XORBITS_ASSIGN_OR_RETURN(repr, by_tier.Repr());
  std::printf("\nengagement by tier:\n%s\n", repr.c_str());
  std::printf("\nmetrics: %s\n", session.metrics().ToString().c_str());
  std::printf("cluster metrics: %s\n",
              session.metrics().parent()->ToString().c_str());
  return Status::OK();
}

}  // namespace

int main() {
  Status st = Run();
  if (!st.ok()) {
    std::printf("failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
