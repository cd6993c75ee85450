// Cross-engine equivalence: every TPC-H query must produce the same table
// under the distributed Xorbits engine and under the single-band
// pandas-like engine (one band, no tiling, no optimizer). This pins the
// paper's core compatibility claim — the distributed execution is
// observationally identical to the single-node library.

#include <gtest/gtest.h>

#include <filesystem>

#include "dataframe/kernels.h"
#include "io/tpch_gen.h"
#include "workloads/tpch_queries.h"

namespace xorbits::workloads {
namespace {

Config EngineConfig(EngineKind kind) {
  Config c = Config::Preset(kind);
  if (kind != EngineKind::kPandasLike) {
    c.num_workers = 2;
    c.bands_per_worker = 2;
  }
  c.band_memory_limit = 512LL << 20;
  c.chunk_store_limit = 128LL << 10;  // force genuinely multi-chunk plans
  c.task_deadline_ms = 120000;
  return c;
}

/// Sorts by all columns so row order (which legitimately differs across
/// shuffle layouts) does not affect comparison... except for queries whose
/// output order is part of the contract (explicit sort_values + head);
/// those are compared positionally.
dataframe::DataFrame Canonicalize(const dataframe::DataFrame& df,
                                  bool order_sensitive) {
  if (order_sensitive || df.num_rows() <= 1) return df;
  std::vector<std::string> by = df.column_names();
  auto sorted = dataframe::SortValues(df, by);
  return sorted.ok() ? sorted.MoveValue() : df;
}

void ExpectTablesEqual(const dataframe::DataFrame& a,
                       const dataframe::DataFrame& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column_name(c), b.column_name(c));
    const auto& ca = a.column(c);
    const auto& cb = b.column(c);
    ASSERT_EQ(ca.dtype(), cb.dtype()) << a.column_name(c);
    for (int64_t i = 0; i < a.num_rows(); ++i) {
      if (ca.IsNull(i) || cb.IsNull(i)) {
        EXPECT_EQ(ca.IsNull(i), cb.IsNull(i))
            << a.column_name(c) << " row " << i;
        continue;
      }
      if (ca.dtype() == dataframe::DType::kFloat64) {
        const double va = ca.float64_data()[i];
        const double vb = cb.float64_data()[i];
        EXPECT_NEAR(va, vb, 1e-6 * (1.0 + std::fabs(vb)))
            << a.column_name(c) << " row " << i;
      } else {
        EXPECT_EQ(ca.GetScalar(i), cb.GetScalar(i))
            << a.column_name(c) << " row " << i;
      }
    }
  }
}

// Queries whose result row order is pinned by an explicit final sort whose
// keys may tie (ties make cross-engine positional comparison unstable after
// a stable sort over different incoming orders). For those we canonicalize.
bool OrderSensitive(int q) {
  switch (q) {
    case 2:
    case 3:
    case 18:
    case 21:
      // top-k queries: the k-th boundary may tie; compare canonically.
      return false;
    default:
      return false;  // compare canonically everywhere: simplest and robust
  }
}

class TpchEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string((std::filesystem::temp_directory_path() /
                            "xorbits_tpch_equiv")
                               .string());
    ASSERT_TRUE(io::tpch::GenerateFiles(0.005, *dir_).ok());
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }
  static std::string* dir_;
};
std::string* TpchEquivalenceTest::dir_ = nullptr;

/// Runs query `q` on both engines, reading strings with `dict_encode`.
void ExpectQueryMatches(int q, const std::string& dir, bool dict_encode) {
  Config ref_cfg = EngineConfig(EngineKind::kPandasLike);
  ref_cfg.dict_encode = dict_encode;
  core::Session reference(std::move(ref_cfg));
  auto expected = tpch::RunQuery(q, &reference, dir);
  ASSERT_TRUE(expected.ok()) << "pandas-like Q" << q << ": "
                             << expected.status();

  Config cfg = EngineConfig(EngineKind::kXorbits);
  cfg.dict_encode = dict_encode;
  core::Session distributed(std::move(cfg));
  auto actual = tpch::RunQuery(q, &distributed, dir);
  ASSERT_TRUE(actual.ok()) << "xorbits Q" << q << ": " << actual.status();

  dataframe::DataFrame e = Canonicalize(*expected, OrderSensitive(q));
  dataframe::DataFrame a = Canonicalize(*actual, OrderSensitive(q));
  ExpectTablesEqual(a, e);
}

TEST_P(TpchEquivalenceTest, DistributedMatchesSingleNode) {
  ExpectQueryMatches(GetParam(), *dir_, /*dict_encode=*/true);
}

INSTANTIATE_TEST_SUITE_P(All22, TpchEquivalenceTest, ::testing::Range(1, 23));

// Without dict_encode, dictionary pages decode to plain strings: the
// queries with string keys or string predicates must still match.
class TpchPlainStringsTest : public TpchEquivalenceTest {};

TEST_P(TpchPlainStringsTest, DistributedMatchesSingleNode) {
  ExpectQueryMatches(GetParam(), *dir_, /*dict_encode=*/false);
}

INSTANTIATE_TEST_SUITE_P(StringQueries, TpchPlainStringsTest,
                         ::testing::Values(1, 4, 12, 16, 21, 22));

// The same equivalence must hold for the static baselines (they are slower
// and OOM-prone, not wrong) — spot-check a representative query mix.
class BaselineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(BaselineEquivalenceTest, MatchesSingleNode) {
  auto [kind, q] = GetParam();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "xorbits_tpch_base").string();
  ASSERT_TRUE(io::tpch::GenerateFiles(0.003, dir).ok());
  core::Session reference(EngineConfig(EngineKind::kPandasLike));
  auto expected = tpch::RunQuery(q, &reference, dir);
  ASSERT_TRUE(expected.ok()) << "pandas-like Q" << q << ": "
                             << expected.status();
  core::Session baseline(EngineConfig(kind));
  auto actual = tpch::RunQuery(q, &baseline, dir);
  ASSERT_TRUE(actual.ok()) << actual.status();
  ExpectTablesEqual(Canonicalize(*actual, false),
                    Canonicalize(*expected, false));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BaselineEquivalenceTest,
    ::testing::Combine(::testing::Values(EngineKind::kDaskLike,
                                         EngineKind::kModinLike,
                                         EngineKind::kSparkLike),
                       ::testing::Values(1, 4, 6, 13)));

}  // namespace
}  // namespace xorbits::workloads
