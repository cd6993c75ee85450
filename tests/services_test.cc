#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/session.h"
#include "core/xorbits.h"
#include "services/chunk_data.h"
#include "services/meta_service.h"
#include "services/storage_service.h"
#include "test_util.h"

namespace xorbits::services {
namespace {

using dataframe::Column;
using dataframe::DataFrame;
using dataframe::Scalar;
using test_util::Fingerprint;

ChunkDataPtr DfChunk(int64_t rows) {
  std::vector<int64_t> v(rows);
  for (int64_t i = 0; i < rows; ++i) v[i] = i;
  return MakeChunk(DataFrame::Make({"v"}, {Column::Int64(v)}).MoveValue());
}

Config SmallConfig(bool spill) {
  Config c;
  c.num_workers = 1;
  c.bands_per_worker = 2;
  c.band_memory_limit = 1024;  // tiny: forces pressure
  c.enable_spill = spill;
  c.spill_dir = "/tmp/xorbits_test_spill";
  return c;
}

TEST(ChunkDataTest, KindsAndNbytes) {
  ChunkDataPtr df = DfChunk(10);
  EXPECT_TRUE(df->is_dataframe());
  EXPECT_EQ(df->rows(), 10);
  EXPECT_GT(df->nbytes(), 0);
  ChunkDataPtr arr = MakeChunk(tensor::NDArray::Zeros({3, 3}));
  EXPECT_TRUE(arr->is_ndarray());
  EXPECT_EQ(arr->nbytes(), 72);
  ChunkDataPtr s = MakeChunk(Scalar::Float(1.5));
  EXPECT_TRUE(s->is_scalar());
  EXPECT_EQ(s->rows(), 1);
}

TEST(ChunkDataTest, TypedAccessErrors) {
  ChunkDataPtr df = DfChunk(1);
  EXPECT_TRUE(AsDataFrame(df).ok());
  EXPECT_FALSE(AsNDArray(df).ok());
  EXPECT_FALSE(AsDataFrame(ChunkDataPtr()).ok());
}

TEST(ChunkDataTest, SerializeRoundTripAllKinds) {
  for (ChunkDataPtr c :
       {DfChunk(5), MakeChunk(tensor::NDArray::Full({2, 2}, 3.0)),
        MakeChunk(Scalar::Int(42)), MakeChunk(Scalar::Str("hi")),
        MakeChunk(Scalar::Null())}) {
    auto buf = SerializeChunk(*c);
    ASSERT_TRUE(buf.ok());
    auto back = DeserializeChunk(*buf);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ((*back)->nbytes(), c->nbytes());
    EXPECT_EQ((*back)->is_dataframe(), c->is_dataframe());
    if (c->is_scalar()) {
      EXPECT_EQ((*back)->scalar(), c->scalar());
    }
  }
  EXPECT_FALSE(DeserializeChunk("").ok());
  EXPECT_FALSE(DeserializeChunk("Zjunk").ok());
}

TEST(MetaServiceTest, PutGetDelete) {
  MetaService meta;
  ChunkMeta m;
  m.rows = 7;
  m.columns = {"a", "b"};
  m.band = 1;
  meta.Put("k1", m);
  EXPECT_TRUE(meta.Has("k1"));
  auto got = meta.Get("k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->rows, 7);
  EXPECT_EQ(got->columns.size(), 2u);
  EXPECT_FALSE(meta.Get("missing").ok());
  meta.Delete("k1");
  EXPECT_FALSE(meta.Has("k1"));
  EXPECT_EQ(meta.size(), 0);
}

TEST(StorageTest, PutGetSameBand) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  ChunkDataPtr c = DfChunk(10);
  ASSERT_TRUE(store.Put("a", c, 0).ok());
  EXPECT_TRUE(store.Has("a"));
  auto got = store.Get("a", 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->rows(), 10);
  EXPECT_EQ(metrics.Get(CounterId::kBytesTransferred), 0);
  EXPECT_EQ(*store.BandOf("a"), 0);
  EXPECT_GT(store.band_used_bytes(0), 0);
}

TEST(StorageTest, CrossBandGetMetersTransfer) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  ChunkDataPtr c = DfChunk(10);
  ASSERT_TRUE(store.Put("a", c, 0).ok());
  ASSERT_TRUE(store.Get("a", 1).ok());
  EXPECT_EQ(metrics.Get(CounterId::kBytesTransferred), c->nbytes());
}

TEST(StorageTest, DuplicateKeyRejected) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  ASSERT_TRUE(store.Put("a", DfChunk(1), 0).ok());
  EXPECT_FALSE(store.Put("a", DfChunk(1), 0).ok());
}

TEST(StorageTest, OomWithoutSpill) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  // Each 50-row chunk is ~400+ bytes; the 1 KiB band fills quickly.
  Status last = Status::OK();
  for (int i = 0; i < 10 && last.ok(); ++i) {
    last = store.Put("k" + std::to_string(i), DfChunk(50), 0);
  }
  EXPECT_TRUE(last.IsOutOfMemory());
  EXPECT_GT(metrics.Get(CounterId::kOomEvents), 0);
  // The other band is unaffected.
  EXPECT_TRUE(store.Put("other", DfChunk(50), 1).ok());
}

TEST(StorageTest, SpillThenFaultBack) {
  Metrics metrics;
  StorageService store(SmallConfig(true), &metrics);
  // Overcommit band 0; spill must kick in instead of OOM.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Put("k" + std::to_string(i), DfChunk(40), 0).ok())
        << i;
  }
  EXPECT_GT(metrics.Get(CounterId::kSpillEvents), 0);
  EXPECT_GT(metrics.Get(CounterId::kBytesSpilled), 0);
  // Oldest chunk was spilled; Get faults it back with identical content.
  auto got = store.Get("k0", 0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ((*got)->rows(), 40);
  EXPECT_EQ((*got)->dataframe().GetColumn("v").ValueOrDie()->int64_data()[7],
            7);
}

TEST(StorageTest, ChunkLargerThanBandAlwaysOoms) {
  Metrics metrics;
  StorageService store(SmallConfig(true), &metrics);
  EXPECT_TRUE(store.Put("big", DfChunk(100000), 0).IsOutOfMemory());
}

TEST(StorageTest, DeleteFreesBudget) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  ASSERT_TRUE(store.Put("a", DfChunk(50), 0).ok());
  int64_t used = store.band_used_bytes(0);
  EXPECT_GT(used, 0);
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.band_used_bytes(0), 0);
  EXPECT_FALSE(store.Delete("a").ok());
  EXPECT_FALSE(store.Get("a", 0).ok());
}

TEST(StorageTest, TransientReservation) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  ASSERT_TRUE(store.ReserveTransient(0, 800).ok());
  // Band nearly full: a big put must fail...
  EXPECT_TRUE(store.Put("a", DfChunk(50), 0).IsOutOfMemory());
  store.ReleaseTransient(0, 800);
  // ...and succeed after release.
  EXPECT_TRUE(store.Put("a", DfChunk(50), 0).ok());
}

TEST(StorageTest, OomErrorsCarryBandAndBudgetDetail) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  Status last = Status::OK();
  for (int i = 0; i < 10 && last.ok(); ++i) {
    last = store.Put("k" + std::to_string(i), DfChunk(50), 0);
  }
  ASSERT_TRUE(last.IsOutOfMemory());
  // The message names the band, the requested size and the budget — enough
  // to diagnose which band ran out and by how much.
  EXPECT_NE(last.message().find("band 0"), std::string::npos) << last;
  EXPECT_NE(last.message().find("requested"), std::string::npos) << last;
  EXPECT_NE(last.message().find("budget 1024"), std::string::npos) << last;
  EXPECT_NE(last.message().find("used"), std::string::npos) << last;
  // The whole-chunk-too-big class carries the same detail.
  Status big = store.Put("big", DfChunk(100000), 1);
  ASSERT_TRUE(big.IsOutOfMemory());
  EXPECT_NE(big.message().find("band 1"), std::string::npos) << big;
}

TEST(StorageTest, SpillFaultBackChargesTransferExactlyOnce) {
  Metrics metrics;
  Config cfg = SmallConfig(true);
  cfg.spill_dir = "/tmp/xorbits_test_spill_once";
  StorageService store(cfg, &metrics);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Put("k" + std::to_string(i), DfChunk(40), 0).ok());
  }
  ASSERT_GT(metrics.Get(CounterId::kSpillEvents), 0);
  // Cross-band read of a spilled chunk: fault back from disk, then one
  // metered transfer — the bytes must not be double-charged.
  const int64_t before = metrics.Get(CounterId::kBytesTransferred);
  auto got = store.Get("k0", 1);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(metrics.Get(CounterId::kBytesTransferred) - before,
            (*got)->nbytes());
}

TEST(StorageTest, MissingSpillFileSurfacesChunkLost) {
  Metrics metrics;
  Config cfg = SmallConfig(true);
  cfg.spill_dir = "/tmp/xorbits_test_spill_lost";
  std::filesystem::remove_all(cfg.spill_dir);
  StorageService store(cfg, &metrics);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Put("k" + std::to_string(i), DfChunk(40), 0).ok());
  }
  ASSERT_GT(metrics.Get(CounterId::kSpillEvents), 0);
  // Simulate disk loss: every spill file vanishes.
  for (const auto& e :
       std::filesystem::directory_iterator(cfg.spill_dir)) {
    std::filesystem::remove(e.path());
  }
  Status st = store.Get("k0", 0).status();
  ASSERT_FALSE(st.ok());
  // Lost, not a user error: the executor recomputes from lineage.
  EXPECT_TRUE(st.IsChunkLost()) << st;
  EXPECT_TRUE(store.IsLost("k0"));
  // The tombstone persists: a later read still reports loss, and a fresh
  // Put of the recomputed chunk resurrects the key.
  EXPECT_TRUE(store.Get("k0", 0).status().IsChunkLost());
  ASSERT_TRUE(store.Put("k0", DfChunk(40), 1).ok());
  EXPECT_TRUE(store.Get("k0", 1).ok());
  EXPECT_FALSE(store.IsLost("k0"));
}

// --- corrupt spill files ----------------------------------------------------

enum class Damage { kTruncate, kFlipByte };

/// Damages every spill file under `dir`: cut to half its length, or one
/// byte in the middle inverted.
int DamageSpillFiles(const std::string& dir, Damage damage) {
  int damaged = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const auto size = std::filesystem::file_size(e.path());
    if (damage == Damage::kTruncate) {
      std::filesystem::resize_file(e.path(), size / 2);
    } else {
      std::fstream f(e.path(), std::ios::in | std::ios::out |
                                   std::ios::binary);
      f.seekg(static_cast<std::streamoff>(size / 2));
      const char c = static_cast<char>(~f.get());
      f.seekp(static_cast<std::streamoff>(size / 2));
      f.put(c);
    }
    ++damaged;
  }
  return damaged;
}

class CorruptSpillTest : public ::testing::TestWithParam<Damage> {};

TEST_P(CorruptSpillTest, GetTombstonesTheChunkAndDropsTheFile) {
  Metrics metrics;
  Config cfg = SmallConfig(true);
  cfg.spill_dir = "/tmp/xorbits_test_spill_corrupt";
  std::filesystem::remove_all(cfg.spill_dir);
  StorageService store(cfg, &metrics);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Put("k" + std::to_string(i), DfChunk(40), 0).ok());
  }
  ASSERT_GT(metrics.Get(CounterId::kSpillEvents), 0);
  const int damaged = DamageSpillFiles(cfg.spill_dir, GetParam());
  ASSERT_GT(damaged, 0);
  // The oldest chunk was spilled first; its file no longer reads back.
  Status st = store.Get("k0", 0).status();
  EXPECT_TRUE(st.IsChunkLost()) << st;
  EXPECT_TRUE(store.IsLost("k0"));
  // The bad file is gone, so no retry re-reads the same bytes.
  int left = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(cfg.spill_dir)) {
    ++left;
  }
  EXPECT_EQ(left, damaged - 1);
  EXPECT_TRUE(store.Get("k0", 0).status().IsChunkLost());
}

DataFrame KeyedFrame(int64_t n) {
  std::vector<int64_t> k(n), v(n);
  for (int64_t i = 0; i < n; ++i) {
    k[i] = (i * 7919) % 37;
    v[i] = (i * 40503) % 1000;
  }
  return DataFrame::Make({"k", "v"}, {Column::Int64(k), Column::Int64(v)})
      .MoveValue();
}

/// w = v * 2, filtered to k < 30, then grouped and sorted by k. With
/// `corrupt_between`, the filter output is materialized first (the part
/// that spills) and every spill file is damaged before the aggregation
/// reads it back.
Result<DataFrame> RunPipeline(core::Session* session, bool corrupt_between,
                              Damage damage) {
  using operators::Col;
  using operators::Lit;
  XORBITS_ASSIGN_OR_RETURN(auto df, FromPandas(session, KeyedFrame(4000)));
  XORBITS_ASSIGN_OR_RETURN(
      auto doubled,
      df.Assign("w", operators::BinaryExpr(Col("v"), dataframe::BinOp::kMul,
                                           Lit(int64_t{2}))));
  XORBITS_ASSIGN_OR_RETURN(
      auto kept, doubled.Filter(operators::CompareExpr(
                     Col("k"), dataframe::CmpOp::kLt, Lit(int64_t{30}))));
  if (corrupt_between) {
    XORBITS_RETURN_NOT_OK(session->Materialize({kept.node()}));
    if (DamageSpillFiles(session->config().spill_dir, damage) == 0) {
      return Status::Invalid("nothing was spilled");
    }
  }
  XORBITS_ASSIGN_OR_RETURN(
      auto g, kept.GroupByAgg({"k"}, {{"w", dataframe::AggFunc::kSum, "s"},
                                      {"v", dataframe::AggFunc::kMax, "m"}}));
  // Group order depends on the partitioning; sort so engines compare.
  XORBITS_ASSIGN_OR_RETURN(auto sorted, g.SortValues({"k"}));
  return sorted.Fetch();
}

TEST_P(CorruptSpillTest, MaterializeRecoversFromLineage) {
  Config c;
  c.num_workers = 1;
  c.bands_per_worker = 2;
  c.chunk_store_limit = 4 << 10;
  c.band_memory_limit = 80 << 10;  // holds a few chunks: the rest spill
  c.enable_spill = true;
  c.spill_dir = "/tmp/xorbits_test_spill_recover";
  std::filesystem::remove_all(c.spill_dir);
  core::Session session(c);
  auto out = RunPipeline(&session, /*corrupt_between=*/true, GetParam());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(session.metrics().parent()->Get(CounterId::kChunksRecovered), 0);

  core::Session oracle(Config::Preset(EngineKind::kPandasLike));
  auto expected = RunPipeline(&oracle, /*corrupt_between=*/false,
                              GetParam());
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(Fingerprint(*out), Fingerprint(*expected));
}

INSTANTIATE_TEST_SUITE_P(Damage, CorruptSpillTest,
                         ::testing::Values(Damage::kTruncate,
                                           Damage::kFlipByte));

TEST(StorageTest, MarkBandDeadTombstonesItsChunks) {
  Metrics metrics;
  Config cfg = SmallConfig(false);
  cfg.band_memory_limit = 64 << 10;
  StorageService store(cfg, &metrics);
  ASSERT_TRUE(store.Put("a", DfChunk(10), 0).ok());
  ASSERT_TRUE(store.Put("b", DfChunk(10), 0).ok());
  ASSERT_TRUE(store.Put("c", DfChunk(10), 1).ok());

  const auto lost = store.MarkBandDead(0);
  EXPECT_EQ(lost, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(store.band_dead(0));
  EXPECT_EQ(store.band_used_bytes(0), 0);
  EXPECT_TRUE(store.Get("a", 1).status().IsChunkLost());
  EXPECT_TRUE(store.Get("c", 1).ok());  // survivor unaffected
  // A dead band accepts no new data or reservations.
  EXPECT_TRUE(store.Put("d", DfChunk(10), 0).IsWorkerLost());
  EXPECT_TRUE(store.ReserveTransient(0, 100).IsWorkerLost());
  // Recomputed chunks land on live bands and clear the tombstone.
  ASSERT_TRUE(store.Put("a", DfChunk(10), 1).ok());
  EXPECT_TRUE(store.Get("a", 1).ok());
  // Killing the same band twice reports nothing new.
  EXPECT_TRUE(store.MarkBandDead(0).empty());
}

TEST(StorageTest, DeleteByPrefixRemovesShufflePartitions) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  ASSERT_TRUE(store.Put("s@0", DfChunk(5), 0).ok());
  ASSERT_TRUE(store.Put("s@1", DfChunk(5), 1).ok());
  ASSERT_TRUE(store.Put("other", DfChunk(5), 0).ok());
  store.DeleteByPrefix("s@");
  EXPECT_FALSE(store.Has("s@0"));
  EXPECT_FALSE(store.Has("s@1"));
  EXPECT_TRUE(store.Has("other"));
  // Re-publication after a rollback must not hit duplicate-key errors.
  EXPECT_TRUE(store.Put("s@0", DfChunk(5), 0).ok());
}

TEST(StorageTest, ClearResetsEverything) {
  Metrics metrics;
  StorageService store(SmallConfig(false), &metrics);
  ASSERT_TRUE(store.Put("a", DfChunk(10), 1).ok());
  store.Clear();
  EXPECT_FALSE(store.Has("a"));
  EXPECT_EQ(store.band_used_bytes(1), 0);
}

}  // namespace
}  // namespace xorbits::services
