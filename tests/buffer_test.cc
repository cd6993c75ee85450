// Tests of the shared-buffer / copy-on-write payload layer: O(1) slicing
// with no value-data allocation (global counting allocator), private copies
// on mutate-after-share, unique-byte accounting in StorageService (a buffer
// shared by several chunks is charged once per band), and serialize/spill
// round-trips where a sliced view is byte-identical to an eager copy, and
// content fingerprints built from hashes memoized on the buffers.
// Runs under both the ASan `sanitize` and TSan `concurrency` ctest labels.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.h"
#include "common/content_hash.h"
#include "common/metrics.h"
#include "dataframe/column.h"
#include "dataframe/dataframe.h"
#include "dataframe/dict.h"
#include "dataframe/index.h"
#include "services/chunk_data.h"
#include "services/storage_service.h"
#include "tensor/ndarray.h"

// ---------------------------------------------------------------------------
// Global allocation meter: every new/delete in this binary goes through
// these, so a test can assert that slicing megabytes of payload allocates
// at most bookkeeping-sized amounts (shape vectors, variant moves), never a
// value-data copy.
namespace {
std::atomic<int64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_bytes.fetch_add(static_cast<int64_t>(size),
                          std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xorbits {
namespace {

using common::BufferView;
using dataframe::Column;
using dataframe::ContentFingerprint;
using dataframe::DataFrame;
using services::ChunkDataPtr;
using services::MakeChunk;
using services::StorageService;

constexpr int64_t kRows = 1 << 20;  // 8 MiB of int64 payload
// Bookkeeping allowance for an "O(1)" operation: shape vectors, control
// blocks, string storage — anything but the payload itself.
constexpr int64_t kBookkeeping = 4096;

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// --- BufferView fundamentals ----------------------------------------------

TEST(BufferViewTest, SliceIsZeroCopy) {
  BufferView<int64_t> base(Iota(kRows));
  const int64_t before = g_alloc_bytes.load();
  BufferView<int64_t> mid = base.Slice(kRows / 4, kRows / 2);
  const int64_t spent = g_alloc_bytes.load() - before;
  EXPECT_LT(spent, kBookkeeping);
  ASSERT_EQ(mid.ssize(), kRows / 2);
  EXPECT_TRUE(mid.SharesBufferWith(base));
  EXPECT_EQ(mid.buffer_id(), base.buffer_id());
  EXPECT_EQ(mid[0], kRows / 4);
  EXPECT_EQ(mid.back(), kRows / 4 + kRows / 2 - 1);
}

TEST(BufferViewTest, MutateAfterShareMakesPrivateCopy) {
  BufferView<int64_t> a(Iota(16));
  BufferView<int64_t> b = a;  // copy shares the buffer
  ASSERT_TRUE(b.SharesBufferWith(a));
  b.MutableVec()[0] = -1;  // CoW: b unshares before writing
  EXPECT_FALSE(b.SharesBufferWith(a));
  EXPECT_EQ(a[0], 0);  // the original is untouched
  EXPECT_EQ(b[0], -1);
}

TEST(BufferViewTest, UniqueFullViewMutatesInPlace) {
  BufferView<int64_t> a(Iota(16));
  const uint64_t id = a.buffer_id();
  a.MutableVec().push_back(99);  // sole owner: no copy, size tracks vector
  EXPECT_EQ(a.buffer_id(), id);
  EXPECT_EQ(a.ssize(), 17);
  EXPECT_EQ(a.back(), 99);
}

TEST(BufferViewTest, MutatingASliceCopiesOnlyTheWindow) {
  BufferView<int64_t> base(Iota(kRows));
  BufferView<int64_t> win = base.Slice(10, 5);
  win.MutableVec()[0] = -7;  // partial window: must not scribble on base
  EXPECT_FALSE(win.SharesBufferWith(base));
  EXPECT_EQ(base[10], 10);
  EXPECT_EQ(win[0], -7);
  EXPECT_EQ(win.ssize(), 5);
}

TEST(BufferViewTest, UniqueViewAndBufferBytes) {
  BufferView<int64_t> base(Iota(100));
  std::vector<common::BufferRef> refs;
  base.AppendRef(&refs);
  base.AppendRef(&refs);                 // same window twice -> counted once
  base.Slice(0, 10).AppendRef(&refs);    // distinct window, same buffer
  EXPECT_EQ(common::UniqueViewBytes(refs), 100 * 8 + 10 * 8);
  auto bufs = common::UniqueBuffers(refs);
  ASSERT_EQ(bufs.size(), 1u);  // all three views share one allocation
  EXPECT_EQ(bufs[0].second, 100 * 8);
}

TEST(BufferViewTest, AppendIsAmortizedConstant) {
  // Exchange block assembly and packed-code decode build views out of many
  // single-element appends; geometric capacity doubling must keep total
  // allocation linear. Per-element growth (reserve exactly n+1 each call)
  // would allocate ~N^2/2 bytes here — hundreds of gigabytes — so a linear
  // bound with modest slack separates the two regimes decisively.
  constexpr int64_t kN = 1 << 20;
  BufferView<int64_t> v;
  v.MutableVec();  // materialize the empty buffer outside the window
  const int64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  for (int64_t i = 0; i < kN; ++i) v.AppendValue(i);
  const int64_t grown = g_alloc_bytes.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(v.ssize(), kN);
  EXPECT_EQ(v[kN - 1], kN - 1);
  // Doubling from 16 up to 2^20 allocates at most 16+32+...+2^20 < 2*2^20
  // elements; allow 4x for allocator rounding and bookkeeping.
  EXPECT_LT(grown, 4 * kN * static_cast<int64_t>(sizeof(int64_t)));

  // A shared view pays exactly one CoW copy, then keeps growing in place.
  BufferView<int64_t> shared = v;
  Metrics metrics;
  {
    MetricsScope scope(&metrics);
    for (int64_t i = 0; i < 1000; ++i) shared.AppendValue(i);
  }
  EXPECT_EQ(metrics.Get(CounterId::kBufferCowCopies), 1);
  EXPECT_EQ(v.ssize(), kN);  // original untouched
  EXPECT_EQ(shared.ssize(), kN + 1000);
}

TEST(BufferViewTest, ReservePresizesAndAppendHonorsIt) {
  constexpr int64_t kN = 1 << 16;
  BufferView<int64_t> v;
  v.Reserve(kN);
  const int64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  for (int64_t i = 0; i < kN; ++i) v.AppendValue(i);
  const int64_t grown = g_alloc_bytes.load(std::memory_order_relaxed) - before;
  // Capacity was pre-sized: the append loop itself allocates nothing.
  EXPECT_LT(grown, kBookkeeping);
  ASSERT_EQ(v.ssize(), kN);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[kN - 1], kN - 1);
}

// --- Column / NDArray zero-copy paths -------------------------------------

TEST(BufferSharingTest, ColumnSliceAllocatesNoValueData) {
  Column col = Column::Int64(Iota(kRows));
  const int64_t before = g_alloc_bytes.load();
  Column head = col.Slice(0, 64);
  Column mid = col.Slice(kRows / 2, 1024);
  const int64_t spent = g_alloc_bytes.load() - before;
  EXPECT_LT(spent, kBookkeeping);
  EXPECT_TRUE(head.int64_data().SharesBufferWith(col.int64_data()));
  EXPECT_TRUE(mid.int64_data().SharesBufferWith(col.int64_data()));
  EXPECT_EQ(mid.int64_data()[0], kRows / 2);
}

TEST(BufferSharingTest, NDArraySliceRowsAllocatesNoValueData) {
  std::vector<double> v(kRows);
  std::iota(v.begin(), v.end(), 0.0);
  auto arr = tensor::NDArray::Make(std::move(v), {kRows / 8, 8}).MoveValue();
  const int64_t before = g_alloc_bytes.load();
  auto rows = arr.SliceRows(100, 200);
  const int64_t spent = g_alloc_bytes.load() - before;
  EXPECT_LT(spent, kBookkeeping);
  EXPECT_TRUE(rows.data().SharesBufferWith(arr.data()));
  EXPECT_EQ(rows.rows(), 100);
  EXPECT_EQ(rows.data()[0], 800.0);
}

TEST(BufferSharingTest, AdjacentConcatIsZeroCopy) {
  Column col = Column::Int64(Iota(kRows));
  Column left = col.Slice(0, kRows / 2);
  Column right = col.Slice(kRows / 2, kRows / 2);
  const int64_t before = g_alloc_bytes.load();
  auto joined = Column::Concat({&left, &right});
  const int64_t spent = g_alloc_bytes.load() - before;
  ASSERT_TRUE(joined.ok());
  EXPECT_LT(spent, kBookkeeping);
  EXPECT_TRUE(joined->int64_data().SharesBufferWith(col.int64_data()));
  EXPECT_EQ(joined->length(), kRows);
  EXPECT_EQ(joined->int64_data()[kRows - 1], kRows - 1);
}

TEST(BufferSharingTest, ColumnCopySharesAndMutationUnshares) {
  Column col = Column::Int64(Iota(32));
  Column copy = col;  // shares payload
  ASSERT_TRUE(copy.int64_data().SharesBufferWith(col.int64_data()));
  copy.mutable_int64_data()[0] = -5;  // CoW
  EXPECT_FALSE(copy.int64_data().SharesBufferWith(col.int64_data()));
  EXPECT_EQ(col.int64_data()[0], 0);
  EXPECT_EQ(copy.int64_data()[0], -5);
}

// --- storage accounting ----------------------------------------------------

Config BigConfig(bool spill, int64_t limit) {
  Config c;
  c.num_workers = 1;
  c.bands_per_worker = 2;
  c.band_memory_limit = limit;
  c.enable_spill = spill;
  c.spill_dir = "/tmp/xorbits_buffer_test_spill";
  return c;
}

TEST(StorageSharingTest, SharedBufferChargedOncePerBand) {
  Metrics metrics;
  StorageService store(BigConfig(false, 64 << 20), &metrics);
  Column col = Column::Int64(Iota(kRows));
  ChunkDataPtr c1 =
      MakeChunk(DataFrame::Make({"v"}, {col}).MoveValue());
  ChunkDataPtr c2 =
      MakeChunk(DataFrame::Make({"v"}, {col}).MoveValue());  // same buffer
  ASSERT_TRUE(store.Put("a", c1, 0).ok());
  const int64_t after_first = store.band_used_bytes(0);
  EXPECT_GE(after_first, kRows * 8);
  ASSERT_TRUE(store.Put("b", c2, 0).ok());
  // The 8 MiB value buffer is already resident on band 0, so the second
  // chunk adds only its per-chunk overhead (index labels).
  EXPECT_EQ(store.band_used_bytes(0) - after_first, c2->overhead_nbytes());

  // Dropping one of the two sharers must NOT release the buffer...
  ASSERT_TRUE(store.Delete("b").ok());
  EXPECT_EQ(store.band_used_bytes(0), after_first);
  // ...but dropping the last one does.
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.band_used_bytes(0), 0);
}

TEST(StorageSharingTest, TwoSharersFitWhereTwoCopiesWouldNot) {
  // Band limit holds ~1.5 copies of the payload: with unique-byte
  // accounting both chunks fit; with per-chunk accounting the second Put
  // would OOM (spill is off).
  Metrics metrics;
  StorageService store(BigConfig(false, kRows * 8 * 3 / 2), &metrics);
  Column col = Column::Int64(Iota(kRows));
  ChunkDataPtr c1 = MakeChunk(DataFrame::Make({"v"}, {col}).MoveValue());
  ChunkDataPtr c2 = MakeChunk(DataFrame::Make({"v"}, {col}).MoveValue());
  ASSERT_TRUE(store.Put("a", c1, 0).ok());
  EXPECT_TRUE(store.Put("b", c2, 0).ok());
}

// --- serialize / spill round-trips ----------------------------------------

TEST(SerializeSharingTest, SlicedViewSerializesByteIdenticalToEagerCopy) {
  Column col = Column::Int64(Iota(4096));
  Column sliced = col.Slice(100, 1000);  // window into the big buffer
  Column eager = Column::Int64(sliced.int64_data().ToVector());
  ChunkDataPtr via_view =
      MakeChunk(DataFrame::Make({"v"}, {sliced}).MoveValue());
  ChunkDataPtr via_copy =
      MakeChunk(DataFrame::Make({"v"}, {eager}).MoveValue());
  auto a = services::SerializeChunk(*via_view);
  auto b = services::SerializeChunk(*via_copy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // the wire format sees windows, not buffers
  auto back = services::DeserializeChunk(*a);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->dataframe().column(0).int64_data(),
            sliced.int64_data().ToVector());
}

TEST(SerializeSharingTest, IntraChunkSharingSurvivesRoundTrip) {
  Column col = Column::Int64(Iota(2048));
  // Two columns exposing the same window: the serializer back-references
  // the second payload instead of inlining it twice.
  auto df = DataFrame::Make({"x", "y"}, {col, col}).MoveValue();
  ChunkDataPtr chunk = MakeChunk(std::move(df));
  auto one = MakeChunk(
      DataFrame::Make({"x"}, {col}).MoveValue());
  auto wire = services::SerializeChunk(*chunk);
  auto wire_one = services::SerializeChunk(*one);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(wire_one.ok());
  // Far less than two inline payloads: the second column costs a back-ref.
  EXPECT_LT(wire->size(), wire_one->size() + 256);
  auto back = services::DeserializeChunk(*wire);
  ASSERT_TRUE(back.ok());
  const auto& rdf = (*back)->dataframe();
  EXPECT_TRUE(rdf.column(0).int64_data().SharesBufferWith(
      rdf.column(1).int64_data()));
  EXPECT_EQ((*back)->nbytes(), chunk->nbytes());
}

TEST(StorageSharingTest, SpillRoundTripOfSlicedViewPreservesValues) {
  Metrics metrics;
  // Limit fits one chunk; the second Put forces the first to spill.
  StorageService store(BigConfig(true, kRows * 8 + (64 << 10)), &metrics);
  Column col = Column::Int64(Iota(kRows));
  Column sliced = col.Slice(kRows / 2, kRows / 2);
  ChunkDataPtr c1 =
      MakeChunk(DataFrame::Make({"v"}, {sliced}).MoveValue());
  ChunkDataPtr filler = MakeChunk(
      DataFrame::Make({"v"}, {Column::Int64(Iota(kRows))}).MoveValue());
  ASSERT_TRUE(store.Put("victim", c1, 0).ok());
  ASSERT_TRUE(store.Put("filler", filler, 0).ok());
  EXPECT_GT(metrics.Get(CounterId::kSpillEvents), 0);
  auto got = store.Get("victim", 0);  // faults the spilled chunk back
  ASSERT_TRUE(got.ok()) << got.status();
  const auto& back = (*got)->dataframe().column(0).int64_data();
  ASSERT_EQ(back.ssize(), kRows / 2);
  EXPECT_EQ(back[0], kRows / 2);
  EXPECT_EQ(back[kRows / 2 - 1], kRows - 1);
  store.Clear();
}

// --- measured byte accounting ---------------------------------------------

std::vector<std::string> Words(int64_t n) {
  std::vector<std::string> v(n);
  for (int64_t i = 0; i < n; ++i) v[i] = "value_" + std::to_string(i);
  return v;
}

int64_t StringBytes(const std::string* begin, const std::string* end) {
  int64_t bytes = 0;
  for (const std::string* s = begin; s != end; ++s) {
    bytes += static_cast<int64_t>(s->size()) + common::kItemSizeString;
  }
  return bytes;
}

TEST(BufferAccountingTest, SlicesOfOneStringBufferMeasureItOnce) {
  const std::vector<std::string> words = Words(1 << 16);
  const int64_t whole = StringBytes(words.data(), words.data() + words.size());
  constexpr int64_t kSlice = 1024;

  BufferView<std::string> base(words);
  std::vector<common::BufferRef> refs;
  for (int64_t lo = 0; lo + kSlice <= base.ssize(); lo += kSlice) {
    base.Slice(lo, kSlice).AppendRef(&refs);
  }
  ASSERT_EQ(refs.size(), words.size() / kSlice);
  for (const common::BufferRef& r : refs) {
    EXPECT_EQ(r.buffer_bytes, whole);
    EXPECT_EQ(r.view_bytes, StringBytes(words.data() + r.offset,
                                        words.data() + r.offset + kSlice));
  }
  EXPECT_EQ(base.buffer_measure_count(), 1);

  // The same through columns, chunks and a storage band: every slice chunk
  // is sized and charged, the parent buffer is charged once and measured
  // once.
  Column col = Column::String(words);
  Metrics metrics;
  StorageService store(BigConfig(false, 64 << 20), &metrics);
  int64_t overhead = 0;
  for (int c = 0; c < 8; ++c) {
    ChunkDataPtr chunk = MakeChunk(
        DataFrame::Make({"v"}, {col.Slice(c * kSlice, kSlice)}).MoveValue());
    EXPECT_GT(chunk->nbytes(), 0);
    overhead += chunk->overhead_nbytes();
    ASSERT_TRUE(store.Put("slice" + std::to_string(c), chunk, 0).ok());
  }
  EXPECT_EQ(store.band_used_bytes(0), whole + overhead);
  EXPECT_EQ(col.string_data().buffer_measure_count(), 1);
}

TEST(BufferAccountingTest, WholeViewSizeIsReadFromTheCache) {
  const std::vector<std::string> words = Words(1000);
  const int64_t whole = StringBytes(words.data(), words.data() + words.size());
  BufferView<std::string> v(words);
  for (int rep = 0; rep < 3; ++rep) EXPECT_EQ(v.view_nbytes(), whole);
  EXPECT_EQ(v.buffer_measure_count(), 1);
  // A copy shares the buffer and its cached total; a partial window is
  // still measured over its own strings.
  const BufferView<std::string> copy = v;
  EXPECT_EQ(copy.view_nbytes(), whole);
  EXPECT_EQ(v.Slice(10, 5).view_nbytes(),
            StringBytes(words.data() + 10, words.data() + 15));
  EXPECT_EQ(v.buffer_measure_count(), 1);
  // An in-place mutation drops the cached total.
  v.MutableVec()[0] += "xyz";
  EXPECT_EQ(v.view_nbytes(), whole + 3);
}

TEST(BufferAccountingTest, InPlaceMutationRefreshesBufferBytes) {
  BufferView<std::string> v(Words(100));
  const int64_t before = v.buffer_nbytes();
  EXPECT_EQ(v.buffer_nbytes(), before);
  EXPECT_EQ(v.buffer_measure_count(), 1);

  ASSERT_TRUE(v.unique());
  const uint64_t id = v.buffer_id();
  v.MutableVec().push_back(std::string(1000, 'x'));
  EXPECT_EQ(v.buffer_id(), id);  // grew in place, no copy
  EXPECT_EQ(v.buffer_nbytes(), before + 1000 + common::kItemSizeString);

  v.MutableVec()[0].clear();  // same size, shorter payload
  v.AppendValue("abc");
  EXPECT_EQ(v.buffer_id(), id);
  std::vector<common::BufferRef> refs;
  v.AppendRef(&refs);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].buffer_bytes, StringBytes(v.begin(), v.end()));
}

TEST(BufferAccountingTest, ConcurrentAppendRefIsRaceFree) {
  // Many threads size windows of one shared string buffer at once; the
  // first measure races the others (TSan checks the cached size's handoff).
  const std::vector<std::string> words = Words(1 << 14);
  const int64_t whole = StringBytes(words.data(), words.data() + words.size());
  BufferView<std::string> base(words);
  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const BufferView<std::string> mine = base.Slice(t * 100, 100);
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<common::BufferRef> refs;
        mine.AppendRef(&refs);
        if (refs.size() != 1 || refs[0].buffer_bytes != whole) wrong++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(base.buffer_measure_count(), 1);
  EXPECT_LE(base.buffer_measure_count(), kThreads);
}

// --- stats & concurrency ---------------------------------------------------

TEST(BufferCountersTest, SharingAndCowEventsAreCounted) {
  Metrics metrics;
  MetricsScope scope(&metrics);
  BufferView<int64_t> base(Iota(1024));
  BufferView<int64_t> win = base.Slice(0, 512);
  EXPECT_EQ(metrics.Get(CounterId::kChunkCopiesAvoided), 1);
  EXPECT_EQ(metrics.Get(CounterId::kBufferBytesShared), 512 * 8);
  win.MutableVec()[0] = 1;
  EXPECT_EQ(metrics.Get(CounterId::kBufferCowCopies), 1);
}

TEST(BufferConcurrencyTest, ConcurrentReadersAndCowWritersAreIsolated) {
  // One shared column; half the threads read through their own view, half
  // mutate a private copy. CoW must keep writers from ever touching the
  // shared cell (TSan validates the refcount handoff).
  Column col = Column::Int64(Iota(1 << 14));
  constexpr int kThreads = 8;
  std::atomic<int64_t> read_sum{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Column mine = col;  // shares the buffer
      if (t % 2 == 0) {
        int64_t s = 0;
        for (int64_t v : mine.int64_data()) s += v;
        read_sum.fetch_add(s, std::memory_order_relaxed);
      } else {
        auto& vec = mine.mutable_int64_data();  // CoW -> private
        for (auto& v : vec) v = t;
        if (mine.int64_data().SharesBufferWith(col.int64_data())) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const int64_t n = 1 << 14;
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(read_sum.load(), (kThreads / 2) * (n * (n - 1) / 2));
  EXPECT_EQ(col.int64_data()[0], 0);  // shared cell never written
}

// ---------------------------------------------------------------------------
// Content fingerprints (DESIGN.md §9): the result cache keys an in-memory
// source by content, built from hashes memoized on the immutable buffers.
// ---------------------------------------------------------------------------

/// Rows [lo, hi) of a deterministic frame in fresh buffers: int64, nullable
/// float64 (holding 0.0), bool, plain strings and dictionary strings over a
/// fixed dictionary. Row i's values depend on i only, so rows [a, b) of a
/// larger frame equal MixedFrame(a, b) (index aside).
DataFrame MixedFrame(int64_t lo, int64_t hi) {
  const int64_t n = hi - lo;
  std::vector<int64_t> iv(n);
  std::vector<double> fv(n);
  std::vector<uint8_t> fvalid(n), bv(n);
  std::vector<std::string> sv(n);
  std::vector<int32_t> codes(n);
  for (int64_t k = 0; k < n; ++k) {
    const int64_t i = lo + k;
    iv[k] = i * 7919 % 1000;
    fv[k] = i % 5 == 0 ? 0.0 : static_cast<double>(i) / 8;
    fvalid[k] = i % 11 == 3 ? 0 : 1;
    bv[k] = i % 3 == 0 ? 1 : 0;
    sv[k] = "s" + std::to_string(i % 13);
    codes[k] = static_cast<int32_t>(i % 3);
  }
  return DataFrame::Make(
             {"i", "f", "b", "s", "d"},
             {Column::Int64(std::move(iv)),
              Column::Float64(std::move(fv), std::move(fvalid)),
              Column::Bool(std::move(bv)), Column::String(std::move(sv)),
              Column::Dictionary(
                  BufferView<int32_t>(std::move(codes)),
                  dataframe::StringDict::Make({"ulm", "kiel", "bonn"}))})
      .MoveValue();
}

TEST(ContentFingerprintTest, EqualContentInOtherBuffersFingerprintsEqual) {
  const DataFrame a = MixedFrame(0, 1000);
  const DataFrame b = MixedFrame(0, 1000);
  ASSERT_FALSE(a.column(0).int64_data().SharesBufferWith(
      b.column(0).int64_data()));
  EXPECT_EQ(ContentFingerprint(a), ContentFingerprint(b));
  // A window over a larger frame equals a fresh frame of the same rows
  // (and the same labels): the hash depends on content, not on buffers.
  DataFrame fresh = MixedFrame(100, 600);
  fresh.set_index(dataframe::Index::Range(100, 600));
  EXPECT_EQ(ContentFingerprint(a.SliceRows(100, 500)),
            ContentFingerprint(fresh));

  const tensor::NDArray x =
      tensor::NDArray::Make({1, 2, 3, 4, 5, 6}, {3, 2}).MoveValue();
  const tensor::NDArray y =
      tensor::NDArray::Make({1, 2, 3, 4, 5, 6}, {3, 2}).MoveValue();
  EXPECT_EQ(ContentFingerprint(x), ContentFingerprint(y));
}

TEST(ContentFingerprintTest, EachSingleChangeFingerprintsDifferently) {
  const int64_t n = 200;
  const DataFrame base = MixedFrame(0, n);
  const common::Hash128 fp = ContentFingerprint(base);
  const auto differs = [&](const DataFrame& changed, const char* what) {
    EXPECT_NE(ContentFingerprint(changed), fp) << what;
  };
  {
    DataFrame d = base;
    d.mutable_column(0).mutable_int64_data()[17] ^= 1;
    differs(d, "one value bit");
  }
  {
    DataFrame d = base;
    ASSERT_EQ(d.column(1).float64_data()[5], 0.0);
    d.mutable_column(1).mutable_float64_data()[5] = -0.0;
    differs(d, "0.0 vs -0.0");
  }
  {
    DataFrame d = base;
    d.mutable_column(1).mutable_validity()[7] ^= 1;
    differs(d, "one null bit");
  }
  differs(base.Rename({{"i", "j"}}).MoveValue(), "a column name");
  {
    // Same raw bits (all zero), only the dtype differs.
    const DataFrame ints =
        DataFrame::Make({"z"}, {Column::Int64(std::vector<int64_t>(8, 0))})
            .MoveValue();
    const DataFrame floats =
        DataFrame::Make({"z"}, {Column::Float64(std::vector<double>(8, 0.0))})
            .MoveValue();
    EXPECT_NE(ContentFingerprint(ints), ContentFingerprint(floats))
        << "a dtype";
  }
  {
    DataFrame d = base;
    ASSERT_TRUE(d.SetColumn("s", base.column(3).DictEncode()).ok());
    differs(d, "plain vs dict encoding of the same strings");
  }
  {
    DataFrame d = base;
    const Column& dc = base.column(4);
    ASSERT_TRUE(d.SetColumn("d", Column::Dictionary(
                                     dc.dict_codes(),
                                     dataframe::StringDict::Make(
                                         {"ulm", "kiel", "bonX"})))
                    .ok());
    differs(d, "one dict value");
  }
  {
    DataFrame d = base;
    d.set_index(dataframe::Index::Range(1, n + 1));
    differs(d, "the range-index start");
  }
  {
    std::vector<int64_t> labels(n);
    std::iota(labels.begin(), labels.end(), 0);
    DataFrame with_labels = base;
    with_labels.set_index(dataframe::Index::Labels(labels));
    EXPECT_EQ(ContentFingerprint(with_labels),
              ContentFingerprint(with_labels));
    labels[n / 2] = -1;
    DataFrame d = base;
    d.set_index(dataframe::Index::Labels(labels));
    EXPECT_NE(ContentFingerprint(d), ContentFingerprint(with_labels))
        << "one label";
  }
  {
    const tensor::NDArray a =
        tensor::NDArray::Make({1, 2, 3, 4, 5, 6}, {3, 2}).MoveValue();
    const tensor::NDArray b =
        tensor::NDArray::FromView(a.data(), {2, 3}).MoveValue();
    const tensor::NDArray c =
        tensor::NDArray::FromView(a.data(), {6}).MoveValue();
    EXPECT_NE(ContentFingerprint(a), ContentFingerprint(b));
    EXPECT_NE(ContentFingerprint(a), ContentFingerprint(c));
  }
}

TEST(ContentFingerprintTest, MemoHitHashesNothing) {
  const DataFrame df = MixedFrame(0, 1000);
  int64_t cold = 0;
  const common::Hash128 fp = ContentFingerprint(df, &cold);
  EXPECT_GT(cold, 0);
  int64_t warm = 0;
  EXPECT_EQ(ContentFingerprint(df, &warm), fp);
  EXPECT_EQ(warm, 0);
  // A partial window is hashed, not memoized.
  int64_t window = 0;
  ContentFingerprint(df.SliceRows(1, 10), &window);
  EXPECT_GT(window, 0);
}

TEST(BufferConcurrencyTest, ConcurrentFingerprintsAgreeAndCowResetsTheMemo) {
  // Eight threads fingerprint one shared, never-hashed frame at once: every
  // thread computes or reads the memo, and all must agree (TSan checks the
  // memo's publication).
  const DataFrame shared = MixedFrame(0, 20000);
  constexpr int kThreads = 8;
  std::vector<common::Hash128> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = ContentFingerprint(shared); });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);
  EXPECT_EQ(got[0], ContentFingerprint(MixedFrame(0, 20000)));

  // A CoW write on a copy gives the copy a private buffer and a new
  // fingerprint. The copy now owns that buffer alone, so the next write
  // goes in place, after the buffer was hashed: MutableVec must drop the
  // memo, or the copy would keep the stale fingerprint.
  DataFrame copy = shared;
  copy.mutable_column(0).mutable_int64_data()[0] += 1;
  const common::Hash128 after_cow = ContentFingerprint(copy);
  EXPECT_NE(after_cow, got[0]);
  ASSERT_TRUE(copy.column(0).int64_data().unique());
  copy.mutable_column(0).mutable_int64_data()[1] += 1;
  const common::Hash128 after_in_place = ContentFingerprint(copy);
  EXPECT_NE(after_in_place, after_cow);
  DataFrame expected = MixedFrame(0, 20000);
  auto& ev = expected.mutable_column(0).mutable_int64_data();
  ev[0] += 1;
  ev[1] += 1;
  EXPECT_EQ(after_in_place, ContentFingerprint(expected));
  EXPECT_EQ(ContentFingerprint(shared), got[0]);
}

}  // namespace
}  // namespace xorbits
