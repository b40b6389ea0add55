//===- tests/page_pool_test.cpp - Cross-request page pool -----------------===//
//
// The rt::PagePool invariants: acquire/releaseMany bookkeeping,
// capacity bounding, the oversized-page bypass, and the quarantine
// that keeps pooling and RetainReleasedPages exact dangling detection
// mutually exclusive. Labelled `pool` in ctest and expected to be
// clean under -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "rt/PagePool.h"

#include "bench/Programs.h"
#include "core/Pipeline.h"
#include "rt/Region.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace rml;
using namespace rml::rt;

namespace {

/// \p N fresh standard page buffers, ready for one releaseMany.
std::vector<PagePool::PageBuffer> standardBuffers(size_t N) {
  std::vector<PagePool::PageBuffer> Bufs;
  for (size_t I = 0; I < N; ++I)
    Bufs.push_back(PagePool::allocatePage());
  return Bufs;
}

//===----------------------------------------------------------------------===//
// Pool-only invariants.
//===----------------------------------------------------------------------===//

TEST(PagePoolTest, AcquireOnEmptyPoolMisses) {
  PagePool Pool(8);
  EXPECT_EQ(Pool.acquire(), nullptr);
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.AcquireHits, 0u);
  EXPECT_EQ(S.AcquireMisses, 1u);
  EXPECT_EQ(S.FreePages, 0u);
  EXPECT_EQ(S.reuseRatio(), 0.0);
}

TEST(PagePoolTest, ReleaseThenAcquireReturnsTheSameBuffer) {
  PagePool Pool(8);
  std::vector<PagePool::PageBuffer> Bufs = standardBuffers(1);
  const uint64_t *Raw = Bufs[0].get();
  Pool.releaseMany(std::move(Bufs));
  EXPECT_EQ(Pool.freePages(), 1u);

  PagePool::PageBuffer Again = Pool.acquire();
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(Again.get(), Raw);
  EXPECT_EQ(Pool.freePages(), 0u);

  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.AcquireHits, 1u);
  EXPECT_EQ(S.AcquireMisses, 0u);
  EXPECT_EQ(S.Releases, 1u);
  EXPECT_EQ(S.reuseRatio(), 1.0);
}

TEST(PagePoolTest, CapacityBoundsTheTotalAndCountsTrims) {
  PagePool Pool(4);
  for (int I = 0; I < 6; ++I)
    Pool.releaseMany(standardBuffers(1));
  EXPECT_EQ(Pool.freePages(), 4u); // never exceeds the bound
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.Releases, 4u); // accepted
  EXPECT_EQ(S.Trims, 2u);    // dropped over capacity
  EXPECT_EQ(S.Capacity, 4u);
}

TEST(PagePoolTest, CountersStayConsistentUnderMixedTraffic) {
  PagePool Pool(16);
  uint64_t Hits = 0, Misses = 0, Releases = 0;
  for (int Round = 0; Round < 3; ++Round) {
    Pool.releaseMany(standardBuffers(4));
    Releases += 4;
    for (int I = 0; I < 6; ++I) {
      if (Pool.acquire())
        ++Hits;
      else
        ++Misses;
    }
  }
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.AcquireHits, Hits);
  EXPECT_EQ(S.AcquireMisses, Misses);
  EXPECT_EQ(S.Releases, Releases);
  EXPECT_EQ(S.FreePages, Releases - Hits);
  EXPECT_EQ(S.AcquireHits + S.AcquireMisses, 18u);
  // One lock per acquire and per releaseMany; nothing is ever stolen.
  EXPECT_EQ(S.LockAcquires, 18u + 3u);
  EXPECT_EQ(S.Steals, 0u);
}

TEST(PagePoolTest, BatchReleaseThenBatchAcquireRoundTrips) {
  PagePool Pool(16);
  Pool.releaseMany(standardBuffers(6));
  PagePoolStats S0 = Pool.stats();
  EXPECT_EQ(S0.LockAcquires, 1u); // one hand-off for the whole batch
  EXPECT_EQ(S0.Releases, 6u);     // accounted page-by-page
  EXPECT_EQ(S0.FreePages, 6u);

  for (int I = 0; I < 6; ++I)
    EXPECT_NE(Pool.acquire(), nullptr) << "page " << I;
  PagePoolStats S1 = Pool.stats();
  EXPECT_EQ(S1.AcquireHits, 6u);
  EXPECT_EQ(S1.AcquireMisses, 0u);
  EXPECT_EQ(S1.FreePages, 0u);
  EXPECT_EQ(S1.LockAcquires, 1u + 6u);
}

TEST(PagePoolTest, BatchReleaseRespectsTheCapacityBound) {
  PagePool Pool(4);
  Pool.releaseMany(standardBuffers(7));
  EXPECT_EQ(Pool.freePages(), 4u);
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.Releases, 4u);
  EXPECT_EQ(S.Trims, 3u); // the overflow was freed
}

TEST(PagePoolTest, ConcurrentTrafficNeverLosesOrDoublesAPage) {
  // Four threads hand batches over and draw pages back, together
  // releasing far more than the capacity: conservation must hold —
  // every accepted page was acquired exactly once or is still free —
  // and the bound must never be crossed.
  constexpr int Threads = 4, Rounds = 500, Batch = 8;
  PagePool Pool(16);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      for (int I = 0; I < Rounds; ++I) {
        Pool.releaseMany(standardBuffers(Batch));
        for (int J = 0; J < Batch / 2; ++J)
          Pool.acquire(); // may hit or miss; the page is freed at once
        EXPECT_LE(Pool.freePages(), Pool.capacity());
      }
    });
  for (std::thread &W : Workers)
    W.join();

  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.Releases, S.AcquireHits + S.FreePages)
      << "pages in != pages out";
  EXPECT_EQ(S.Releases + S.Trims, uint64_t{Threads} * Rounds * Batch);
  EXPECT_GT(S.Trims, 0u); // the traffic did run past the capacity
  EXPECT_LE(S.FreePages, Pool.capacity());
}

//===----------------------------------------------------------------------===//
// RegionHeap integration.
//===----------------------------------------------------------------------===//

TEST(PagePoolTest, HeapTeardownUsesOneBatchRelease) {
  PagePool Pool(64);
  uint64_t Locks = 0;
  {
    RegionHeap Heap;
    Heap.SharedPool = &Pool;
    uint32_t R = Heap.create(1, RegionKind::Mixed);
    for (int I = 0; I < 4; ++I)
      Heap.alloc(R, RegionHeap::PageWords);
    Heap.release(R);
    Locks = Pool.stats().LockAcquires;
  }
  PagePoolStats S = Pool.stats();
  EXPECT_GE(S.Releases, 4u);
  EXPECT_EQ(S.LockAcquires - Locks, 1u); // one lock per heap, not per page
}

TEST(PagePoolTest, HeapRecyclesStandardPagesAcrossHeaps) {
  PagePool Pool(64);
  {
    RegionHeap Heap;
    Heap.SharedPool = &Pool;
    uint32_t R = Heap.create(1, RegionKind::Mixed);
    for (int I = 0; I < 4; ++I)
      Heap.alloc(R, RegionHeap::PageWords); // one fresh page each
    EXPECT_GE(Heap.Stats.PagesAllocated, 4u);
    EXPECT_EQ(Heap.Stats.PagesFromSharedPool, 0u); // pool was empty
    Heap.release(R);
    // Released pages sit on the heap-local free list until teardown.
    EXPECT_EQ(Pool.freePages(), 0u);
  }
  // Heap destruction flushed the standard pages into the shared pool.
  EXPECT_GE(Pool.freePages(), 4u);

  RegionHeap Next;
  Next.SharedPool = &Pool;
  uint32_t R = Next.create(1, RegionKind::Mixed);
  for (int I = 0; I < 4; ++I)
    Next.alloc(R, RegionHeap::PageWords);
  EXPECT_EQ(Next.Stats.PagesFromSharedPool, 4u); // all demand reused
  EXPECT_EQ(Next.Stats.PagesAllocated, 0u);
  EXPECT_GT(Pool.stats().AcquireHits, 0u);
}

TEST(PagePoolTest, OversizedPagesBypassThePool) {
  PagePool Pool(64);
  {
    RegionHeap Heap;
    Heap.SharedPool = &Pool;
    uint32_t R = Heap.create(1, RegionKind::Mixed);
    // An allocation larger than a standard page gets an exact-size
    // oversized page; a finite region gets an exact-size small block.
    Heap.alloc(R, 4 * RegionHeap::PageWords);
    uint32_t F = Heap.create(2, RegionKind::Pair, /*FiniteWords=*/4);
    Heap.release(F);
    Heap.release(R);
  }
  // Neither the oversized nor the finite block entered the pool.
  EXPECT_EQ(Pool.freePages(), 0u);
  EXPECT_EQ(Pool.stats().Releases, 0u);
}

TEST(PagePoolTest, RetainReleasedPagesQuarantinesThePool) {
  PagePool Pool(64);
  // Seed the pool so a (wrongly) drawing heap would hit.
  Pool.releaseMany(standardBuffers(1));
  uint64_t SeedHits = Pool.stats().AcquireHits;
  {
    RegionHeap Heap;
    Heap.RetainReleasedPages = true;
    Heap.SharedPool = &Pool;
    uint32_t R = Heap.create(7, RegionKind::Mixed);
    uint64_t *P = Heap.alloc(R, 8);
    Heap.release(R);
    // Exact detection still attributes the released page to r7...
    std::optional<uint32_t> Grave = Heap.graveyardOwnerOf(P);
    ASSERT_TRUE(Grave.has_value());
    EXPECT_EQ(*Grave, 7u);
  }
  // ...and the pool saw no traffic from the detecting heap: no page
  // drawn (the seeded one is still there), none recycled at teardown.
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.AcquireHits, SeedHits);
  EXPECT_EQ(S.Releases, 1u); // only the seed
  EXPECT_EQ(Pool.freePages(), 1u);
}

//===----------------------------------------------------------------------===//
// Through the pipeline.
//===----------------------------------------------------------------------===//

TEST(PagePoolTest, PooledRunsAreBitIdenticalToFreshHeapRuns) {
  const bench::BenchProgram *P = bench::findBenchmark("nrev");
  ASSERT_NE(P, nullptr);
  Compiler C;
  auto Unit = C.compile(P->Source);
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();

  rt::EvalOptions Fresh;
  Fresh.GcThresholdWords = 2048; // force collections
  rt::RunResult Base = C.run(*Unit, Fresh);
  ASSERT_EQ(Base.Outcome, rt::RunOutcome::Ok) << Base.Error;
  ASSERT_GT(Base.Heap.GcCount, 0u);

  PagePool Pool(256);
  for (int Rep = 0; Rep < 3; ++Rep) {
    rt::EvalOptions Pooled = Fresh;
    Pooled.SharedPool = &Pool;
    rt::RunResult R = C.run(*Unit, Pooled);
    ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
    EXPECT_EQ(R.ResultText, Base.ResultText) << "rep " << Rep;
    EXPECT_EQ(R.Output, Base.Output) << "rep " << Rep;
    EXPECT_EQ(R.Heap.AllocWords, Base.Heap.AllocWords) << "rep " << Rep;
    EXPECT_EQ(R.Heap.GcCount, Base.Heap.GcCount) << "rep " << Rep;
    EXPECT_EQ(R.Steps, Base.Steps) << "rep " << Rep;
  }
  // The warm repetitions drew their pages from the pool.
  EXPECT_GT(Pool.stats().AcquireHits, 0u);
  EXPECT_LE(Pool.freePages(), Pool.capacity());
}

TEST(PagePoolTest, DanglingDetectionWinsOverThePoolThroughRun) {
  Compiler C;
  CompileOptions Opts;
  Opts.Strat = Strategy::RgMinus;
  auto Unit = C.compile(bench::danglingPointerProgram(), Opts);
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();

  PagePool Pool(64);
  rt::EvalOptions E;
  E.GcThresholdWords = 2048;
  E.RetainReleasedPages = true; // exact detection requested...
  E.SharedPool = &Pool;         // ...and a pool offered
  rt::RunResult R = C.run(*Unit, E);
  // The paper's crash is still reported exactly, and the pool was
  // quarantined for the whole run.
  EXPECT_EQ(R.Outcome, rt::RunOutcome::DanglingPointer) << R.Error;
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.AcquireHits + S.AcquireMisses, 0u);
  EXPECT_EQ(S.Releases, 0u);
  EXPECT_EQ(Pool.freePages(), 0u);
}

} // namespace
