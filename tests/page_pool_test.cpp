//===- tests/page_pool_test.cpp - Cross-request page pool -----------------===//
//
// The rt::PagePool invariants: acquire/release/trim bookkeeping,
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

#include <atomic>
#include <thread>
#include <vector>

using namespace rml;
using namespace rml::rt;

namespace {

PagePool::PageBuffer standardBuffer() {
  return PagePool::allocatePage();
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
  PagePool::PageBuffer Buf = standardBuffer();
  const uint64_t *Raw = Buf.get();
  Pool.release(std::move(Buf));
  EXPECT_EQ(Pool.freePages(), 1u);

  PagePool::PageBuffer Again = Pool.acquire();
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(Again.get(), Raw); // same thread => same shard => same page
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
    Pool.release(standardBuffer());
  EXPECT_EQ(Pool.freePages(), 4u); // never exceeds the bound
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.Releases, 4u); // accepted
  EXPECT_EQ(S.Trims, 2u);    // dropped over capacity
  EXPECT_EQ(S.Capacity, 4u);
}

TEST(PagePoolTest, TrimFreesEverything) {
  PagePool Pool(8);
  for (int I = 0; I < 5; ++I)
    Pool.release(standardBuffer());
  ASSERT_EQ(Pool.freePages(), 5u);
  Pool.trim();
  EXPECT_EQ(Pool.freePages(), 0u);
  EXPECT_EQ(Pool.stats().Trims, 5u);
  EXPECT_EQ(Pool.acquire(), nullptr); // empty again
}

TEST(PagePoolTest, CountersStayConsistentUnderMixedTraffic) {
  PagePool Pool(16);
  uint64_t Hits = 0, Misses = 0, Releases = 0;
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 4; ++I) {
      Pool.release(standardBuffer());
      ++Releases;
    }
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
}

TEST(PagePoolTest, HomeShardTrafficNeverTakesTheMutex) {
  // The v2 contract: same-thread release/acquire pairs ride the
  // lock-free home-shard fast path; the pool's one mutex is reserved
  // for steal scans and trims.
  PagePool Pool(16);
  for (int I = 0; I < 8; ++I)
    Pool.release(standardBuffer());
  for (int I = 0; I < 8; ++I)
    EXPECT_NE(Pool.acquire(), nullptr);
  EXPECT_EQ(Pool.stats().LockAcquires, 0u);
  EXPECT_EQ(Pool.stats().Steals, 0u);
}

TEST(PagePoolTest, AcquireStealsFromOtherShardsBeforeMissing) {
  // A release lands on the releasing thread's home shard (its thread-id
  // hash modulo NumShards). Sixteen live helper threads release one page
  // each, so pages sit on several shards; every acquire on this thread
  // must hit, and the pages off its home shard are served by steal
  // scans, each of which takes the mutex. Keeping the helpers alive
  // until all have released keeps their thread ids distinct.
  constexpr size_t Helpers = 16;
  PagePool Pool(Helpers);
  std::atomic<size_t> Released{0};
  std::vector<std::thread> Ts;
  for (size_t I = 0; I < Helpers; ++I)
    Ts.emplace_back([&] {
      Pool.release(standardBuffer());
      Released.fetch_add(1);
      while (Released.load() < Helpers)
        std::this_thread::yield();
    });
  for (std::thread &T : Ts)
    T.join();
  ASSERT_EQ(Pool.freePages(), Helpers);
  for (size_t I = 0; I < Helpers; ++I)
    EXPECT_NE(Pool.acquire(), nullptr) << "page " << I;
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.AcquireHits, Helpers);
  EXPECT_EQ(S.AcquireMisses, 0u); // nothing missed while pages remained
  EXPECT_GT(S.Steals, 0u);
  EXPECT_GT(S.LockAcquires, 0u);
  EXPECT_EQ(S.FreePages, 0u);
}

TEST(PagePoolTest, AcquireManyOnEmptyPoolCountsOneMissPerSlot) {
  PagePool Pool(8);
  std::vector<PagePool::PageBuffer> Out;
  EXPECT_EQ(Pool.acquireMany(Out, 5), 0u);
  EXPECT_TRUE(Out.empty());
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.BatchAcquires, 1u);
  EXPECT_EQ(S.AcquireMisses, 5u); // reuse ratio means the same batched
  EXPECT_EQ(S.AcquireHits, 0u);
}

TEST(PagePoolTest, BatchReleaseThenBatchAcquireRoundTrips) {
  PagePool Pool(16);
  std::vector<PagePool::PageBuffer> Bufs;
  for (int I = 0; I < 6; ++I)
    Bufs.push_back(standardBuffer());
  Pool.releaseMany(std::move(Bufs));
  PagePoolStats S0 = Pool.stats();
  EXPECT_EQ(S0.BatchReleases, 1u);
  EXPECT_EQ(S0.Releases, 6u); // accounted page-by-page
  EXPECT_EQ(S0.FreePages, 6u);

  std::vector<PagePool::PageBuffer> Out;
  EXPECT_EQ(Pool.acquireMany(Out, 6), 6u);
  ASSERT_EQ(Out.size(), 6u);
  for (const auto &B : Out)
    EXPECT_NE(B, nullptr);
  PagePoolStats S1 = Pool.stats();
  EXPECT_EQ(S1.AcquireHits, 6u);
  EXPECT_EQ(S1.AcquireMisses, 0u);
  EXPECT_EQ(S1.FreePages, 0u);
  // Same thread, same home shard: the whole round trip is lock-free.
  EXPECT_EQ(S1.LockAcquires, 0u);
}

TEST(PagePoolTest, BatchReleaseRespectsTheCapacityBound) {
  PagePool Pool(4);
  std::vector<PagePool::PageBuffer> Bufs;
  for (int I = 0; I < 7; ++I)
    Bufs.push_back(standardBuffer());
  Pool.releaseMany(std::move(Bufs));
  EXPECT_EQ(Pool.freePages(), 4u);
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.Releases, 4u);
  EXPECT_EQ(S.Trims, 3u); // the overflow was freed, exactly as release()
}

TEST(PagePoolTest, AcquireManyPartialFillCountsTheShortfallAsMisses) {
  PagePool Pool(16);
  std::vector<PagePool::PageBuffer> Bufs;
  for (int I = 0; I < 3; ++I)
    Bufs.push_back(standardBuffer());
  Pool.releaseMany(std::move(Bufs));

  std::vector<PagePool::PageBuffer> Out;
  EXPECT_EQ(Pool.acquireMany(Out, 5), 3u);
  EXPECT_EQ(Out.size(), 3u);
  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.AcquireHits, 3u);
  EXPECT_EQ(S.AcquireMisses, 2u); // the caller allocates these fresh
}

TEST(PagePoolTest, ConcurrentTrimNeverLosesOrDoublesAPage) {
  // Trim storms against acquire/release traffic: the invariant checked
  // is conservation — every page that entered the pool left exactly
  // once (acquired or trimmed) or is still free at the end.
  PagePool Pool(64);
  std::atomic<bool> Stop{false};
  std::thread Trimmer([&] {
    while (!Stop.load(std::memory_order_relaxed))
      Pool.trim();
  });
  std::vector<std::thread> Workers;
  for (int T = 0; T < 4; ++T)
    Workers.emplace_back([&] {
      for (int I = 0; I < 2000; ++I) {
        Pool.release(standardBuffer());
        auto P = Pool.acquire(); // may hit or miss under the storm
      }
    });
  for (std::thread &W : Workers)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Trimmer.join();

  PagePoolStats S = Pool.stats();
  EXPECT_EQ(S.Releases,
            S.AcquireHits + (S.Trims - (8000 - S.Releases)) + S.FreePages)
      << "pages in != pages out (trims over capacity excluded)";
  EXPECT_LE(S.FreePages, Pool.capacity());
}

//===----------------------------------------------------------------------===//
// RegionHeap integration.
//===----------------------------------------------------------------------===//

TEST(PagePoolTest, HeapTeardownUsesOneBatchRelease) {
  PagePool Pool(64);
  {
    RegionHeap Heap;
    Heap.SharedPool = &Pool;
    uint32_t R = Heap.create(1, RegionKind::Mixed);
    for (int I = 0; I < 4; ++I)
      Heap.alloc(R, RegionHeap::PageWords);
    Heap.release(R);
  }
  PagePoolStats S = Pool.stats();
  EXPECT_GE(S.Releases, 4u);
  EXPECT_EQ(S.BatchReleases, 1u); // one shard touch per heap, not per page
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
    Heap.release(R);
    Heap.release(F);
  }
  // Neither the oversized nor the finite block entered the pool.
  EXPECT_EQ(Pool.freePages(), 0u);
  EXPECT_EQ(Pool.stats().Releases, 0u);
}

TEST(PagePoolTest, RetainReleasedPagesQuarantinesThePool) {
  PagePool Pool(64);
  // Seed the pool so a (wrongly) drawing heap would hit.
  Pool.release(standardBuffer());
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
