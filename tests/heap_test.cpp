//===- tests/heap_test.cpp - Region heap unit tests -----------------------===//

#include "rt/Region.h"

#include <gtest/gtest.h>

#include <vector>

using namespace rml;
using namespace rml::rt;

namespace {

TEST(Heap, GlobalRegionExists) {
  RegionHeap H;
  ASSERT_EQ(H.numRegions(), 1u);
  EXPECT_EQ(H.depth(), 1u);
  EXPECT_TRUE(H.live(0));
  EXPECT_EQ(H.region(0).StaticId, 0u);
}

TEST(Heap, CreateAllocRelease) {
  RegionHeap H;
  uint32_t R = H.create(5, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 3);
  ASSERT_NE(P, nullptr);
  P[0] = 1;
  P[1] = 2;
  P[2] = 3;
  EXPECT_EQ(H.Stats.AllocWords, 3u);
  EXPECT_TRUE(H.live(R));
  H.release(R);
  EXPECT_FALSE(H.live(R));
}

TEST(Heap, OwnerOfResolvesLivePointers) {
  RegionHeap H;
  uint32_t R1 = H.create(1, RegionKind::Mixed, 0);
  uint32_t R2 = H.create(2, RegionKind::Mixed, 0);
  uint64_t *P1 = H.alloc(R1, 2);
  uint64_t *P2 = H.alloc(R2, 2);
  EXPECT_EQ(H.ownerOf(P1), std::optional<uint32_t>(R1));
  EXPECT_EQ(H.ownerOf(P2), std::optional<uint32_t>(R2));
  EXPECT_EQ(H.ownerOf(P1 + 1), std::optional<uint32_t>(R1));
  uint64_t Local = 0;
  EXPECT_EQ(H.ownerOf(&Local), std::nullopt);
}

TEST(Heap, ReleasedPointersBecomeUnknown) {
  RegionHeap H;
  uint32_t R = H.create(7, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 2);
  H.release(R);
  EXPECT_EQ(H.ownerOf(P), std::nullopt);
}

TEST(Heap, GraveyardIdentifiesDanglingTargets) {
  RegionHeap H;
  H.RetainReleasedPages = true;
  uint32_t R = H.create(9, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 2);
  H.release(R);
  EXPECT_EQ(H.ownerOf(P), std::nullopt);
  // The graveyard remembers the *static* region id for diagnostics.
  EXPECT_EQ(H.graveyardOwnerOf(P), std::optional<uint32_t>(9));
}

TEST(Heap, MultiplePagesGrow) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  for (int I = 0; I < 1000; ++I)
    H.alloc(R, 3); // 3000 words > one 256-word page
  EXPECT_GT(H.numPages(R), 1u);
  EXPECT_EQ(H.Stats.AllocWords, 3000u);
}

TEST(Heap, LargeObjectsGetOversizePages) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 5000);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.ownerOf(P + 4999), std::optional<uint32_t>(R));
}

TEST(Heap, PoolReusesStandardPages) {
  RegionHeap H;
  uint32_t R1 = H.create(1, RegionKind::Mixed, 0);
  H.alloc(R1, 8);
  uint64_t Pages = H.Stats.PagesAllocated;
  H.release(R1);
  uint32_t R2 = H.create(2, RegionKind::Mixed, 0);
  H.alloc(R2, 8);
  EXPECT_EQ(H.Stats.PagesAllocated, Pages); // reused from the pool
}

TEST(Heap, FiniteRegionsUseExactBlocks) {
  RegionHeap H;
  uint64_t Before = H.Stats.CurrentHeapWords;
  uint32_t R = H.create(3, RegionKind::Pair, /*FiniteWords=*/2);
  EXPECT_EQ(H.Stats.CurrentHeapWords - Before, 2u);
  EXPECT_EQ(H.Stats.FiniteRegionsCreated, 1u);
  uint64_t *P = H.alloc(R, 2);
  ASSERT_NE(P, nullptr);
  H.release(R);
  std::vector<RegionProfile> Profiles = H.profiles();
  ASSERT_EQ(Profiles.size(), 1u);
  EXPECT_TRUE(Profiles[0].Finite);
}

TEST(Heap, PeakTracksHighWaterMark) {
  RegionHeap H;
  uint32_t R1 = H.create(1, RegionKind::Mixed, 0);
  H.alloc(R1, 100);
  uint64_t Peak1 = H.Stats.PeakHeapWords;
  H.release(R1);
  EXPECT_EQ(H.Stats.PeakHeapWords, Peak1);
  EXPECT_LT(H.Stats.CurrentHeapWords, Peak1);
}

TEST(Heap, RegionKindsStored) {
  RegionHeap H;
  uint32_t R = H.create(4, RegionKind::Cons, 0);
  EXPECT_EQ(H.region(R).Kind, RegionKind::Cons);
}

TEST(Heap, AllocSinceGcAccumulates) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  H.alloc(R, 10);
  H.alloc(R, 5);
  EXPECT_EQ(H.allocSinceGc(), 15u);
  H.resetAllocSinceGc();
  EXPECT_EQ(H.allocSinceGc(), 0u);
}

//===----------------------------------------------------------------------===//
// Page-table contract: every word of a mapped page resolves to its region
// in O(1), whatever the page's size or alignment.
//===----------------------------------------------------------------------===//

/// Expects [First, First + Words) to resolve to \p R, and the word one
/// past the end not to.
void expectResolvesExactly(const RegionHeap &H, const uint64_t *First,
                           size_t Words, uint32_t R) {
  EXPECT_EQ(H.ownerOf(First), std::optional<uint32_t>(R));
  EXPECT_EQ(H.ownerOf(First + Words - 1), std::optional<uint32_t>(R));
  EXPECT_EQ(H.ownerOf(First + Words), std::nullopt);
}

TEST(HeapPageTable, StandardPageBoundsResolve) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R, 1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % (RegionHeap::PageWords * 8), 0u)
      << "standard pages are chunk-aligned";
  EXPECT_EQ(H.ownerOf(P - 1), std::nullopt);
  expectResolvesExactly(H, P, RegionHeap::PageWords, R);
}

TEST(HeapPageTable, OversizedPageBoundsResolve) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  const size_t Words = 5 * RegionHeap::PageWords + 3;
  uint64_t *P = H.alloc(R, Words);
  EXPECT_EQ(H.ownerOf(P - 1), std::nullopt);
  expectResolvesExactly(H, P, Words, R);
  // Every chunk the page spans resolves, not only its ends.
  for (size_t I = 0; I < Words; I += RegionHeap::PageWords / 2)
    EXPECT_EQ(H.ownerOf(P + I), std::optional<uint32_t>(R)) << I;
}

TEST(HeapPageTable, FiniteBlockBoundsResolve) {
  RegionHeap H;
  uint32_t R = H.create(1, RegionKind::Mixed, /*FiniteWords=*/3);
  uint64_t *P = H.alloc(R, 3);
  EXPECT_EQ(H.ownerOf(P - 1), std::nullopt);
  expectResolvesExactly(H, P, 3, R);
}

TEST(HeapPageTable, FiniteBlocksSharingAChunkResolveToTheirOwnRegions) {
  RegionHeap H;
  std::vector<std::pair<uint32_t, uint64_t *>> Blocks;
  for (uint32_t I = 0; I < 64; ++I) {
    uint32_t R = H.create(100 + I, RegionKind::Pair, /*FiniteWords=*/2);
    Blocks.emplace_back(R, H.alloc(R, 2));
  }
  size_t Sharing = 0;
  for (size_t I = 0; I < Blocks.size(); ++I) {
    const auto &[R, P] = Blocks[I];
    EXPECT_EQ(H.ownerOf(P), std::optional<uint32_t>(R));
    EXPECT_EQ(H.ownerOf(P + 1), std::optional<uint32_t>(R));
    for (size_t J = 0; J < I; ++J)
      if (reinterpret_cast<uintptr_t>(Blocks[J].second) >>
              RegionHeap::ChunkShift ==
          reinterpret_cast<uintptr_t>(P) >> RegionHeap::ChunkShift)
        ++Sharing;
  }
  // 64 two-word blocks cannot all sit in distinct 2 KiB chunks.
  EXPECT_GT(Sharing, 0u);
  // Releasing the top half leaves its chunk-mates resolvable.
  const size_t Half = Blocks.size() / 2;
  for (size_t I = Blocks.size(); I-- > Half;)
    H.release(Blocks[I].first);
  for (size_t I = 0; I < Blocks.size(); ++I)
    EXPECT_EQ(H.ownerOf(Blocks[I].second),
              I < Half ? std::optional<uint32_t>(Blocks[I].first)
                       : std::nullopt);
}

TEST(HeapPageTable, ReusedPageResolvesToItsNewRegionAndIsYoung) {
  RegionHeap H;
  uint32_t R1 = H.create(1, RegionKind::Mixed, 0);
  uint64_t *P = H.alloc(R1, 4);
  H.sealLivePages();
  ASSERT_TRUE(H.isOldAddr(P));
  H.release(R1);
  EXPECT_EQ(H.ownerOf(P), std::nullopt);
  EXPECT_FALSE(H.isOldAddr(P));

  uint32_t R2 = H.create(2, RegionKind::Mixed, 0);
  uint64_t *Q = H.alloc(R2, 4);
  ASSERT_EQ(Q, P) << "the local free list hands the page back";
  EXPECT_EQ(H.ownerOf(Q), std::optional<uint32_t>(R2));
  EXPECT_FALSE(H.isOldAddr(Q));
}

TEST(HeapPageTable, RetainedPagesAreKnownOnlyToTheGraveyard) {
  RegionHeap H;
  H.RetainReleasedPages = true;
  uint32_t Std = H.create(11, RegionKind::Mixed, 0);
  uint32_t Big = H.create(12, RegionKind::Mixed, 0);
  uint32_t Fin = H.create(13, RegionKind::Mixed, /*FiniteWords=*/5);
  const size_t BigWords = 3 * RegionHeap::PageWords;
  struct Span {
    uint32_t Region, StaticId;
    uint64_t *First;
    size_t Words;
  } Spans[] = {{Std, 11, H.alloc(Std, 1), RegionHeap::PageWords},
               {Big, 12, H.alloc(Big, BigWords), BigWords},
               {Fin, 13, H.alloc(Fin, 5), 5}};
  for (size_t I = std::size(Spans); I-- > 0;)
    H.release(Spans[I].Region);
  for (const Span &S : Spans) {
    for (const uint64_t *P : {S.First, S.First + S.Words - 1}) {
      EXPECT_EQ(H.ownerOf(P), std::nullopt) << S.StaticId;
      EXPECT_EQ(H.graveyardOwnerOf(P), std::optional<uint32_t>(S.StaticId));
    }
  }
  // Nothing is recycled: a new region gets a fresh page.
  uint32_t R = H.create(14, RegionKind::Mixed, 0);
  EXPECT_NE(H.alloc(R, 1), Spans[0].First);
}

TEST(HeapPageTable, ManyPagesSurviveGrowthAndDeletion) {
  // Enough pages to grow the table several times (finite blocks first,
  // so that many share chunks and so table keys), then unmap the top
  // half: the survivors must all still resolve.
  RegionHeap H;
  std::vector<std::pair<uint32_t, std::vector<uint64_t *>>> Regions;
  for (uint32_t I = 0; I < 300; ++I) {
    const bool Finite = I < 100;
    uint32_t R = H.create(I + 1, RegionKind::Mixed, Finite ? 7 : 0);
    std::vector<uint64_t *> Ptrs;
    if (Finite) {
      Ptrs.push_back(H.alloc(R, 7));
    } else {
      for (int K = 0; K < 3; ++K)
        Ptrs.push_back(H.alloc(R, RegionHeap::PageWords - 1));
      Ptrs.push_back(H.alloc(R, 2 * RegionHeap::PageWords));
    }
    Regions.emplace_back(R, std::move(Ptrs));
  }
  const size_t Half = Regions.size() / 2;
  for (size_t I = Regions.size(); I-- > Half;)
    H.release(Regions[I].first);
  for (size_t I = 0; I < Regions.size(); ++I)
    for (uint64_t *P : Regions[I].second)
      EXPECT_EQ(H.ownerOf(P),
                I < Half ? std::optional<uint32_t>(Regions[I].first)
                         : std::nullopt);
}

//===----------------------------------------------------------------------===//
// Region stack: letregion is LIFO, so the table holds the deepest nesting
// and a released slot is reused under a fresh generation.
//===----------------------------------------------------------------------===//

TEST(HeapStack, MillionLetregionsKeepTheTableAtMaxDepth) {
  RegionHeap H;
  uint32_t Stack[3];
  uint64_t Pairs = 0;
  for (uint32_t I = 0; Pairs < 1'000'000; ++I) {
    const uint32_t Nest = 1 + I % 3;
    for (uint32_t D = 0; D < Nest; ++D) {
      Stack[D] = H.create(D + 1, RegionKind::Mixed, 0);
      H.alloc(Stack[D], 2);
    }
    for (uint32_t D = Nest; D-- > 0;)
      H.release(Stack[D]);
    Pairs += Nest;
  }
  EXPECT_EQ(H.depth(), 1u);
  EXPECT_LE(H.numRegions(), 4u);
  EXPECT_EQ(H.Stats.RegionsCreated, 1 + Pairs);
}

TEST(HeapStack, AReusedSlotGetsAFreshHandle) {
  RegionHeap H;
  uint32_t Stale = H.create(1, RegionKind::Mixed, 0);
  H.release(Stale);
  uint32_t Fresh = H.create(2, RegionKind::Mixed, 0);
  EXPECT_EQ(Fresh & RegionHeap::IndexMask, Stale & RegionHeap::IndexMask)
      << "the same stack slot";
  EXPECT_NE(Fresh, Stale);
  EXPECT_FALSE(H.live(Stale));
  EXPECT_TRUE(H.live(Fresh));
  EXPECT_EQ(H.numRegions(), 2u);
}

} // namespace
