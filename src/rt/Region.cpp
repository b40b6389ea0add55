//===- rt/Region.cpp ------------------------------------------------------===//

#include "rt/Region.h"

#include "rt/PagePool.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

using namespace rml;
using namespace rml::rt;

namespace {

/// Pages of at least a standard page are chunk-aligned, so a standard
/// page owns exactly one page-table chunk (and can come from or go to
/// the shared pool); smaller finite-region blocks keep their exact-size
/// allocation. Fresh memory is zeroed.
uint64_t *allocateWords(size_t CapWords) {
  if (CapWords < RegionHeap::PageWords)
    return new uint64_t[CapWords]();
  void *Mem = ::operator new[](CapWords * sizeof(uint64_t),
                               std::align_val_t(PagePool::PageBytes));
  std::memset(Mem, 0, CapWords * sizeof(uint64_t));
  return static_cast<uint64_t *>(Mem);
}

void freeWords(uint64_t *Words, size_t CapWords) {
  if (CapWords < RegionHeap::PageWords)
    delete[] Words;
  else
    ::operator delete[](Words, std::align_val_t(PagePool::PageBytes));
}

} // namespace

//===----------------------------------------------------------------------===//
// Page table
//===----------------------------------------------------------------------===//

RegionHeap::PageTable::PageTable(unsigned Log2Slots)
    : Slots(size_t{1} << Log2Slots), Mask(Slots.size() - 1),
      Shift(64 - Log2Slots) {}

void RegionHeap::PageTable::insert(uintptr_t Chunk, uint32_t Page) {
  // Keep the load factor at or under one half.
  if (2 * (Count + 1) > Slots.size()) {
    std::vector<Slot> Old(Slots.size() * 2);
    Old.swap(Slots);
    Mask = Slots.size() - 1;
    --Shift;
    Count = 0;
    for (const Slot &S : Old)
      if (S.Page != NoPage)
        insert(S.Chunk, S.Page);
  }
  size_t I = home(Chunk);
  while (Slots[I].Page != NoPage)
    I = (I + 1) & Mask;
  Slots[I] = {Chunk, Page};
  ++Count;
}

void RegionHeap::PageTable::erase(uintptr_t Chunk, uint32_t Page) {
  size_t I = home(Chunk);
  while (Slots[I].Chunk != Chunk || Slots[I].Page != Page) {
    assert(Slots[I].Page != NoPage && "unmapping an unmapped page");
    I = (I + 1) & Mask;
  }
  // Backward-shift deletion: pull each later entry of the probe run
  // into the hole unless its home lies cyclically in (hole, entry].
  for (size_t J = (I + 1) & Mask; Slots[J].Page != NoPage;
       J = (J + 1) & Mask) {
    size_t Home = home(Slots[J].Chunk);
    bool Stays = I <= J ? (I < Home && Home <= J) : (I < Home || Home <= J);
    if (Stays)
      continue;
    Slots[I] = Slots[J];
    I = J;
  }
  Slots[I] = Slot();
  --Count;
}

//===----------------------------------------------------------------------===//
// Heap
//===----------------------------------------------------------------------===//

RegionHeap::RegionHeap() : Table(/*Log2Slots=*/6) {
  // Handle 0 is the global region, the stack's bottom. Its profile slot
  // is reported only once something is allocated into it (or a region
  // is created with slot 0).
  Regions.push_back(Region());
  Profiles.push_back(RegionProfile());
  Stats.RegionsCreated = 1;
}

RegionHeap::~RegionHeap() {
  // Recycle standard pages into the shared pool so the next request's
  // heap reuses them. Quarantine under exact dangling detection: a
  // detecting heap's pages (graveyard and live alike) never enter the
  // pool, so no other heap can be handed a page the detector could
  // still attribute to one of this heap's dead regions.
  if (SharedPool && !RetainReleasedPages) {
    std::vector<PagePool::PageBuffer> Standard;
    auto Take = [&](uint32_t First) {
      for (uint32_t I = First; I != NoPage; I = Pages[I].Next)
        if (Pages[I].Cap == PageWords)
          Standard.emplace_back(std::exchange(Pages[I].Words, nullptr));
    };
    for (uint32_t I = 0; I < Depth; ++I)
      Take(Regions[I].FirstPage);
    Take(FreePages);
    // One batched hand-off: the shared pool's lock is taken once per
    // heap, not once per page.
    SharedPool->releaseMany(std::move(Standard));
  }
  for (Page &P : Pages)
    if (P.Words)
      freeWords(P.Words, P.Cap);
}

uint32_t RegionHeap::newRecord(uint64_t *Words, size_t CapWords) {
  uint32_t Idx = FreeRecords;
  if (Idx != NoPage) {
    FreeRecords = Pages[Idx].Next;
  } else {
    Idx = static_cast<uint32_t>(Pages.size());
    Pages.emplace_back();
  }
  Page &P = Pages[Idx];
  P = Page();
  P.Words = Words;
  P.Cap = static_cast<uint32_t>(CapWords);
  return Idx;
}

uint32_t RegionHeap::newPage(size_t CapWords) {
  uint32_t Idx = NoPage;
  if (CapWords == PageWords && FreePages != NoPage) {
    Idx = FreePages;
    Page &P = Pages[Idx];
    FreePages = P.Next;
    P.Next = NoPage;
    P.Used = 0;
    P.Old = false;
  } else if (CapWords == PageWords && SharedPool && !RetainReleasedPages) {
    // The local free list is empty: try the cross-request pool before
    // the allocator. Standard pages only; finite-region blocks bypass it.
    if (PagePool::PageBuffer Buf = SharedPool->acquire()) {
      Idx = newRecord(Buf.release(), PageWords);
      ++Stats.PagesFromSharedPool;
    }
  }
  if (Idx == NoPage) {
    Idx = newRecord(allocateWords(CapWords), CapWords);
    ++Stats.PagesAllocated;
  }
  Stats.CurrentHeapWords += CapWords;
  Stats.PeakHeapWords = std::max(Stats.PeakHeapWords,
                                 Stats.CurrentHeapWords);
  return Idx;
}

void RegionHeap::retirePage(uint32_t Idx) {
  Page &P = Pages[Idx];
  assert(Stats.CurrentHeapWords >= P.Cap && "heap accounting underflow");
  Stats.CurrentHeapWords -= P.Cap;
  P.FromSpace = false;
  P.Next = NoPage;
  // Under exact dangling detection the page stays allocated (and
  // unmapped) until the heap is destroyed, so its address is never reused.
  if (RetainReleasedPages)
    return;
  if (P.Cap == PageWords) {
    P.Next = FreePages;
    FreePages = Idx;
    return;
  }
  // Non-standard (finite or oversized) pages are simply freed.
  freeWords(P.Words, P.Cap);
  P.Words = nullptr;
  P.Next = FreeRecords;
  FreeRecords = Idx;
}

void RegionHeap::mapPage(uint32_t Idx, uint32_t Handle) {
  Page &P = Pages[Idx];
  P.Owner = Handle;
  uintptr_t Start = reinterpret_cast<uintptr_t>(P.Words);
  uintptr_t Last = Start + uintptr_t{P.Cap} * sizeof(uint64_t) - 1;
  for (uintptr_t C = Start >> ChunkShift; C <= Last >> ChunkShift; ++C)
    Table.insert(C, Idx);
}

void RegionHeap::unmapPage(uint32_t Idx) {
  const Page &P = Pages[Idx];
  uintptr_t Start = reinterpret_cast<uintptr_t>(P.Words);
  uintptr_t Last = Start + uintptr_t{P.Cap} * sizeof(uint64_t) - 1;
  for (uintptr_t C = Start >> ChunkShift; C <= Last >> ChunkShift; ++C)
    Table.erase(C, Idx);
}

void RegionHeap::append(uint32_t &First, uint32_t &Last, uint32_t Idx) {
  Pages[Idx].Next = NoPage;
  if (Last == NoPage)
    First = Idx;
  else
    Pages[Last].Next = Idx;
  Last = Idx;
}

void RegionHeap::addPage(uint32_t Handle, size_t Words) {
  uint32_t Idx = newPage(std::max(Words, PageWords));
  mapPage(Idx, Handle);
  Region &R = region(Handle);
  append(R.FirstPage, R.LastPage, Idx);
}

uint32_t RegionHeap::create(uint32_t StaticId, RegionKind Kind,
                            unsigned FiniteWords, uint32_t ProfileSlot) {
  assert(Depth < MaxDepth && "region stack overflow");
  if (ProfileSlot >= Profiles.size())
    Profiles.resize(size_t{ProfileSlot} + 1);
  RegionProfile &Prof = Profiles[ProfileSlot];
  Prof.StaticId = StaticId;
  Prof.Kind = Kind;
  Prof.Finite = FiniteWords != 0;
  ++Prof.Instances;

  if (Depth == Regions.size())
    Regions.emplace_back();
  else
    ++Regions[Depth].Gen; // a stale handle to this slot stops matching
  Region &R = Regions[Depth];
  const uint32_t Handle = uint32_t{R.Gen} << IndexBits | Depth++;
  R.StaticId = StaticId;
  R.Kind = Kind;
  R.Profile = ProfileSlot;
  ++Stats.RegionsCreated;
  if (FiniteWords != 0) {
    ++Stats.FiniteRegionsCreated;
    uint32_t Idx = newPage(FiniteWords);
    mapPage(Idx, Handle);
    append(R.FirstPage, R.LastPage, Idx);
  }
  return Handle;
}

void RegionHeap::release([[maybe_unused]] uint32_t Handle) {
  assert(live(Handle) && (Handle & IndexMask) == Depth - 1 &&
         "release of a region that is not the top of the stack");
  Region &R = Regions[--Depth];
  for (uint32_t Idx = R.FirstPage; Idx != NoPage;) {
    uint32_t Next = Pages[Idx].Next;
    if (RetainReleasedPages) {
      uintptr_t Start = reinterpret_cast<uintptr_t>(Pages[Idx].Words);
      Graveyard[Start] = {Start + uintptr_t{Pages[Idx].Cap} * 8, R.StaticId};
    }
    unmapPage(Idx);
    retirePage(Idx);
    Idx = Next;
  }
  R.FirstPage = R.LastPage = NoPage;
}

std::optional<uint32_t>
RegionHeap::graveyardOwnerOf(const uint64_t *Ptr) const {
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Ptr);
  auto It = Graveyard.upper_bound(Addr);
  if (It == Graveyard.begin())
    return std::nullopt;
  --It;
  if (Addr >= It->first && Addr < It->second.first)
    return It->second.second;
  return std::nullopt;
}

size_t RegionHeap::numPages(uint32_t Handle) const {
  size_t N = 0;
  for (uint32_t Idx = region(Handle).FirstPage; Idx != NoPage;
       Idx = Pages[Idx].Next)
    ++N;
  return N;
}

void RegionHeap::detachPages(uint32_t Index, bool YoungOnly) {
  Region &R = Regions[Index];
  uint32_t KeptFirst = NoPage, KeptLast = NoPage;
  for (uint32_t Idx = R.FirstPage; Idx != NoPage;) {
    Page &P = Pages[Idx];
    uint32_t Next = P.Next;
    if (YoungOnly && P.Old) {
      append(KeptFirst, KeptLast, Idx);
    } else {
      P.FromSpace = true;
      P.FwdBase = static_cast<uint32_t>(FromSpaceWords);
      FromSpaceWords += P.Cap;
      append(FromFirst, FromLast, Idx);
    }
    Idx = Next;
  }
  R.FirstPage = KeptFirst;
  R.LastPage = KeptLast;
  Forwarded.resize((FromSpaceWords + 63) / 64, 0);
}

void RegionHeap::dropFromSpace() {
  for (uint32_t Idx = FromFirst; Idx != NoPage;) {
    uint32_t Next = Pages[Idx].Next;
    unmapPage(Idx);
    retirePage(Idx);
    Idx = Next;
  }
  FromFirst = FromLast = NoPage;
  FromSpaceWords = 0;
  Forwarded.clear(); // keeps its capacity for the next collection
}

void RegionHeap::sealLivePages() {
  for (uint32_t I = 0; I < Depth; ++I)
    for (uint32_t Idx = Regions[I].FirstPage; Idx != NoPage;
         Idx = Pages[Idx].Next)
      Pages[Idx].Old = true;
}

std::vector<RegionProfile> RegionHeap::profiles() const {
  std::vector<RegionProfile> Out;
  Out.reserve(Profiles.size());
  for (const RegionProfile &P : Profiles)
    if (P.Instances != 0 || P.AllocWords != 0)
      Out.push_back(P);
  // Slot order is static-id order (the unit's regions ascend by id and
  // the scratch slot comes last), so the allocation-order sort below,
  // which is not stable, always starts from the same sequence.
  std::sort(Out.begin(), Out.end(),
            [](const RegionProfile &A, const RegionProfile &B) {
              return A.AllocWords > B.AllocWords;
            });
  return Out;
}
