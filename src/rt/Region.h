//===- rt/Region.h - Region heap --------------------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MLKit-style region heap: a region is a growable list of fixed-size
/// pages; letregion pushes a region, its closing pops and releases the
/// pages. *Finite* regions (multiplicity analysis) hold one exact-size
/// block instead of a page. The heap tracks which pages belong to which
/// region so that the collector can (a) preserve region identity while
/// copying and (b) detect pointers into deallocated regions — the
/// dangling pointers whose absence the paper's type system guarantees.
///
/// Everything the evaluator and collector do per step, per allocation or
/// per letregion is constant-time and allocates nothing in steady state:
///
///  * **Page table.** An address resolves to its page record through an
///    open-addressed table keyed by 2 KiB chunk number. Standard pages
///    are chunk-aligned, so each owns one chunk; oversized pages and
///    finite blocks are entered in every chunk they overlap. ownerOf,
///    isOldAddr and the collector's from-space test are one probe.
///  * **Page records, not page vectors.** Pages live in one record table
///    and are chained per region, so a region costs no allocation of its
///    own; released standard pages stay on a local free list.
///  * **Region stack.** Letregion is lexically scoped, so create pushes a
///    record and release pops it; the live regions are the prefix
///    [0, depth()) and the table is as deep as the deepest nesting. A
///    handle's generation counts its slot's reuses, so a stale handle in
///    a closure (rg-, r) never equals a newer region's. Profiles are a
///    dense table indexed by a slot the caller passes.
///  * **Collector support.** From-space is a flag on page records, and a
///    bitmap over from-space words marks evacuated objects, whose first
///    word then holds the forwarding address.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_REGION_H
#define RML_RT_REGION_H

#include "rinfer/RegionKinds.h"
#include "rt/PagePool.h"
#include "rt/Value.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rml::rt {

/// Per-static-region runtime profile (the MLKit region profiler's
/// per-region view): how many times the letregion executed and how many
/// words were allocated into its instances.
struct RegionProfile {
  uint32_t StaticId = 0;
  RegionKind Kind = RegionKind::Empty;
  uint64_t Instances = 0;
  uint64_t AllocWords = 0;
  bool Finite = false;
};

/// Runtime heap statistics (the "rss" and "gc #" columns of Figure 9).
struct HeapStats {
  uint64_t AllocWords = 0;       // total words ever allocated
  uint64_t CurrentHeapWords = 0; // words in pages currently held
  uint64_t PeakHeapWords = 0;    // high-water mark (the rss analogue)
  uint64_t GcCount = 0;    // all collections
  uint64_t MinorGcCount = 0;
  uint64_t MajorGcCount = 0;
  uint64_t CopiedWords = 0;      // evacuated by the collector
  uint64_t RegionsCreated = 0;
  uint64_t FiniteRegionsCreated = 0;
  uint64_t PagesAllocated = 0;       // fresh pages from the allocator
  uint64_t PagesFromSharedPool = 0;  // standard pages recycled via PagePool

  uint64_t peakBytes() const { return PeakHeapWords * 8; }
};

class RegionHeap {
public:
  /// 2 KiB pages — the pool's buffer unit is the single source of truth.
  static constexpr size_t PageWords = PagePool::PageWords;
  /// The page table resolves an address by its 2 KiB chunk number
  /// (address >> ChunkShift). A standard page is exactly one chunk.
  static constexpr unsigned ChunkShift = 11;
  static_assert((size_t{1} << ChunkShift) == PagePool::PageBytes,
                "a standard page must be exactly one page-table chunk");

  static constexpr uint32_t NoPage = UINT32_MAX;
  /// A handle is (generation << IndexBits) | stack index.
  static constexpr unsigned IndexBits = 24;
  static constexpr uint32_t IndexMask = (uint32_t{1} << IndexBits) - 1;
  /// The deepest nesting the handle's index field holds. Index IndexMask
  /// is never handed out, so no handle is UINT32_MAX.
  static constexpr uint32_t MaxDepth = IndexMask;

  /// One page record. Records live in one heap-wide table and are
  /// threaded through Next into at most one chain at a time: a region's
  /// pages (oldest first), the local free list or the collector's
  /// from-space. A graveyard page (RetainReleasedPages) is on none; its
  /// memory lives until the heap is destroyed.
  struct Page {
    /// Owned. Pages of at least PageWords words are PageBytes-aligned
    /// (PagePool::PageBuffer for standard pages); smaller finite-region
    /// blocks are exact-size allocations.
    uint64_t *Words = nullptr;
    uint32_t Used = 0;
    uint32_t Cap = 0;
    uint32_t Owner = 0;     // region handle while mapped
    uint32_t Next = NoPage; // next record in the same chain
    /// From-space only: this page's first word in the forwarding bitmap.
    uint32_t FwdBase = 0;
    /// Generational extension: pages that survived a collection are
    /// *old*; minor collections evacuate young pages only (Elsman &
    /// Hallenberg's region+generation integration, the paper's [16,17]).
    bool Old = false;
    /// Detached by the collector and awaiting dropFromSpace.
    bool FromSpace = false;
  };

  struct Region {
    uint32_t StaticId = 0; // region variable id (diagnostics)
    RegionKind Kind = RegionKind::Mixed;
    uint8_t Gen = 0;             // bumped each time the slot is reused
    uint32_t FirstPage = NoPage; // page chain, oldest first
    uint32_t LastPage = NoPage;  // the allocation page
    uint32_t Profile = 0;        // slot in the profile table
  };

  /// When set, released pages are never reused, so every dangling pointer
  /// is detected exactly (used by the rg- demonstrations; benchmarks run
  /// with reuse on).
  bool RetainReleasedPages = false;

  /// Optional process-wide pool of standard pages (cross-request reuse;
  /// see rt/PagePool.h). Standard-page demand that misses the local free
  /// list is served from here, and on heap destruction the heap's
  /// standard pages are recycled into it. Quarantined whenever
  /// RetainReleasedPages is on: exact dangling detection must be able to
  /// attribute every released page to its dead region, so a detecting
  /// heap neither feeds the pool nor draws from it.
  PagePool *SharedPool = nullptr;

  explicit RegionHeap();
  ~RegionHeap();
  RegionHeap(const RegionHeap &) = delete;
  RegionHeap &operator=(const RegionHeap &) = delete;

  /// Pushes a region; returns its runtime handle. \p FiniteWords != 0
  /// requests a finite region with an exact-size block. \p ProfileSlot
  /// indexes the profile table, which grows to hold it; the evaluator
  /// passes the flat unit's region index, one per static id. Callers
  /// stop at MaxDepth.
  uint32_t create(uint32_t StaticId, RegionKind Kind, unsigned FiniteWords,
                  uint32_t ProfileSlot);
  /// Direct callers (tests, benches) key profiles by static id.
  uint32_t create(uint32_t StaticId, RegionKind Kind,
                  unsigned FiniteWords = 0) {
    return create(StaticId, Kind, FiniteWords, StaticId);
  }

  /// Pops the top region, \p Handle: its pages go back to the pool (or
  /// the graveyard when RetainReleasedPages).
  void release(uint32_t Handle);

  /// Bump-allocates \p Words words in \p Handle. Never GCs — the
  /// evaluator polices collection points — and never returns null: a
  /// full page is replaced by a fresh one (addPage), whose allocator
  /// throws rather than fail quietly, so callers write through the
  /// result unchecked.
  uint64_t *alloc(uint32_t Handle, size_t Words) {
    assert(Words > 0 && "empty allocation");
    assert(live(Handle) && "allocation into a dead region");
    Region &R = Regions[Handle & IndexMask];
    Stats.AllocWords += Words;
    AllocSinceGc += Words;
    Profiles[R.Profile].AllocWords += Words;
    if (R.LastPage == NoPage || Pages[R.LastPage].Old ||
        Pages[R.LastPage].Used + Words > Pages[R.LastPage].Cap)
      addPage(Handle, Words);
    Page &P = Pages[R.LastPage];
    uint64_t *Out = P.Words + P.Used;
    P.Used += static_cast<uint32_t>(Words);
    return Out;
  }

  /// The page record holding \p P (a live region's page, or from-space
  /// during a collection), or NoPage for released pages and foreign
  /// memory.
  uint32_t pageOf(const uint64_t *P) const {
    const uintptr_t Addr = reinterpret_cast<uintptr_t>(P);
    const uintptr_t Chunk = Addr >> ChunkShift;
    for (size_t I = Table.home(Chunk);; I = (I + 1) & Table.Mask) {
      const PageTable::Slot &S = Table.Slots[I];
      if (S.Page == NoPage)
        return NoPage;
      if (S.Chunk == Chunk &&
          Addr - reinterpret_cast<uintptr_t>(Pages[S.Page].Words) <
              uintptr_t{Pages[S.Page].Cap} * sizeof(uint64_t))
        return S.Page;
    }
  }

  /// The region owning \p P, if P points into a live region's pages.
  /// Returns std::nullopt for unknown addresses (released-and-unreused
  /// pages, foreign memory).
  std::optional<uint32_t> ownerOf(const uint64_t *P) const {
    uint32_t Idx = pageOf(P);
    if (Idx == NoPage)
      return std::nullopt;
    return Pages[Idx].Owner;
  }

  /// True when \p P points into an old page (the write-barrier test).
  bool isOldAddr(const uint64_t *P) const {
    uint32_t Idx = pageOf(P);
    return Idx != NoPage && Pages[Idx].Old;
  }

  /// For dangling-pointer diagnostics: the static region id a released
  /// page belonged to (graveyard mode only).
  std::optional<uint32_t> graveyardOwnerOf(const uint64_t *P) const;

  Region &region(uint32_t Handle) { return Regions[Handle & IndexMask]; }
  const Region &region(uint32_t Handle) const {
    return Regions[Handle & IndexMask];
  }
  /// True when \p Handle names a region on the stack, not a released
  /// one or an older occupant of its slot.
  bool live(uint32_t Handle) const {
    uint32_t I = Handle & IndexMask;
    return I < Depth && Regions[I].Gen == Handle >> IndexBits;
  }
  /// Live regions: stack indices [0, depth()).
  uint32_t depth() const { return Depth; }
  /// Records in the region table: the deepest nesting so far.
  size_t numRegions() const { return Regions.size(); }
  const Page &page(uint32_t Idx) const { return Pages[Idx]; }
  /// Pages currently held by \p Handle.
  size_t numPages(uint32_t Handle) const;

  /// Collector support: moves the pages of the live region at stack
  /// index \p Index (with \p YoungOnly, its young pages only — a minor
  /// collection) onto from-space and leaves the region to be refilled by
  /// evacuation. From-space pages stay in the page table, flagged, until
  /// dropFromSpace.
  void detachPages(uint32_t Index, bool YoungOnly = false);
  /// Unmaps and retires every from-space page.
  void dropFromSpace();
  /// The forwarding bitmap: one bit per from-space word, set on the
  /// first word of every object already evacuated (the object's first
  /// word then holds its forwarding address).
  bool isForwarded(uint32_t PageIdx, const uint64_t *Obj) const {
    size_t Bit = fwdBit(PageIdx, Obj);
    return (Forwarded[Bit / 64] >> (Bit % 64)) & 1;
  }
  void setForwarded(uint32_t PageIdx, const uint64_t *Obj) {
    size_t Bit = fwdBit(PageIdx, Obj);
    Forwarded[Bit / 64] |= uint64_t{1} << (Bit % 64);
  }

  /// Marks every live page old (after a collection, survivors only) and
  /// forces the next allocation in each region onto a fresh young page.
  void sealLivePages();

  /// Words allocated since the last collection (GC trigger input).
  uint64_t allocSinceGc() const { return AllocSinceGc; }
  void resetAllocSinceGc() { AllocSinceGc = 0; }

  HeapStats Stats;

  /// The per-static-region profiles, sorted by allocated words
  /// (descending).
  std::vector<RegionProfile> profiles() const;

private:
  /// Open-addressed (linear probing) multimap from chunk number to the
  /// page records overlapping that chunk. A standard page owns its
  /// chunk; oversized pages and finite blocks are entered once per
  /// chunk they overlap, and several finite blocks may share a chunk,
  /// so a lookup checks each candidate's address range. Deletion shifts
  /// later entries back (no tombstones); the table only grows, so
  /// steady-state mapping and unmapping never allocate.
  struct PageTable {
    struct Slot {
      uintptr_t Chunk = 0;
      uint32_t Page = NoPage; // NoPage marks an empty slot
    };
    std::vector<Slot> Slots;
    size_t Mask = 0;
    unsigned Shift = 0; // 64 - log2(Slots.size())
    size_t Count = 0;

    explicit PageTable(unsigned Log2Slots);
    size_t home(uintptr_t Chunk) const {
      return static_cast<size_t>((Chunk * 0x9E3779B97F4A7C15ull) >> Shift);
    }
    void insert(uintptr_t Chunk, uint32_t Page);
    void erase(uintptr_t Chunk, uint32_t Page);
  };

  size_t fwdBit(uint32_t PageIdx, const uint64_t *Obj) const {
    const Page &P = Pages[PageIdx];
    assert(P.FromSpace && "forwarding outside from-space");
    return P.FwdBase + static_cast<size_t>(Obj - P.Words);
  }

  /// A fresh or recycled page of \p CapWords words (not yet mapped).
  uint32_t newPage(size_t CapWords);
  /// Opens a new allocation page of at least \p Words words in \p Handle.
  void addPage(uint32_t Handle, size_t Words);
  uint32_t newRecord(uint64_t *Words, size_t CapWords);
  void retirePage(uint32_t Idx);
  void mapPage(uint32_t Idx, uint32_t Handle);
  void unmapPage(uint32_t Idx);
  /// Appends record \p Idx to the chain [First, Last].
  void append(uint32_t &First, uint32_t &Last, uint32_t Idx);

  /// The region stack: [0, Depth) live, the rest released records
  /// kept for reuse.
  std::vector<Region> Regions;
  uint32_t Depth = 1;
  std::vector<Page> Pages; // every page record, by index
  PageTable Table;
  uint32_t FreePages = NoPage;   // local free list of standard pages
  uint32_t FreeRecords = NoPage; // records without a buffer
  uint32_t FromFirst = NoPage, FromLast = NoPage;
  size_t FromSpaceWords = 0;
  std::vector<uint64_t> Forwarded; // bitmap over from-space words
  /// Released page memory kept alive for exact dangling detection:
  /// page start -> (page end, static region id). Read only to name the
  /// region of a dangling pointer.
  std::map<uintptr_t, std::pair<uintptr_t, uint32_t>> Graveyard;
  uint64_t AllocSinceGc = 0;
  /// Profiles by the slot create was given; slot 0 is the global
  /// region's.
  std::vector<RegionProfile> Profiles;
};

} // namespace rml::rt

#endif // RML_RT_REGION_H
