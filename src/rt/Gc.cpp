//===- rt/Gc.cpp ----------------------------------------------------------===//

#include "rt/Gc.h"

#include <cassert>

using namespace rml;
using namespace rml::rt;

namespace {

/// Layout of one object: total words and which of them are value fields.
struct Layout {
  size_t Words = 0;
  size_t FirstField = 0; // index of the first scanned word
  size_t NumFields = 0;  // scanned words (Values)
};

class Collector {
public:
  Collector(RegionHeap &Heap, GcKind Kind, bool Seal)
      : Heap(Heap), Kind(Kind), Seal(Seal) {}

  GcResult run(const std::vector<Value *> &Roots) {
    GcResult Result;
    ++Heap.Stats.GcCount;
    if (Kind == GcKind::Minor)
      ++Heap.Stats.MinorGcCount;
    else
      ++Heap.Stats.MajorGcCount;

    // Detach every live region's (young, for minor collections) pages:
    // they become from-space, flagged in the heap's page table.
    Result.LiveRegions = Heap.depth();
    for (uint32_t I = 0; I < Heap.depth(); ++I)
      Heap.detachPages(I, Kind == GcKind::Minor);

    // Evacuate roots, then scan the to-space worklist.
    for (Value *Slot : Roots) {
      if (!evacuate(*Slot, Result))
        break;
    }
    while (Result.Ok && !Worklist.empty()) {
      auto [Obj, Handle] = Worklist.back();
      Worklist.pop_back();
      if (!scan(Obj, Handle, Result))
        break;
    }

    // Discard from-space; in generational mode the survivors become old.
    Heap.dropFromSpace();
    if (Seal && Result.Ok)
      Heap.sealLivePages();
    Heap.Stats.CopiedWords += Result.CopiedWords;
    // Evacuation went through the ordinary allocator; copies are not
    // program allocations.
    Heap.Stats.AllocWords -= Result.CopiedWords;
    Heap.resetAllocSinceGc();
    return Result;
  }

private:
  /// Object layout at \p Obj in a region of kind \p Kind.
  Layout layoutOf(const uint64_t *Obj, RegionKind Kind) const {
    switch (Kind) {
    case RegionKind::Pair:
    case RegionKind::Cons:
      return {2, 0, 2};
    case RegionKind::Ref:
      return {1, 0, 1};
    default:
      break;
    }
    uint64_t H = Obj[0];
    assert(isHeader(H) && "tagged object without header");
    switch (headerKind(H)) {
    case ObjKind::Pair:
    case ObjKind::Cons:
      return {3, 1, 2};
    case ObjKind::Ref:
      return {2, 1, 1};
    case ObjKind::String: {
      size_t DataWords = (headerPayload(H) + 7) / 8;
      return {1 + DataWords, 0, 0};
    }
    case ObjKind::Closure: {
      size_t Total = 1 + headerPayload(H);
      // [hdr][fnIdx][nRegions][regions...][captures...]
      size_t NRegions = Obj[2];
      size_t FirstField = 3 + NRegions;
      return {Total, FirstField, Total - FirstField};
    }
    case ObjKind::Exn: {
      size_t ArgCount = headerPayload(H);
      return {2 + ArgCount, 2, ArgCount};
    }
    }
    assert(false && "unknown header kind");
    return {1, 0, 0};
  }

  /// Evacuates the object referenced by \p Slot (if it is a from-space
  /// pointer) and updates the slot. Returns false on dangling pointer.
  bool evacuate(Value &Slot, GcResult &Result) {
    if (!isPointer(Slot))
      return true;
    uint64_t *Old = asPtr(Slot);
    const uint32_t PageIdx = Heap.pageOf(Old);
    if (PageIdx == RegionHeap::NoPage) {
      // A pointer outside every live region: the dangling-pointer case.
      Result.Ok = false;
      std::optional<uint32_t> Grave = Heap.graveyardOwnerOf(Old);
      Result.Error =
          "dangling pointer: traced a reference into a deallocated "
          "region" +
          (Grave ? (" r" + std::to_string(*Grave)) : std::string()) +
          " (the GC-unsafe region annotation let a dead region's value "
          "escape into a live closure)";
      return false;
    }
    if (!Heap.page(PageIdx).FromSpace) {
      // Already in to-space (a shared object scanned twice). Release
      // unmaps a region's pages, so a mapped page's owner is live.
      assert(Heap.live(Heap.page(PageIdx).Owner) && "mapped dead page");
      return true;
    }
    // An evacuated object's first word holds its forwarding address.
    if (Heap.isForwarded(PageIdx, Old)) {
      Slot = Old[0];
      return true;
    }
    const uint32_t Owner = Heap.page(PageIdx).Owner;
    Layout L = layoutOf(Old, Heap.region(Owner).Kind);
    uint64_t *New = Heap.alloc(Owner, L.Words);
    for (size_t I = 0; I < L.Words; ++I)
      New[I] = Old[I];
    Result.CopiedWords += L.Words;
    Value NewV = fromPtr(New);
    Heap.setForwarded(PageIdx, Old);
    Old[0] = NewV;
    Slot = NewV;
    Worklist.emplace_back(New, Owner);
    return true;
  }

  bool scan(uint64_t *Obj, uint32_t Handle, GcResult &Result) {
    Layout L = layoutOf(Obj, Heap.region(Handle).Kind);
    for (size_t I = 0; I < L.NumFields; ++I)
      if (!evacuate(Obj[L.FirstField + I], Result))
        return false;
    return true;
  }

  RegionHeap &Heap;
  GcKind Kind;
  bool Seal;
  std::vector<std::pair<uint64_t *, uint32_t>> Worklist;
};

} // namespace

GcResult rml::rt::collectGarbage(RegionHeap &Heap,
                                 const std::vector<Value *> &Roots,
                                 GcKind Kind, bool Seal) {
  Collector C(Heap, Kind, Seal);
  return C.run(Roots);
}
