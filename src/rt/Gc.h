//===- rt/Gc.h - Copying collector over regions -----------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Cheney-style copying collector that evacuates every live region's
/// objects into fresh pages *of the same region* (MLKit preserves region
/// identity across collections). Scalars are tagged, boxed objects have
/// headers except in tag-free regions (pair/cons/ref kinds), where the
/// collector derives the layout from the region kind — the partly tag-free
/// scheme of Section 6.
///
/// The collector validates every traced pointer against the heap's page
/// table (one probe per pointer; from-space is a flag on the page record
/// and forwarding a bitmap beside it, so a collection allocates no
/// per-object bookkeeping). A pointer that does not resolve to a live
/// region is a *dangling pointer*: exactly the failure the paper's
/// Figure 1 program provokes under the pre-paper (rg-) typing
/// discipline, and exactly what the rg type system proves impossible
/// (Theorem 2).
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_GC_H
#define RML_RT_GC_H

#include "rt/Region.h"
#include "rt/Value.h"

#include <optional>
#include <string>
#include <vector>

namespace rml::rt {

/// Result of a collection.
struct GcResult {
  bool Ok = true;
  std::string Error; // dangling-pointer diagnostics when !Ok
  uint64_t CopiedWords = 0;
  /// Live regions the collection traced through (the from-space set).
  uint64_t LiveRegions = 0;
};

/// Collection kinds for the generational extension (the paper's [16,17]
/// integration of regions and generations): a *minor* collection
/// evacuates only pages allocated since the last collection; old-to-young
/// pointers created by mutation must be supplied as extra roots (the
/// evaluator's write barrier records them).
enum class GcKind : uint8_t { Major, Minor };

/// Runs one collection. \p Roots are slots holding values that must
/// survive (environment, temporaries, remembered old-to-young slots,
/// in-flight exception values); the collector updates them in place.
/// With \p Seal, surviving pages are marked old afterwards (generational
/// mode).
GcResult collectGarbage(RegionHeap &Heap, const std::vector<Value *> &Roots,
                        GcKind Kind = GcKind::Major, bool Seal = false);

} // namespace rml::rt

#endif // RML_RT_GC_H
