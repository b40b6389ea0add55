//===- rinfer/InferStore.h - Region inference's variable store -*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inference store: union-find over region and effect variables with
/// levels ("cones") and grow-only effect-variable denotations. Region
/// inference (rinfer/Infer.cpp) owns one per run; its own header lets a
/// test hold the store a run leaves behind and check closure() on it.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RINFER_INFERSTORE_H
#define RML_RINFER_INFERSTORE_H

#include "region/Effect.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

namespace rml {

class InferStore {
public:
  InferStore() {
    // Region 0 / effect variable 0 are the global region and its effect
    // variable; the global region is permanently allocated.
    RegionVar G = freshRegion(0);
    EffectVar GE = freshEffect(0);
    assert(G.isGlobal() && GE == EffectVar::global());
    Regions[0].Bound = true;
    include(GE, AtomicEffect(G));
  }

  RegionVar freshRegion(uint32_t Level) {
    Regions.push_back({static_cast<uint32_t>(Regions.size()), Level, false,
                       false});
    return RegionVar(static_cast<uint32_t>(Regions.size() - 1));
  }

  EffectVar freshEffect(uint32_t Level) {
    Effects.push_back({static_cast<uint32_t>(Effects.size()), Level, false,
                       {}});
    return EffectVar(static_cast<uint32_t>(Effects.size() - 1));
  }

  RegionVar find(RegionVar R) {
    uint32_t I = R.Id;
    while (Regions[I].Parent != I) {
      Regions[I].Parent = Regions[Regions[I].Parent].Parent;
      I = Regions[I].Parent;
    }
    return RegionVar(I);
  }

  EffectVar find(EffectVar E) {
    uint32_t I = E.Id;
    while (Effects[I].Parent != I) {
      Effects[I].Parent = Effects[Effects[I].Parent].Parent;
      I = Effects[I].Parent;
    }
    return EffectVar(I);
  }

  AtomicEffect canon(AtomicEffect A) {
    return A.isRegion() ? AtomicEffect(find(A.region()))
                        : AtomicEffect(find(A.effect()));
  }

  void unifyRegion(RegionVar A, RegionVar B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    // The global region wins; otherwise keep the lower id (older).
    if (B.isGlobal() || (!A.isGlobal() && B.Id < A.Id))
      std::swap(A, B);
    Regions[B.Id].Parent = A.Id;
    Regions[A.Id].Level = std::min(Regions[A.Id].Level, Regions[B.Id].Level);
    Regions[A.Id].Bound = Regions[A.Id].Bound || Regions[B.Id].Bound;
  }

  void unifyEffect(EffectVar A, EffectVar B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    if (B == EffectVar::global() || (A != EffectVar::global() && B.Id < A.Id))
      std::swap(A, B);
    Effects[B.Id].Parent = A.Id;
    Effects[A.Id].Level = std::min(Effects[A.Id].Level, Effects[B.Id].Level);
    for (AtomicEffect X : Effects[B.Id].Deno)
      Effects[A.Id].Deno.insert(canon(X));
    Effects[B.Id].Deno.clear();
    lowerTransitively(AtomicEffect(A), Effects[A.Id].Level);
  }

  void include(EffectVar E, AtomicEffect A) {
    E = find(E);
    A = canon(A);
    // A recursive function's latent effect legitimately contains its own
    // handle (the body applies the function); closure() handles cycles.
    Effects[E.Id].Deno.insert(A);
    // Cone invariant: everything reachable from an effect variable lives
    // at most at the variable's level — a region reachable from an
    // escaping effect variable escapes too and must not be quantified.
    lowerTransitively(A, Effects[E.Id].Level);
  }

  /// Lowers \p A (and, through denotations, everything it reaches) to at
  /// most level \p L.
  void lowerTransitively(AtomicEffect A, uint32_t L) {
    std::vector<AtomicEffect> Work{canon(A)};
    while (!Work.empty()) {
      AtomicEffect Cur = Work.back();
      Work.pop_back();
      if (Cur.isRegion()) {
        RInfo &R = Regions[find(Cur.region()).Id];
        if (R.Level > L)
          R.Level = L;
        continue;
      }
      EInfo &E = Effects[find(Cur.effect()).Id];
      if (E.Level <= L)
        continue; // members already at most E.Level <= L
      E.Level = L;
      for (AtomicEffect M : E.Deno)
        Work.push_back(canon(M));
    }
  }

  void includeAll(EffectVar E, const Effect &Phi) {
    for (AtomicEffect A : Phi)
      include(E, A);
  }

  /// The transitively closed set of canonical atomic effects reachable
  /// from \p Seeds through effect-variable denotations: a graph search
  /// that marks the variables it reaches with this call's epoch, then
  /// sorts what it found once.
  Effect closure(const Effect &Seeds) {
    return closure(std::span<const AtomicEffect>(Seeds.items()));
  }
  /// The same from a seed list, which may repeat atoms.
  Effect closure(std::span<const AtomicEffect> Seeds) {
    if (++Epoch == 0) { // wrapped: forget every mark
      std::fill(RegionSeen.begin(), RegionSeen.end(), 0);
      std::fill(EffectSeen.begin(), EffectSeen.end(), 0);
      Epoch = 1;
    }
    RegionSeen.resize(Regions.size(), 0);
    EffectSeen.resize(Effects.size(), 0);
    std::vector<AtomicEffect> Out;
    Work.clear();
    auto Add = [&](AtomicEffect A) {
      A = canon(A);
      uint32_t &Mark = A.isRegion() ? RegionSeen[A.Id] : EffectSeen[A.Id];
      if (Mark == Epoch)
        return;
      Mark = Epoch;
      Out.push_back(A);
      if (A.isEffect())
        Work.push_back(A.Id);
    };
    for (AtomicEffect A : Seeds)
      Add(A);
    while (!Work.empty()) {
      uint32_t E = Work.back();
      Work.pop_back();
      // Add only compresses union-find paths, which leaves every
      // denotation (and this iteration) intact.
      for (AtomicEffect A : Effects[E].Deno)
        Add(A);
    }
    return Effect(std::move(Out));
  }

  uint32_t regionLevel(RegionVar R) { return Regions[find(R).Id].Level; }
  uint32_t effectLevel(EffectVar E) { return Effects[find(E).Id].Level; }

  bool isBound(RegionVar R) { return Regions[find(R).Id].Bound; }
  void markBound(RegionVar R) { Regions[find(R).Id].Bound = true; }

  bool isQuantified(RegionVar R) { return Regions[find(R).Id].Quantified; }
  bool isQuantified(EffectVar E) { return Effects[find(E).Id].Quantified; }
  void markQuantified(RegionVar R) { Regions[find(R).Id].Quantified = true; }
  void markQuantified(EffectVar E) { Effects[find(E).Id].Quantified = true; }

  const std::set<AtomicEffect> &denotation(EffectVar E) {
    return Effects[find(E).Id].Deno;
  }

  size_t numRegions() const { return Regions.size(); }
  size_t numEffects() const { return Effects.size(); }

private:
  struct RInfo {
    uint32_t Parent;
    uint32_t Level;
    bool Bound;      // discharged by letregion (or the global region)
    bool Quantified; // frozen in some scheme
  };
  struct EInfo {
    uint32_t Parent;
    uint32_t Level;
    bool Quantified;
    std::set<AtomicEffect> Deno;
  };
  std::vector<RInfo> Regions;
  std::vector<EInfo> Effects;
  // closure()'s visited marks, by region and by effect id, and its
  // work list of effect ids.
  std::vector<uint32_t> RegionSeen, EffectSeen, Work;
  uint32_t Epoch = 0;
};

} // namespace rml

#endif // RML_RINFER_INFERSTORE_H
