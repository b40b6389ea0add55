//===- region/Effect.h - Effects and arrow effects --------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The effect layer of the region calculus (Section 3.1):
///
///   * region variables        rho
///   * effect variables        eps
///   * atomic effects          eta ::= rho | eps
///   * effects                 phi  (finite sets of atomic effects)
///   * arrow effects           nu ::= eps.phi
///
/// These are the *explicit* paper-faithful representations used by the
/// region type checker, the small-step semantics and the metatheory
/// property tests. Region inference (src/rinfer) uses its own mutable
/// union-find store and materialises its results into these types.
///
//===----------------------------------------------------------------------===//

#ifndef RML_REGION_EFFECT_H
#define RML_REGION_EFFECT_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace rml {

/// A region variable (rho). Id 0 is reserved for the global region that
/// holds top-level values and escaping exception values.
struct RegionVar {
  uint32_t Id = UINT32_MAX;

  constexpr RegionVar() = default;
  constexpr explicit RegionVar(uint32_t Id) : Id(Id) {}

  bool isValid() const { return Id != UINT32_MAX; }
  bool isGlobal() const { return Id == 0; }
  static constexpr RegionVar global() { return RegionVar(0); }

  friend bool operator==(RegionVar A, RegionVar B) { return A.Id == B.Id; }
  friend bool operator!=(RegionVar A, RegionVar B) { return A.Id != B.Id; }
  friend bool operator<(RegionVar A, RegionVar B) { return A.Id < B.Id; }
};

/// An effect variable (eps). Id 0 is reserved for the global effect
/// variable associated with the global region.
struct EffectVar {
  uint32_t Id = UINT32_MAX;

  constexpr EffectVar() = default;
  constexpr explicit EffectVar(uint32_t Id) : Id(Id) {}

  bool isValid() const { return Id != UINT32_MAX; }
  static constexpr EffectVar global() { return EffectVar(0); }

  friend bool operator==(EffectVar A, EffectVar B) { return A.Id == B.Id; }
  friend bool operator!=(EffectVar A, EffectVar B) { return A.Id != B.Id; }
  friend bool operator<(EffectVar A, EffectVar B) { return A.Id < B.Id; }
};

/// An atomic effect eta: either a region variable or an effect variable.
struct AtomicEffect {
  enum class Kind : uint8_t { Region, Effect };
  Kind K = Kind::Region;
  uint32_t Id = UINT32_MAX;

  constexpr AtomicEffect() = default;
  constexpr AtomicEffect(RegionVar R) : K(Kind::Region), Id(R.Id) {}
  constexpr AtomicEffect(EffectVar E) : K(Kind::Effect), Id(E.Id) {}

  bool isRegion() const { return K == Kind::Region; }
  bool isEffect() const { return K == Kind::Effect; }
  RegionVar region() const { return RegionVar(Id); }
  EffectVar effect() const { return EffectVar(Id); }

  friend bool operator==(AtomicEffect A, AtomicEffect B) {
    return A.K == B.K && A.Id == B.Id;
  }
  friend bool operator!=(AtomicEffect A, AtomicEffect B) { return !(A == B); }
  friend bool operator<(AtomicEffect A, AtomicEffect B) {
    return A.K != B.K ? A.K < B.K : A.Id < B.Id;
  }
};

/// An effect phi: a finite set of atomic effects, kept sorted and
/// deduplicated so equality and subset tests are linear merges.
class Effect {
public:
  Effect() = default;
  Effect(std::initializer_list<AtomicEffect> Init)
      : Items(Init) {
    normalize();
  }
  explicit Effect(std::vector<AtomicEffect> Items) : Items(std::move(Items)) {
    normalize();
  }

  static Effect empty() { return Effect(); }

  bool isEmpty() const { return Items.empty(); }
  size_t size() const { return Items.size(); }

  bool contains(AtomicEffect A) const {
    return std::binary_search(Items.begin(), Items.end(), A);
  }
  bool contains(RegionVar R) const { return contains(AtomicEffect(R)); }
  bool contains(EffectVar E) const { return contains(AtomicEffect(E)); }

  /// True if every element of this effect is in \p Other.
  bool subsetOf(const Effect &Other) const {
    return std::includes(Other.Items.begin(), Other.Items.end(),
                         Items.begin(), Items.end());
  }

  void insert(AtomicEffect A) {
    auto It = std::lower_bound(Items.begin(), Items.end(), A);
    if (It == Items.end() || *It != A)
      Items.insert(It, A);
  }

  /// In-place union: this becomes this union \p Other, with no
  /// temporary set.
  void insertAll(const Effect &Other);

  /// Set union / difference / intersection (pure).
  Effect unionWith(const Effect &Other) const;
  Effect minus(const Effect &Other) const;
  Effect intersect(const Effect &Other) const;
  bool disjointFrom(const Effect &Other) const {
    return intersect(Other).isEmpty();
  }

  /// The region variables / effect variables contained in this effect.
  std::vector<RegionVar> regions() const;
  std::vector<EffectVar> effectVars() const;

  const std::vector<AtomicEffect> &items() const { return Items; }
  auto begin() const { return Items.begin(); }
  auto end() const { return Items.end(); }

  friend bool operator==(const Effect &A, const Effect &B) {
    return A.Items == B.Items;
  }
  friend bool operator!=(const Effect &A, const Effect &B) {
    return !(A == B);
  }

private:
  void normalize() {
    std::sort(Items.begin(), Items.end());
    Items.erase(std::unique(Items.begin(), Items.end()), Items.end());
  }

  std::vector<AtomicEffect> Items;
};

/// An arrow effect nu = eps.phi: an effect variable (the handle) paired
/// with the effect it denotes. The typing rules rely on the enclosing
/// derivation being *functional* (one denotation per handle) and
/// *transitive* (eps' in phi implies phi' subset phi) — see Section 3.5;
/// rcheck validates both.
struct ArrowEff {
  EffectVar Handle;
  Effect Phi;

  ArrowEff() = default;
  ArrowEff(EffectVar Handle, Effect Phi)
      : Handle(Handle), Phi(std::move(Phi)) {}

  /// frev(eps.phi) = {eps} union phi.
  Effect frev() const {
    Effect Out = Phi;
    Out.insert(AtomicEffect(Handle));
    return Out;
  }

  friend bool operator==(const ArrowEff &A, const ArrowEff &B) {
    return A.Handle == B.Handle && A.Phi == B.Phi;
  }
  friend bool operator!=(const ArrowEff &A, const ArrowEff &B) {
    return !(A == B);
  }
};

/// Printable forms: "r3", "e7", "{r1,e2}", "e0.{r1}".
std::string printRegionVar(RegionVar R);
std::string printEffectVar(EffectVar E);
std::string printAtomic(AtomicEffect A);
std::string printEffect(const Effect &Phi);
std::string printArrowEff(const ArrowEff &Nu);

} // namespace rml

#endif // RML_REGION_EFFECT_H
