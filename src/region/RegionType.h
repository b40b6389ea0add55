//===- region/RegionType.h - Region-annotated types -------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region-annotated types, type schemes and type-variable contexts
/// (Section 3.2 of the paper):
///
///   mu  ::= (tau, rho) | alpha | int | bool | unit
///   tau ::= mu1 x mu2 | mu1 --eps.phi--> mu2
///         | string | mu list | mu ref | exn          (documented extensions)
///   sigma ::= forall rhos eps's Delta . tau          (normalised form)
///   pi  ::= (sigma, rho) | mu
///
/// A *type variable context* (Omega or Delta) maps type variables to arrow
/// effects; this is the paper's key device: the arrow effect of a bound
/// type variable captures the free region and effect variables of any type
/// instantiated for it (substitution coverage, Section 3.4), which is what
/// rules out the dangling pointers of Figure 1.
///
/// All nodes are immutable and owned by an RTypeArena.
///
//===----------------------------------------------------------------------===//

#ifndef RML_REGION_REGIONTYPE_H
#define RML_REGION_REGIONTYPE_H

#include "region/Effect.h"

#include <cassert>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace rml {

/// A region-calculus type variable (alpha). Distinct from the ML
/// unification variables of src/types; translation assigns ids.
struct TyVarId {
  uint32_t Id = UINT32_MAX;

  constexpr TyVarId() = default;
  constexpr explicit TyVarId(uint32_t Id) : Id(Id) {}

  bool isValid() const { return Id != UINT32_MAX; }
  friend bool operator==(TyVarId A, TyVarId B) { return A.Id == B.Id; }
  friend bool operator!=(TyVarId A, TyVarId B) { return A.Id != B.Id; }
  friend bool operator<(TyVarId A, TyVarId B) { return A.Id < B.Id; }
};

/// A type variable context Omega / Delta: a finite map from type
/// variables to arrow effects. Ordered for deterministic iteration.
///
/// Following the implementation refinement of Section 4.1, an entry may be
/// *plain* (no arrow effect): only spurious type variables need arrow
/// effects, and plain entries record that a variable is bound without
/// imposing coverage. Containment of a plain variable is not derivable —
/// exactly why a variable occurring in a captured binding's type must be
/// spurious.
class TyVarCtx {
public:
  TyVarCtx() = default;

  bool contains(TyVarId A) const { return Map.count(A) != 0; }
  /// The arrow effect of \p A, or null when \p A is unbound *or* plain.
  const ArrowEff *lookup(TyVarId A) const {
    auto It = Map.find(A);
    if (It == Map.end() || !It->second)
      return nullptr;
    return &*It->second;
  }
  void bind(TyVarId A, ArrowEff Nu) { Map[A] = std::move(Nu); }
  void bindPlain(TyVarId A) { Map[A] = std::nullopt; }

  /// Omega + Delta: right-biased union.
  TyVarCtx plus(const TyVarCtx &Other) const {
    TyVarCtx Out = *this;
    for (const auto &[A, Nu] : Other.Map)
      Out.Map[A] = Nu;
    return Out;
  }

  bool domainDisjoint(const TyVarCtx &Other) const {
    for (const auto &[A, Nu] : Other.Map)
      if (Map.count(A))
        return false;
    return true;
  }

  bool empty() const { return Map.empty(); }
  size_t size() const { return Map.size(); }
  auto begin() const { return Map.begin(); }
  auto end() const { return Map.end(); }

  /// frev of all arrow effects in the range (plain entries contribute
  /// nothing).
  Effect frev() const {
    Effect Out;
    for (const auto &[A, Nu] : Map)
      if (Nu)
        Out = Out.unionWith(Nu->frev());
    return Out;
  }

private:
  std::map<TyVarId, std::optional<ArrowEff>> Map;
};

struct Tau;

/// mu ::= (tau, rho) | alpha | int | bool | unit. Boxed types carry the
/// region their values live in; scalars are unboxed and placeless.
struct Mu {
  enum class Kind : uint8_t { TyVar, Int, Bool, Unit, Boxed };

  Kind K;
  TyVarId Alpha;            // TyVar
  const Tau *T = nullptr;   // Boxed
  RegionVar Rho;            // Boxed

  bool isBoxed() const { return K == Kind::Boxed; }
};

/// tau: the boxed type constructors.
struct Tau {
  enum class Kind : uint8_t { Pair, Arrow, String, List, Ref, Exn };

  Kind K;
  const Mu *A = nullptr; // Pair lhs / Arrow dom / List elem / Ref elem
  const Mu *B = nullptr; // Pair rhs / Arrow cod
  ArrowEff Nu;           // Arrow latent arrow effect
};

/// A (normalised) region type scheme: forall QRegions QEffects Delta. Body.
/// Every combination may be empty; a fully monomorphic boxed type is the
/// scheme with no quantifiers.
struct RScheme {
  std::vector<RegionVar> QRegions;
  std::vector<EffectVar> QEffects;
  TyVarCtx Delta;
  const Tau *Body = nullptr;

  bool hasQuantifiers() const {
    return !QRegions.empty() || !QEffects.empty() || !Delta.empty();
  }
  Effect boundVars() const {
    Effect Out;
    for (RegionVar R : QRegions)
      Out.insert(AtomicEffect(R));
    for (EffectVar E : QEffects)
      Out.insert(AtomicEffect(E));
    return Out;
  }
};

/// pi ::= (sigma, rho) | mu.
struct Pi {
  const Mu *AsMu = nullptr; // set iff pi is a plain mu
  RScheme Sigma;
  RegionVar Place;

  Pi() = default;
  explicit Pi(const Mu *M) : AsMu(M) {}
  Pi(RScheme S, RegionVar Place) : Sigma(std::move(S)), Place(Place) {}

  bool isMu() const { return AsMu != nullptr; }
};

/// Allocates immutable Mu/Tau nodes.
class RTypeArena {
public:
  const Mu *tyVar(TyVarId A) {
    Mu M;
    M.K = Mu::Kind::TyVar;
    M.Alpha = A;
    return add(M);
  }
  const Mu *intTy() { return scalar(Mu::Kind::Int); }
  const Mu *boolTy() { return scalar(Mu::Kind::Bool); }
  const Mu *unitTy() { return scalar(Mu::Kind::Unit); }
  const Mu *boxed(const Tau *T, RegionVar Rho) {
    Mu M;
    M.K = Mu::Kind::Boxed;
    M.T = T;
    M.Rho = Rho;
    return add(M);
  }

  const Tau *pairTy(const Mu *A, const Mu *B) {
    Tau T;
    T.K = Tau::Kind::Pair;
    T.A = A;
    T.B = B;
    return add(T);
  }
  const Tau *arrowTy(const Mu *A, ArrowEff Nu, const Mu *B) {
    Tau T;
    T.K = Tau::Kind::Arrow;
    T.A = A;
    T.B = B;
    T.Nu = std::move(Nu);
    return add(T);
  }
  const Tau *stringTy() {
    Tau T;
    T.K = Tau::Kind::String;
    return add(T);
  }
  const Tau *listTy(const Mu *A) {
    Tau T;
    T.K = Tau::Kind::List;
    T.A = A;
    return add(T);
  }
  const Tau *refTy(const Mu *A) {
    Tau T;
    T.K = Tau::Kind::Ref;
    T.A = A;
    return add(T);
  }
  const Tau *exnTy() {
    Tau T;
    T.K = Tau::Kind::Exn;
    return add(T);
  }

  size_t size() const { return Mus.size() + Taus.size(); }

private:
  const Mu *scalar(Mu::Kind K) {
    Mu M;
    M.K = K;
    return add(M);
  }
  const Mu *add(Mu M) {
    return &Mus.emplace_back(std::move(M));
  }
  const Tau *add(Tau T) {
    return &Taus.emplace_back(std::move(T));
  }

  // A deque never moves its elements as it grows, so the node pointers
  // handed out stay valid for the arena's lifetime.
  std::deque<Mu> Mus;
  std::deque<Tau> Taus;
};

//===----------------------------------------------------------------------===//
// Free variables (frv / frev / ftv)
//===----------------------------------------------------------------------===//

/// Free region variables of a type (schemes subtract their bound vars).
Effect frevOf(const Mu *M);
Effect frevOf(const Tau *T);
Effect frevOf(const RScheme &S);
Effect frevOf(const Pi &P);

/// Free region variables only (the regions of frev).
std::vector<RegionVar> frvOf(const Mu *M);
std::vector<RegionVar> frvOf(const Pi &P);

/// Free type variables.
std::vector<TyVarId> ftvOf(const Mu *M);
std::vector<TyVarId> ftvOf(const Tau *T);
std::vector<TyVarId> ftvOf(const RScheme &S);
std::vector<TyVarId> ftvOf(const Pi &P);

//===----------------------------------------------------------------------===//
// Structural equality and well-formedness
//===----------------------------------------------------------------------===//

bool muEquals(const Mu *A, const Mu *B);
bool tauEquals(const Tau *A, const Tau *B);
bool schemeEquals(const RScheme &A, const RScheme &B);
bool piEquals(const Pi &A, const Pi &B);

/// Well-formedness Omega |- mu (all free type variables bound in Omega).
bool wellFormed(const TyVarCtx &Omega, const Mu *M);
bool wellFormed(const TyVarCtx &Omega, const Pi &P);

//===----------------------------------------------------------------------===//
// Printing (paper-like notation)
//===----------------------------------------------------------------------===//

std::string printMu(const Mu *M);
std::string printTau(const Tau *T);
std::string printScheme(const RScheme &S);
std::string printPi(const Pi &P);
std::string printTyVar(TyVarId A);
std::string printTyVarCtx(const TyVarCtx &Ctx);

} // namespace rml

#endif // RML_REGION_REGIONTYPE_H
