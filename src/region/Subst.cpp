//===- region/Subst.cpp ---------------------------------------------------===//

#include "region/Subst.h"

#include "region/Containment.h"

#include <cassert>

using namespace rml;

Effect Subst::apply(const Effect &Phi) const {
  Effect Out;
  for (AtomicEffect A : Phi) {
    if (A.isRegion()) {
      Out.insert(AtomicEffect(apply(A.region())));
      continue;
    }
    ArrowEff Nu = applyEffectVar(A.effect());
    Out = Out.unionWith(Nu.frev());
  }
  return Out;
}

ArrowEff Subst::apply(const ArrowEff &Nu) const {
  ArrowEff Mapped = applyEffectVar(Nu.Handle);
  return ArrowEff(Mapped.Handle, Mapped.Phi.unionWith(apply(Nu.Phi)));
}

const Mu *Subst::apply(const Mu *M, RTypeArena &Arena) const {
  switch (M->K) {
  case Mu::Kind::Int:
  case Mu::Kind::Bool:
  case Mu::Kind::Unit:
    return M;
  case Mu::Kind::TyVar: {
    auto It = St.find(M->Alpha);
    return It == St.end() ? M : It->second;
  }
  case Mu::Kind::Boxed:
    return Arena.boxed(apply(M->T, Arena), apply(M->Rho));
  }
  return M;
}

const Tau *Subst::apply(const Tau *T, RTypeArena &Arena) const {
  switch (T->K) {
  case Tau::Kind::Pair:
    return Arena.pairTy(apply(T->A, Arena), apply(T->B, Arena));
  case Tau::Kind::Arrow:
    return Arena.arrowTy(apply(T->A, Arena), apply(T->Nu),
                         apply(T->B, Arena));
  case Tau::Kind::String:
  case Tau::Kind::Exn:
    return T;
  case Tau::Kind::List:
    return Arena.listTy(apply(T->A, Arena));
  case Tau::Kind::Ref:
    return Arena.refTy(apply(T->A, Arena));
  }
  return T;
}

TyVarCtx Subst::apply(const TyVarCtx &Delta) const {
  TyVarCtx Out;
  for (const auto &[Alpha, Nu] : Delta) {
    assert(!St.count(Alpha) &&
           "substitution domain overlaps type variable context");
    if (Nu)
      Out.bind(Alpha, apply(*Nu));
    else
      Out.bindPlain(Alpha);
  }
  return Out;
}

/// The free region/effect variables mentioned anywhere in \p S (domain
/// and range) — used to detect variable capture. Only asserts call it.
[[maybe_unused]] static Effect substFootprint(const Subst &S) {
  Effect Out;
  for (const auto &[R, R2] : S.Sr) {
    Out.insert(AtomicEffect(R));
    Out.insert(AtomicEffect(R2));
  }
  for (const auto &[E, Nu] : S.Se) {
    Out.insert(AtomicEffect(E));
    Out = Out.unionWith(Nu.frev());
  }
  for (const auto &[A, M] : S.St)
    Out = Out.unionWith(frevOf(M));
  return Out;
}

RScheme Subst::apply(const RScheme &Sigma, RTypeArena &Arena) const {
  assert(Sigma.boundVars().disjointFrom(substFootprint(*this)) &&
         "scheme bound variables capture the substitution");
  RScheme Out;
  Out.QRegions = Sigma.QRegions;
  Out.QEffects = Sigma.QEffects;
  Out.Delta = apply(Sigma.Delta);
  Out.Body = apply(Sigma.Body, Arena);
  return Out;
}

Pi Subst::apply(const Pi &P, RTypeArena &Arena) const {
  if (P.isMu())
    return Pi(apply(P.AsMu, Arena));
  return Pi(apply(P.Sigma, Arena), apply(P.Place));
}

std::string Subst::str() const {
  std::string Out = "[";
  bool First = true;
  for (const auto &[A, M] : St) {
    if (!First)
      Out += ", ";
    First = false;
    Out += printTyVar(A) + ":=" + printMu(M);
  }
  for (const auto &[R, R2] : Sr) {
    if (!First)
      Out += ", ";
    First = false;
    Out += printRegionVar(R) + ":=" + printRegionVar(R2);
  }
  for (const auto &[E, Nu] : Se) {
    if (!First)
      Out += ", ";
    First = false;
    Out += printEffectVar(E) + ":=" + printArrowEff(Nu);
  }
  Out += "]";
  return Out;
}

Subst rml::composeRestricted(const Subst &Outer, const Subst &Inner,
                             RTypeArena &Arena) {
  Subst Out;
  for (const auto &[A, M] : Inner.St)
    Out.St.emplace(A, Outer.apply(M, Arena));
  for (const auto &[R, R2] : Inner.Sr)
    Out.Sr.emplace(R, Outer.apply(R2));
  for (const auto &[E, Nu] : Inner.Se)
    Out.Se.emplace(E, Outer.apply(Nu));
  return Out;
}

bool rml::covers(const TyVarCtx &Omega, const Subst &S,
                 const TyVarCtx &Delta) {
  if (S.St.size() != Delta.size())
    return false;
  for (const auto &[Alpha, Nu] : Delta) {
    auto It = S.St.find(Alpha);
    if (It == S.St.end())
      return false;
    // Plain entries (Section 4.1) impose no coverage constraint.
    if (Nu && !typeContained(Omega, It->second, Nu->frev()))
      return false;
  }
  return true;
}

bool rml::instanceOf(const TyVarCtx &Omega, const RScheme &Sigma,
                     const Subst &S, const Tau *Expected, RTypeArena &Arena,
                     std::string *Why) {
  auto Fail = [&](std::string Msg) {
    if (Why)
      *Why = std::move(Msg);
    return false;
  };

  // 1. dom(Sr) = quantified regions, dom(Se) = quantified effect vars.
  if (S.Sr.size() != Sigma.QRegions.size())
    return Fail("region substitution domain does not match the quantified "
                "region variables");
  for (RegionVar R : Sigma.QRegions)
    if (!S.Sr.count(R))
      return Fail("quantified region " + printRegionVar(R) +
                  " is not in the substitution domain");
  if (S.Se.size() != Sigma.QEffects.size())
    return Fail("effect substitution domain does not match the quantified "
                "effect variables");
  for (EffectVar E : Sigma.QEffects)
    if (!S.Se.count(E))
      return Fail("quantified effect variable " + printEffectVar(E) +
                  " is not in the substitution domain");

  // 2. Apply the region-effect part, then check coverage of the type part
  // through the substituted Delta and compare the resulting body.
  Subst RegionEffect;
  RegionEffect.Sr = S.Sr;
  RegionEffect.Se = S.Se;
  TyVarCtx DeltaInst = RegionEffect.apply(Sigma.Delta);
  Subst TypeOnly;
  TypeOnly.St = S.St;
  if (!covers(Omega, TypeOnly, DeltaInst))
    return Fail("type substitution is not covered: an instantiated type "
                "mentions regions outside the bound type variable's arrow "
                "effect");
  const Tau *BodyInst =
      TypeOnly.apply(RegionEffect.apply(Sigma.Body, Arena), Arena);
  if (!tauEquals(BodyInst, Expected))
    return Fail("instantiated scheme body " + printTau(BodyInst) +
                " differs from the expected type " + printTau(Expected));
  return true;
}
