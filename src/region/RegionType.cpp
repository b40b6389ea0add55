//===- region/RegionType.cpp ----------------------------------------------===//

#include "region/RegionType.h"

#include <algorithm>

using namespace rml;

//===----------------------------------------------------------------------===//
// Free variables
//===----------------------------------------------------------------------===//

static void frevMu(const Mu *M, Effect &Out);

static void frevTau(const Tau *T, Effect &Out) {
  switch (T->K) {
  case Tau::Kind::Pair:
    frevMu(T->A, Out);
    frevMu(T->B, Out);
    return;
  case Tau::Kind::Arrow:
    frevMu(T->A, Out);
    frevMu(T->B, Out);
    Out = Out.unionWith(T->Nu.frev());
    return;
  case Tau::Kind::String:
  case Tau::Kind::Exn:
    return;
  case Tau::Kind::List:
  case Tau::Kind::Ref:
    frevMu(T->A, Out);
    return;
  }
}

static void frevMu(const Mu *M, Effect &Out) {
  switch (M->K) {
  case Mu::Kind::TyVar:
  case Mu::Kind::Int:
  case Mu::Kind::Bool:
  case Mu::Kind::Unit:
    return;
  case Mu::Kind::Boxed:
    Out.insert(AtomicEffect(M->Rho));
    frevTau(M->T, Out);
    return;
  }
}

Effect rml::frevOf(const Mu *M) {
  Effect Out;
  frevMu(M, Out);
  return Out;
}

Effect rml::frevOf(const Tau *T) {
  Effect Out;
  frevTau(T, Out);
  return Out;
}

Effect rml::frevOf(const RScheme &S) {
  Effect Out = frevOf(S.Body);
  Out = Out.unionWith(S.Delta.frev());
  return Out.minus(S.boundVars());
}

Effect rml::frevOf(const Pi &P) {
  if (P.isMu())
    return frevOf(P.AsMu);
  Effect Out = frevOf(P.Sigma);
  Out.insert(AtomicEffect(P.Place));
  return Out;
}

std::vector<RegionVar> rml::frvOf(const Mu *M) { return frevOf(M).regions(); }
std::vector<RegionVar> rml::frvOf(const Pi &P) { return frevOf(P).regions(); }

static void ftvMu(const Mu *M, std::vector<TyVarId> &Out);

static void ftvTau(const Tau *T, std::vector<TyVarId> &Out) {
  if (T->A)
    ftvMu(T->A, Out);
  if (T->B)
    ftvMu(T->B, Out);
}

static void ftvMu(const Mu *M, std::vector<TyVarId> &Out) {
  if (M->K == Mu::Kind::TyVar) {
    if (std::find(Out.begin(), Out.end(), M->Alpha) == Out.end())
      Out.push_back(M->Alpha);
    return;
  }
  if (M->K == Mu::Kind::Boxed)
    ftvTau(M->T, Out);
}

std::vector<TyVarId> rml::ftvOf(const Mu *M) {
  std::vector<TyVarId> Out;
  ftvMu(M, Out);
  return Out;
}

std::vector<TyVarId> rml::ftvOf(const Tau *T) {
  std::vector<TyVarId> Out;
  ftvTau(T, Out);
  return Out;
}

std::vector<TyVarId> rml::ftvOf(const RScheme &S) {
  std::vector<TyVarId> Out = ftvOf(S.Body);
  std::erase_if(Out, [&](TyVarId A) { return S.Delta.contains(A); });
  return Out;
}

std::vector<TyVarId> rml::ftvOf(const Pi &P) {
  return P.isMu() ? ftvOf(P.AsMu) : ftvOf(P.Sigma);
}

//===----------------------------------------------------------------------===//
// Equality
//===----------------------------------------------------------------------===//

bool rml::tauEquals(const Tau *A, const Tau *B) {
  if (A == B)
    return true;
  if (A->K != B->K)
    return false;
  switch (A->K) {
  case Tau::Kind::Pair:
    return muEquals(A->A, B->A) && muEquals(A->B, B->B);
  case Tau::Kind::Arrow:
    return A->Nu == B->Nu && muEquals(A->A, B->A) && muEquals(A->B, B->B);
  case Tau::Kind::String:
  case Tau::Kind::Exn:
    return true;
  case Tau::Kind::List:
  case Tau::Kind::Ref:
    return muEquals(A->A, B->A);
  }
  return false;
}

bool rml::muEquals(const Mu *A, const Mu *B) {
  if (A == B)
    return true;
  if (A->K != B->K)
    return false;
  switch (A->K) {
  case Mu::Kind::TyVar:
    return A->Alpha == B->Alpha;
  case Mu::Kind::Int:
  case Mu::Kind::Bool:
  case Mu::Kind::Unit:
    return true;
  case Mu::Kind::Boxed:
    return A->Rho == B->Rho && tauEquals(A->T, B->T);
  }
  return false;
}

bool rml::schemeEquals(const RScheme &A, const RScheme &B) {
  // Structural (not alpha-equivalence): sufficient because inference
  // emits canonically named schemes.
  if (A.QRegions != B.QRegions || A.QEffects != B.QEffects)
    return false;
  if (A.Delta.size() != B.Delta.size())
    return false;
  auto It = B.Delta.begin();
  for (const auto &[Alpha, Nu] : A.Delta) {
    if (!(It->first == Alpha) || !(It->second == Nu))
      return false;
    ++It;
  }
  return tauEquals(A.Body, B.Body);
}

bool rml::piEquals(const Pi &A, const Pi &B) {
  if (A.isMu() != B.isMu())
    return false;
  if (A.isMu())
    return muEquals(A.AsMu, B.AsMu);
  return A.Place == B.Place && schemeEquals(A.Sigma, B.Sigma);
}

//===----------------------------------------------------------------------===//
// Well-formedness
//===----------------------------------------------------------------------===//

static bool wfTau(const TyVarCtx &Omega, const Tau *T);

static bool wfMu(const TyVarCtx &Omega, const Mu *M) {
  switch (M->K) {
  case Mu::Kind::TyVar:
    return Omega.contains(M->Alpha);
  case Mu::Kind::Int:
  case Mu::Kind::Bool:
  case Mu::Kind::Unit:
    return true;
  case Mu::Kind::Boxed:
    return wfTau(Omega, M->T);
  }
  return false;
}

static bool wfTau(const TyVarCtx &Omega, const Tau *T) {
  if (T->A && !wfMu(Omega, T->A))
    return false;
  if (T->B && !wfMu(Omega, T->B))
    return false;
  return true;
}

bool rml::wellFormed(const TyVarCtx &Omega, const Mu *M) {
  return wfMu(Omega, M);
}

bool rml::wellFormed(const TyVarCtx &Omega, const Pi &P) {
  if (P.isMu())
    return wfMu(Omega, P.AsMu);
  if (!Omega.domainDisjoint(P.Sigma.Delta))
    return false;
  return wfTau(Omega.plus(P.Sigma.Delta), P.Sigma.Body);
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string rml::printTyVar(TyVarId A) {
  if (!A.isValid())
    return "'?";
  std::string Out = "'";
  uint32_t I = A.Id;
  Out += static_cast<char>('a' + I % 26);
  if (I >= 26)
    Out += std::to_string(I / 26);
  return Out;
}

std::string rml::printTau(const Tau *T) {
  switch (T->K) {
  case Tau::Kind::Pair:
    return printMu(T->A) + " * " + printMu(T->B);
  case Tau::Kind::Arrow:
    return printMu(T->A) + " -" + printArrowEff(T->Nu) + "-> " +
           printMu(T->B);
  case Tau::Kind::String:
    return "string";
  case Tau::Kind::Exn:
    return "exn";
  case Tau::Kind::List:
    return printMu(T->A) + " list";
  case Tau::Kind::Ref:
    return printMu(T->A) + " ref";
  }
  return "?";
}

std::string rml::printMu(const Mu *M) {
  switch (M->K) {
  case Mu::Kind::TyVar:
    return printTyVar(M->Alpha);
  case Mu::Kind::Int:
    return "int";
  case Mu::Kind::Bool:
    return "bool";
  case Mu::Kind::Unit:
    return "unit";
  case Mu::Kind::Boxed: {
    std::string Out = "(";
    Out += printTau(M->T);
    Out += ", ";
    Out += printRegionVar(M->Rho);
    Out += ')';
    return Out;
  }
  }
  return "?";
}

std::string rml::printTyVarCtx(const TyVarCtx &Ctx) {
  std::string Out;
  bool First = true;
  for (const auto &[Alpha, Nu] : Ctx) {
    if (!First)
      Out += " ";
    First = false;
    Out += '(';
    Out += printTyVar(Alpha);
    if (Nu) {
      Out += ':';
      Out += printArrowEff(*Nu);
    }
    Out += ')';
  }
  return Out;
}

std::string rml::printScheme(const RScheme &S) {
  if (!S.hasQuantifiers())
    return printTau(S.Body);
  std::string Out = "forall";
  for (RegionVar R : S.QRegions) {
    Out += ' ';
    Out += printRegionVar(R);
  }
  for (EffectVar E : S.QEffects) {
    Out += ' ';
    Out += printEffectVar(E);
  }
  if (!S.Delta.empty()) {
    Out += ' ';
    Out += printTyVarCtx(S.Delta);
  }
  Out += ". ";
  Out += printTau(S.Body);
  return Out;
}

std::string rml::printPi(const Pi &P) {
  if (P.isMu())
    return printMu(P.AsMu);
  std::string Out = "(";
  Out += printScheme(P.Sigma);
  Out += ", ";
  Out += printRegionVar(P.Place);
  Out += ')';
  return Out;
}
