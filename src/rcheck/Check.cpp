//===- rcheck/Check.cpp ---------------------------------------------------===//

#include "rcheck/Check.h"

#include "region/Subst.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace rml;

//===----------------------------------------------------------------------===//
// Value containment (Figure 3)
//===----------------------------------------------------------------------===//

bool rml::valueContained(const Effect &Phi, const RExpr *V) {
  switch (V->K) {
  case RExpr::Kind::IntLit:
  case RExpr::Kind::BoolLit:
  case RExpr::Kind::UnitLit:
  case RExpr::Kind::NilVal:
    return true;
  case RExpr::Kind::ClosVal:
    return Phi.contains(V->AtRho) && exprValuesContained(Phi, V->A);
  case RExpr::Kind::StrVal:
    return Phi.contains(V->AtRho);
  case RExpr::Kind::PairVal:
  case RExpr::Kind::ConsVal:
    return Phi.contains(V->AtRho) && valueContained(Phi, V->A) &&
           valueContained(Phi, V->B);
  case RExpr::Kind::FunVal: {
    if (!Phi.contains(V->AtRho))
      return false;
    // { \vec{rho} } cap phi = {} : the quantified regions are placeholders
    // bound inside the function value, not live regions.
    for (RegionVar R : V->Sigma.QRegions)
      if (Phi.contains(R))
        return false;
    return exprValuesContained(Phi, V->A);
  }
  default:
    return false; // not a value
  }
}

bool rml::exprValuesContained(const Effect &Phi, const RExpr *E) {
  if (!E)
    return true;
  if (E->isValue())
    return valueContained(Phi, E);
  switch (E->K) {
  case RExpr::Kind::LetRegion: {
    if (Phi.contains(E->BoundRho))
      return false;
    return exprValuesContained(Phi, E->A);
  }
  case RExpr::Kind::FunBind: {
    for (RegionVar R : E->Sigma.QRegions)
      if (Phi.contains(R))
        return false;
    return exprValuesContained(Phi, E->A);
  }
  default:
    if (!exprValuesContained(Phi, E->A) || !exprValuesContained(Phi, E->B) ||
        !exprValuesContained(Phi, E->C))
      return false;
    for (const RExpr *Item : E->Items)
      if (!exprValuesContained(Phi, Item))
        return false;
    return true;
  }
}

//===----------------------------------------------------------------------===//
// GC safety relation (definition (4))
//===----------------------------------------------------------------------===//

bool rml::gcSafe(const TyVarCtx &Omega,
                 const std::vector<std::pair<Symbol, Pi>> &FreeBindings,
                 const RExpr *E, const Pi &P, std::string *Why) {
  Effect Frev = frevOf(P);
  if (!P.isMu())
    Frev.insert(AtomicEffect(P.Place));
  // frv(pi) |=v e : value containment over the function body.
  Effect Frv;
  for (RegionVar R : Frev.regions())
    Frv.insert(AtomicEffect(R));
  if (!exprValuesContained(Frv, E)) {
    if (Why)
      *Why = "a value embedded in the body lives outside frv(pi)";
    return false;
  }
  // forall y in fpv(e)\X . Omega |- Gamma(y) : frev(pi). Non-spurious
  // (plain) type variables of a captured type are admissible exactly when
  // they occur in the function's own type: the substituted regions then
  // stay reachable through the function type itself.
  std::vector<TyVarId> PlainOk = ftvOf(P);
  for (const auto &[Y, PiY] : FreeBindings) {
    if (!piContained(Omega, PiY, Frev, &PlainOk)) {
      if (Why)
        *Why = "captured binding has type " + printPi(PiY) +
               " not contained in frev(pi) = " + printEffect(Frev);
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The checker
//===----------------------------------------------------------------------===//

namespace {

class RChecker {
public:
  RChecker(const FreeVarTable &Free, RTypeArena &Arena, const Interner &Names,
           DiagnosticEngine &Diags, GcSafety Safety)
      : Free(Free), Arena(Arena), Names(Names), Diags(Diags), Safety(Safety) {}

  std::vector<std::pair<Symbol, Pi>> Gamma;
  std::vector<std::pair<Symbol, const Mu *>> ExnSigs;

  std::optional<CheckResult> check(const TyVarCtx &Omega, const RExpr *E);

  /// Validates the arrow-effect basis collected during checking:
  /// transitivity (functionality is enforced on insertion).
  bool validateBasis();

private:
  std::optional<CheckResult> fail(const RExpr *E, std::string Msg) {
    Diags.error(E ? E->Loc : SrcLoc(), std::move(Msg));
    return std::nullopt;
  }

  const Pi *lookup(Symbol S) const {
    for (size_t I = Gamma.size(); I-- > 0;)
      if (Gamma[I].first == S)
        return &Gamma[I].second;
    return nullptr;
  }

  const Mu *lookupExn(Symbol S) const {
    for (const auto &[Name, M] : ExnSigs)
      if (Name == S)
        return M;
    return nullptr;
  }

  /// Records every arrow effect occurring in \p M into the basis,
  /// enforcing functionality (Section 3.5).
  bool recordBasis(const Mu *M, const RExpr *At);
  bool recordBasisTau(const Tau *T, const RExpr *At);
  bool recordArrow(const ArrowEff &Nu, const RExpr *At);

  /// Gamma restricted to fpv(E) minus \p Exclude.
  std::vector<std::pair<Symbol, Pi>>
  freeBindings(const RExpr *E, const std::vector<Symbol> &Exclude) const;

  /// frev of Omega, the free bindings relevant to E, and Mu — the set the
  /// [TeReg] and fun rules must avoid.
  Effect contextFrev(const TyVarCtx &Omega, const RExpr *Scope,
                     const Mu *M) const;

  std::optional<Pi> checkValue(const RExpr *V);

  std::optional<CheckResult> checkLam(const TyVarCtx &Omega, const RExpr *E);
  std::optional<CheckResult> checkFun(const TyVarCtx &Omega, const RExpr *E);

  /// Requires the result of \p R to be a plain mu.
  const Mu *asMu(const CheckResult &R, const RExpr *E, const char *Ctx) {
    if (R.Type.isMu())
      return R.Type.AsMu;
    Diags.error(E->Loc, std::string(Ctx) +
                            ": expected a monomorphic type, found scheme " +
                            printPi(R.Type));
    return nullptr;
  }

  const FreeVarTable &Free;
  RTypeArena &Arena;
  const Interner &Names;
  DiagnosticEngine &Diags;
  GcSafety Safety;
  std::map<EffectVar, Effect> Basis;
};

bool RChecker::recordArrow(const ArrowEff &Nu, const RExpr *At) {
  auto It = Basis.find(Nu.Handle);
  if (It == Basis.end()) {
    Basis.emplace(Nu.Handle, Nu.Phi);
    return true;
  }
  if (It->second == Nu.Phi)
    return true;
  Diags.error(At ? At->Loc : SrcLoc(),
              "arrow-effect basis is not functional: " +
                  printEffectVar(Nu.Handle) + " denotes both " +
                  printEffect(It->second) + " and " + printEffect(Nu.Phi));
  return false;
}

bool RChecker::recordBasisTau(const Tau *T, const RExpr *At) {
  switch (T->K) {
  case Tau::Kind::Arrow:
    if (!recordArrow(T->Nu, At))
      return false;
    return recordBasis(T->A, At) && recordBasis(T->B, At);
  case Tau::Kind::Pair:
    return recordBasis(T->A, At) && recordBasis(T->B, At);
  case Tau::Kind::List:
  case Tau::Kind::Ref:
    return recordBasis(T->A, At);
  case Tau::Kind::String:
  case Tau::Kind::Exn:
    return true;
  }
  return true;
}

bool RChecker::recordBasis(const Mu *M, const RExpr *At) {
  if (M->K == Mu::Kind::Boxed)
    return recordBasisTau(M->T, At);
  return true;
}

bool RChecker::validateBasis() {
  for (const auto &[Handle, Phi] : Basis) {
    for (EffectVar Inner : Phi.effectVars()) {
      auto It = Basis.find(Inner);
      if (It == Basis.end())
        continue;
      if (!It->second.subsetOf(Phi)) {
        Diags.error(SrcLoc(), "arrow-effect basis is not transitive: " +
                                  printEffectVar(Inner) + " in " +
                                  printEffect(Phi) + " but its denotation " +
                                  printEffect(It->second) +
                                  " is not included");
        return false;
      }
    }
  }
  return true;
}

std::vector<std::pair<Symbol, Pi>>
RChecker::freeBindings(const RExpr *E,
                       const std::vector<Symbol> &Exclude) const {
  std::vector<std::pair<Symbol, Pi>> Out;
  for (Symbol S : Free.of(E)) {
    if (std::find(Exclude.begin(), Exclude.end(), S) != Exclude.end())
      continue;
    if (const Pi *P = lookup(S))
      Out.emplace_back(S, *P);
  }
  return Out;
}

Effect RChecker::contextFrev(const TyVarCtx &Omega, const RExpr *Scope,
                             const Mu *M) const {
  Effect Out = Omega.frev();
  for (Symbol S : Free.of(Scope))
    if (const Pi *P = lookup(S))
      Out.insertAll(frevOf(*P));
  if (M)
    Out.insertAll(frevOf(M));
  return Out;
}

//===----------------------------------------------------------------------===//
// Values (Figure 4, top)
//===----------------------------------------------------------------------===//

std::optional<Pi> RChecker::checkValue(const RExpr *V) {
  switch (V->K) {
  case RExpr::Kind::IntLit:
    return Pi(Arena.intTy());
  case RExpr::Kind::BoolLit:
    return Pi(Arena.boolTy());
  case RExpr::Kind::UnitLit:
    return Pi(Arena.unitTy());
  case RExpr::Kind::StrVal:
    return Pi(Arena.boxed(Arena.stringTy(), V->AtRho));
  case RExpr::Kind::NilVal: {
    if (!V->MuOf || V->MuOf->K != Mu::Kind::Boxed ||
        V->MuOf->T->K != Tau::Kind::List) {
      Diags.error(V->Loc, "nil value without a list type annotation");
      return std::nullopt;
    }
    return Pi(V->MuOf);
  }
  case RExpr::Kind::PairVal: {
    std::optional<Pi> A = checkValue(V->A);
    std::optional<Pi> B = checkValue(V->B);
    if (!A || !B || !A->isMu() || !B->isMu())
      return std::nullopt;
    return Pi(Arena.boxed(Arena.pairTy(A->AsMu, B->AsMu), V->AtRho));
  }
  case RExpr::Kind::ConsVal: {
    std::optional<Pi> A = checkValue(V->A);
    std::optional<Pi> B = checkValue(V->B);
    if (!A || !B || !A->isMu() || !B->isMu())
      return std::nullopt;
    const Mu *TailMu = B->AsMu;
    if (TailMu->K != Mu::Kind::Boxed || TailMu->T->K != Tau::Kind::List ||
        !muEquals(TailMu->T->A, A->AsMu)) {
      Diags.error(V->Loc, "ill-typed cons value");
      return std::nullopt;
    }
    if (TailMu->Rho != V->AtRho &&
        TailMu->T->A /* nil tail may sit anywhere conceptually */) {
      // List cells are region-uniform: every cell of a list lives in the
      // same region as the spine.
      if (V->B->K != RExpr::Kind::NilVal) {
        Diags.error(V->Loc, "cons cell and tail live in different regions");
        return std::nullopt;
      }
    }
    return Pi(Arena.boxed(Arena.listTy(A->AsMu), V->AtRho));
  }
  case RExpr::Kind::ClosVal: {
    // [TvLam]: {}, {x:mu1} |- e : mu2, phi ; frv(mu) |=v e.
    if (!V->ParamMu) {
      Diags.error(V->Loc, "closure value without parameter type");
      return std::nullopt;
    }
    std::vector<std::pair<Symbol, Pi>> Saved;
    Saved.swap(Gamma);
    Gamma.emplace_back(V->Param, Pi(V->ParamMu));
    std::optional<CheckResult> Body = check({}, V->A);
    Gamma.swap(Saved);
    if (!Body || !Body->Type.isMu())
      return std::nullopt;
    if (!Body->Phi.subsetOf(V->LatentNu.Phi)) {
      Diags.error(V->Loc,
                  "closure body effect " + printEffect(Body->Phi) +
                      " exceeds latent effect " + printEffect(V->LatentNu.Phi));
      return std::nullopt;
    }
    const Mu *M = Arena.boxed(
        Arena.arrowTy(V->ParamMu, V->LatentNu, Body->Type.AsMu), V->AtRho);
    if (!recordBasis(M, V))
      return std::nullopt;
    if (Safety == GcSafety::On) {
      Effect Frv;
      for (RegionVar R : frevOf(M).regions())
        Frv.insert(AtomicEffect(R));
      if (!exprValuesContained(Frv, V->A)) {
        Diags.error(V->Loc, "closure value captures a value outside the "
                            "regions of its type (dangling pointer)");
        return std::nullopt;
      }
    }
    return Pi(M);
  }
  case RExpr::Kind::FunVal: {
    // [TvFun]/[TvRec]: body under Delta (and f for recursive uses).
    const RScheme &S = V->Sigma;
    if (!S.Body || S.Body->K != Tau::Kind::Arrow) {
      Diags.error(V->Loc, "fun value scheme body is not a function type");
      return std::nullopt;
    }
    Effect Bound = S.boundVars();
    if (Bound.contains(V->AtRho)) {
      Diags.error(V->Loc, "fun value quantifies its own region");
      return std::nullopt;
    }
    bool Recursive = Free.isFree(V->A, V->Name) && V->Name != V->Param;
    if (Recursive && !Bound.disjointFrom(S.Delta.frev())) {
      Diags.error(V->Loc,
                  "[TvRec]: quantified region/effect variables intersect "
                  "frev(Delta)");
      return std::nullopt;
    }
    std::vector<std::pair<Symbol, Pi>> Saved;
    Saved.swap(Gamma);
    if (Recursive) {
      // [TvRec]: f is bound *without* Delta — its type variables are
      // already bound in the ambient context; self-sites instantiate
      // them by identity.
      RScheme FScheme;
      FScheme.QRegions = S.QRegions;
      FScheme.QEffects = S.QEffects;
      FScheme.Body = S.Body;
      Gamma.emplace_back(V->Name, Pi(FScheme, V->AtRho));
    }
    Gamma.emplace_back(V->Param, Pi(S.Body->A));
    std::optional<CheckResult> Body = check(S.Delta, V->A);
    Gamma.swap(Saved);
    if (!Body || !Body->Type.isMu())
      return std::nullopt;
    if (!muEquals(Body->Type.AsMu, S.Body->B)) {
      Diags.error(V->Loc, "fun value body type " + printMu(Body->Type.AsMu) +
                              " differs from scheme result " +
                              printMu(S.Body->B));
      return std::nullopt;
    }
    if (!Body->Phi.subsetOf(S.Body->Nu.Phi)) {
      Diags.error(V->Loc, "fun value body effect " + printEffect(Body->Phi) +
                              " exceeds latent effect " +
                              printEffect(S.Body->Nu.Phi));
      return std::nullopt;
    }
    Pi P(S, V->AtRho);
    if (!recordArrow(S.Body->Nu, V))
      return std::nullopt;
    if (Safety == GcSafety::On) {
      Effect Frv;
      for (RegionVar R : frevOf(P).regions())
        Frv.insert(AtomicEffect(R));
      Frv.insert(AtomicEffect(V->AtRho));
      if (!exprValuesContained(Frv, V->A)) {
        Diags.error(V->Loc, "fun value captures a value outside the regions "
                            "of its type (dangling pointer)");
        return std::nullopt;
      }
    }
    return P;
  }
  default:
    Diags.error(V->Loc, "expected a value");
    return std::nullopt;
  }
}

//===----------------------------------------------------------------------===//
// Lambda and fun expressions
//===----------------------------------------------------------------------===//

std::optional<CheckResult> RChecker::checkLam(const TyVarCtx &Omega,
                                              const RExpr *E) {
  // [TeLam].
  if (!E->ParamMu)
    return fail(E, "lambda without parameter type annotation");
  Gamma.emplace_back(E->Param, Pi(E->ParamMu));
  std::optional<CheckResult> Body = check(Omega, E->A);
  Gamma.pop_back();
  if (!Body)
    return std::nullopt;
  const Mu *BodyMu = asMu(*Body, E, "lambda body");
  if (!BodyMu)
    return std::nullopt;
  if (!Body->Phi.subsetOf(E->LatentNu.Phi))
    return fail(E, "lambda body effect " + printEffect(Body->Phi) +
                       " exceeds declared latent effect " +
                       printEffect(E->LatentNu.Phi));
  const Mu *M =
      Arena.boxed(Arena.arrowTy(E->ParamMu, E->LatentNu, BodyMu), E->AtRho);
  if (!wellFormed(Omega, M))
    return fail(E, "lambda type is not well-formed in the type variable "
                   "context: " +
                       printMu(M));
  if (!recordBasis(M, E))
    return std::nullopt;
  std::string GWhy;
  if (Safety == GcSafety::On &&
      !gcSafe(Omega, freeBindings(E->A, {E->Param}), E->A, Pi(M), &GWhy))
    return fail(E, "GC-safety violation [TeLam] for function of type " +
                       printMu(M) + ": " + GWhy);
  CheckResult R;
  R.Type = Pi(M);
  R.Phi = Effect{AtomicEffect(E->AtRho)};
  return R;
}

std::optional<CheckResult> RChecker::checkFun(const TyVarCtx &Omega,
                                              const RExpr *E) {
  // [TeFun] and the polymorphic-recursion variant.
  const RScheme &S = E->Sigma;
  if (!S.Body || S.Body->K != Tau::Kind::Arrow)
    return fail(E, "fun binding scheme body is not a function type");
  Pi P(S, E->AtRho);
  if (!wellFormed(Omega, P))
    return fail(E, "fun scheme is not well-formed: " + printPi(P));
  // (dom(Delta) u frev(rhos epss)) disjoint from fv(Omega, Gamma, rho).
  Effect Bound = S.boundVars();
  Effect CtxF = contextFrev(Omega, E, nullptr);
  CtxF.insert(AtomicEffect(E->AtRho));
  if (!Bound.disjointFrom(CtxF))
    return fail(E, "fun binding quantifies variables free in the context: " +
                       printEffect(Bound.intersect(CtxF)));
  for (const auto &[Alpha, Nu] : S.Delta)
    if (Omega.contains(Alpha))
      return fail(E, "fun binding re-quantifies type variable " +
                         printTyVar(Alpha));

  bool Recursive = Free.isFree(E->A, E->Name) && E->Name != E->Param;
  if (Recursive && !Bound.disjointFrom(S.Delta.frev()))
    return fail(E, "[TeFun-rec]: quantified region/effect variables "
                   "intersect frev(Delta)");

  size_t Mark = Gamma.size();
  if (Recursive) {
    RScheme FScheme;
    FScheme.QRegions = S.QRegions;
    FScheme.QEffects = S.QEffects;
    FScheme.Body = S.Body;
    Gamma.emplace_back(E->Name, Pi(FScheme, E->AtRho));
  }
  Gamma.emplace_back(E->Param, Pi(S.Body->A));
  std::optional<CheckResult> Body = check(Omega.plus(S.Delta), E->A);
  Gamma.resize(Mark);
  if (!Body)
    return std::nullopt;
  const Mu *BodyMu = asMu(*Body, E, "fun body");
  if (!BodyMu)
    return std::nullopt;
  if (!muEquals(BodyMu, S.Body->B))
    return fail(E, "fun body type " + printMu(BodyMu) +
                       " differs from scheme result " + printMu(S.Body->B));
  if (!Body->Phi.subsetOf(S.Body->Nu.Phi))
    return fail(E, "fun body effect " + printEffect(Body->Phi) +
                       " exceeds latent effect " +
                       printEffect(S.Body->Nu.Phi));
  if (!recordArrow(S.Body->Nu, E))
    return std::nullopt;
  std::string GWhy;
  if (Safety == GcSafety::On &&
      !gcSafe(Omega, freeBindings(E->A, {E->Name, E->Param}), E->A, P,
              &GWhy))
    return fail(E, "GC-safety violation [TeFun] for scheme " + printPi(P) +
                       ": " + GWhy);
  CheckResult R;
  R.Type = P;
  R.Phi = Effect{AtomicEffect(E->AtRho)};
  return R;
}

//===----------------------------------------------------------------------===//
// Expressions (Figure 4, bottom)
//===----------------------------------------------------------------------===//

std::optional<CheckResult> RChecker::check(const TyVarCtx &Omega,
                                           const RExpr *E) {
  switch (E->K) {
  // [TeVal]
  case RExpr::Kind::IntLit:
  case RExpr::Kind::BoolLit:
  case RExpr::Kind::UnitLit:
  case RExpr::Kind::NilVal:
  case RExpr::Kind::ClosVal:
  case RExpr::Kind::FunVal:
  case RExpr::Kind::PairVal:
  case RExpr::Kind::StrVal:
  case RExpr::Kind::ConsVal: {
    std::optional<Pi> P = checkValue(E);
    if (!P)
      return std::nullopt;
    CheckResult R;
    R.Type = *P;
    return R;
  }

  // [TeVar]
  case RExpr::Kind::Var: {
    const Pi *P = lookup(E->Name);
    if (!P)
      return fail(E, "unbound variable '" + Names.text(E->Name) + "'");
    CheckResult R;
    R.Type = *P;
    return R;
  }

  case RExpr::Kind::Lam:
    return checkLam(Omega, E);
  case RExpr::Kind::FunBind:
    return checkFun(Omega, E);

  // [TeLet]
  case RExpr::Kind::Let: {
    std::optional<CheckResult> A = check(Omega, E->A);
    if (!A)
      return std::nullopt;
    Gamma.emplace_back(E->Name, A->Type);
    std::optional<CheckResult> B = check(Omega, E->B);
    Gamma.pop_back();
    if (!B)
      return std::nullopt;
    CheckResult R;
    R.Type = B->Type;
    R.Phi = A->Phi.unionWith(B->Phi);
    return R;
  }

  // [TeApp]
  case RExpr::Kind::App: {
    std::optional<CheckResult> F = check(Omega, E->A);
    std::optional<CheckResult> X = check(Omega, E->B);
    if (!F || !X)
      return std::nullopt;
    const Mu *FMu = asMu(*F, E, "application");
    const Mu *XMu = X->Type.isMu() ? X->Type.AsMu : nullptr;
    if (!FMu || !XMu)
      return std::nullopt;
    if (FMu->K != Mu::Kind::Boxed || FMu->T->K != Tau::Kind::Arrow)
      return fail(E, "applied expression has non-function type " +
                         printMu(FMu));
    if (!muEquals(FMu->T->A, XMu))
      return fail(E, "argument type " + printMu(XMu) +
                         " does not match parameter type " +
                         printMu(FMu->T->A));
    CheckResult R;
    R.Type = Pi(FMu->T->B);
    R.Phi = F->Phi.unionWith(X->Phi).unionWith(FMu->T->Nu.Phi);
    R.Phi.insert(AtomicEffect(FMu->T->Nu.Handle));
    R.Phi.insert(AtomicEffect(FMu->Rho));
    return R;
  }

  // [TeRapp]
  case RExpr::Kind::RApp: {
    std::optional<CheckResult> F = check(Omega, E->A);
    if (!F)
      return std::nullopt;
    if (F->Type.isMu())
      return fail(E, "region application of a monomorphic expression");
    if (!E->MuOf || E->MuOf->K != Mu::Kind::Boxed)
      return fail(E, "region application without a recorded result type");
    const Tau *Expected = E->MuOf->T;
    // Self-calls under [TvRec] carry identity type entries for the Delta
    // variables (so an outer instantiation composes into them); against
    // the Delta-free recursive scheme those identities are vacuous and
    // are stripped before checking the instance-of relation.
    Subst Inst = E->Inst;
    for (auto It = Inst.St.begin(); It != Inst.St.end();) {
      bool Identity = It->second->K == Mu::Kind::TyVar &&
                      It->second->Alpha == It->first;
      if (Identity && !F->Type.Sigma.Delta.contains(It->first))
        It = Inst.St.erase(It);
      else
        ++It;
    }
    std::string Why;
    if (Safety == GcSafety::On) {
      if (!instanceOf(Omega, F->Type.Sigma, Inst, Expected, Arena, &Why))
        return fail(E, "instantiation is not an instance of the scheme " +
                           printScheme(F->Type.Sigma) + ": " + Why);
    } else {
      // Tofte-Talpin instantiation: no coverage requirement.
      Subst RegionEffect;
      RegionEffect.Sr = Inst.Sr;
      RegionEffect.Se = Inst.Se;
      Subst TypeOnly;
      TypeOnly.St = Inst.St;
      const Tau *BodyInst = TypeOnly.apply(
          RegionEffect.apply(F->Type.Sigma.Body, Arena), Arena);
      if (!tauEquals(BodyInst, Expected))
        return fail(E, "instantiated body " + printTau(BodyInst) +
                           " differs from recorded type " +
                           printTau(Expected));
    }
    if (!wellFormed(Omega, E->MuOf))
      return fail(E, "instantiated type is not well-formed");
    if (!recordBasis(E->MuOf, E))
      return std::nullopt;
    CheckResult R;
    R.Type = Pi(E->MuOf);
    R.Phi = F->Phi;
    R.Phi.insert(AtomicEffect(E->AtRho));
    R.Phi.insert(AtomicEffect(F->Type.Place));
    return R;
  }

  // [TePair]
  case RExpr::Kind::PairE: {
    std::optional<CheckResult> A = check(Omega, E->A);
    std::optional<CheckResult> B = check(Omega, E->B);
    if (!A || !B)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "pair"), *BM = asMu(*B, E, "pair");
    if (!AM || !BM)
      return std::nullopt;
    CheckResult R;
    R.Type = Pi(Arena.boxed(Arena.pairTy(AM, BM), E->AtRho));
    R.Phi = A->Phi.unionWith(B->Phi);
    R.Phi.insert(AtomicEffect(E->AtRho));
    return R;
  }

  // [TeSel]
  case RExpr::Kind::Sel: {
    std::optional<CheckResult> A = check(Omega, E->A);
    if (!A)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "projection");
    if (!AM)
      return std::nullopt;
    if (AM->K != Mu::Kind::Boxed || AM->T->K != Tau::Kind::Pair)
      return fail(E, "projection from non-pair type " + printMu(AM));
    CheckResult R;
    R.Type = Pi(E->SelIndex == 1 ? AM->T->A : AM->T->B);
    R.Phi = A->Phi;
    R.Phi.insert(AtomicEffect(AM->Rho));
    return R;
  }

  // [TeReg]
  case RExpr::Kind::LetRegion: {
    std::optional<CheckResult> A = check(Omega, E->A);
    if (!A)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "letregion body");
    if (!AM)
      return std::nullopt;
    Effect Masked;
    Masked.insert(AtomicEffect(E->BoundRho));
    for (EffectVar Ev : E->BoundEffs)
      Masked.insert(AtomicEffect(Ev));
    Effect CtxF = contextFrev(Omega, E->A, AM);
    if (!Masked.disjointFrom(CtxF))
      return fail(E, "[TeReg]: " + printEffect(Masked.intersect(CtxF)) +
                         " escapes through the environment or result type");
    CheckResult R;
    R.Type = Pi(AM);
    R.Phi = A->Phi.minus(Masked);
    return R;
  }

  // Extensions ------------------------------------------------------------

  case RExpr::Kind::StrE: {
    CheckResult R;
    R.Type = Pi(Arena.boxed(Arena.stringTy(), E->AtRho));
    R.Phi = Effect{AtomicEffect(E->AtRho)};
    return R;
  }

  case RExpr::Kind::If: {
    std::optional<CheckResult> C = check(Omega, E->A);
    std::optional<CheckResult> T = check(Omega, E->B);
    std::optional<CheckResult> F = check(Omega, E->C);
    if (!C || !T || !F)
      return std::nullopt;
    const Mu *CM = asMu(*C, E, "condition");
    const Mu *TM = asMu(*T, E, "then branch");
    const Mu *FM = asMu(*F, E, "else branch");
    if (!CM || !TM || !FM)
      return std::nullopt;
    if (CM->K != Mu::Kind::Bool)
      return fail(E, "if condition is not boolean");
    if (!muEquals(TM, FM))
      return fail(E, "if branches have different types: " + printMu(TM) +
                         " vs " + printMu(FM));
    CheckResult R;
    R.Type = Pi(TM);
    R.Phi = C->Phi.unionWith(T->Phi).unionWith(F->Phi);
    return R;
  }

  case RExpr::Kind::BinOp: {
    std::optional<CheckResult> A = check(Omega, E->A);
    std::optional<CheckResult> B = check(Omega, E->B);
    if (!A || !B)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "operand"), *BM = asMu(*B, E, "operand");
    if (!AM || !BM)
      return std::nullopt;
    CheckResult R;
    R.Phi = A->Phi.unionWith(B->Phi);
    switch (E->Op) {
    case BinOpKind::Add:
    case BinOpKind::Sub:
    case BinOpKind::Mul:
    case BinOpKind::Div:
    case BinOpKind::Mod:
      if (AM->K != Mu::Kind::Int || BM->K != Mu::Kind::Int)
        return fail(E, "arithmetic on non-integers");
      R.Type = Pi(Arena.intTy());
      return R;
    case BinOpKind::Less:
    case BinOpKind::LessEq:
    case BinOpKind::Greater:
    case BinOpKind::GreaterEq:
      if (AM->K != Mu::Kind::Int || BM->K != Mu::Kind::Int)
        return fail(E, "comparison on non-integers");
      R.Type = Pi(Arena.boolTy());
      return R;
    case BinOpKind::Eq:
    case BinOpKind::NotEq:
      if (!muEquals(AM, BM))
        return fail(E, "equality on different types");
      if (AM->K == Mu::Kind::Boxed) {
        if (AM->T->K != Tau::Kind::String)
          return fail(E, "equality on non-equality type " + printMu(AM));
        R.Phi.insert(AtomicEffect(AM->Rho));
        R.Phi.insert(AtomicEffect(BM->Rho));
      }
      R.Type = Pi(Arena.boolTy());
      return R;
    case BinOpKind::StrEq:
    case BinOpKind::Concat: {
      if (AM->K != Mu::Kind::Boxed || AM->T->K != Tau::Kind::String ||
          BM->K != Mu::Kind::Boxed || BM->T->K != Tau::Kind::String)
        return fail(E, "string operation on non-strings");
      R.Phi.insert(AtomicEffect(AM->Rho));
      R.Phi.insert(AtomicEffect(BM->Rho));
      if (E->Op == BinOpKind::Concat) {
        R.Phi.insert(AtomicEffect(E->AtRho));
        R.Type = Pi(Arena.boxed(Arena.stringTy(), E->AtRho));
      } else {
        R.Type = Pi(Arena.boolTy());
      }
      return R;
    }
    case BinOpKind::AndAlso:
    case BinOpKind::OrElse:
      if (AM->K != Mu::Kind::Bool || BM->K != Mu::Kind::Bool)
        return fail(E, "boolean operation on non-booleans");
      R.Type = Pi(Arena.boolTy());
      return R;
    case BinOpKind::Cons:
      return std::nullopt; // handled by ConsE
    }
    return std::nullopt;
  }

  case RExpr::Kind::ConsE: {
    std::optional<CheckResult> A = check(Omega, E->A);
    std::optional<CheckResult> B = check(Omega, E->B);
    if (!A || !B)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "cons head"), *BM = asMu(*B, E, "cons tail");
    if (!AM || !BM)
      return std::nullopt;
    if (BM->K != Mu::Kind::Boxed || BM->T->K != Tau::Kind::List ||
        !muEquals(BM->T->A, AM))
      return fail(E, "cons tail has type " + printMu(BM) +
                         " which is not a list of " + printMu(AM));
    if (BM->Rho != E->AtRho)
      return fail(E, "cons destination region " + printRegionVar(E->AtRho) +
                         " differs from the spine region " +
                         printRegionVar(BM->Rho));
    CheckResult R;
    R.Type = Pi(Arena.boxed(Arena.listTy(AM), E->AtRho));
    R.Phi = A->Phi.unionWith(B->Phi);
    R.Phi.insert(AtomicEffect(E->AtRho));
    return R;
  }

  case RExpr::Kind::ListCase: {
    std::optional<CheckResult> S = check(Omega, E->A);
    if (!S)
      return std::nullopt;
    const Mu *SM = asMu(*S, E, "case scrutinee");
    if (!SM)
      return std::nullopt;
    if (SM->K != Mu::Kind::Boxed || SM->T->K != Tau::Kind::List)
      return fail(E, "case scrutinee is not a list");
    std::optional<CheckResult> N = check(Omega, E->B);
    Gamma.emplace_back(E->HeadName, Pi(SM->T->A));
    Gamma.emplace_back(E->TailName, Pi(SM));
    std::optional<CheckResult> C = check(Omega, E->C);
    Gamma.pop_back();
    Gamma.pop_back();
    if (!N || !C)
      return std::nullopt;
    const Mu *NM = asMu(*N, E, "nil branch"), *CM = asMu(*C, E, "cons branch");
    if (!NM || !CM)
      return std::nullopt;
    if (!muEquals(NM, CM))
      return fail(E, "case branches have different types");
    CheckResult R;
    R.Type = Pi(NM);
    R.Phi = S->Phi.unionWith(N->Phi).unionWith(C->Phi);
    R.Phi.insert(AtomicEffect(SM->Rho));
    return R;
  }

  case RExpr::Kind::RefE: {
    std::optional<CheckResult> A = check(Omega, E->A);
    if (!A)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "ref");
    if (!AM)
      return std::nullopt;
    CheckResult R;
    R.Type = Pi(Arena.boxed(Arena.refTy(AM), E->AtRho));
    R.Phi = A->Phi;
    R.Phi.insert(AtomicEffect(E->AtRho));
    return R;
  }

  case RExpr::Kind::Deref: {
    std::optional<CheckResult> A = check(Omega, E->A);
    if (!A)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "dereference");
    if (!AM)
      return std::nullopt;
    if (AM->K != Mu::Kind::Boxed || AM->T->K != Tau::Kind::Ref)
      return fail(E, "dereference of non-reference");
    CheckResult R;
    R.Type = Pi(AM->T->A);
    R.Phi = A->Phi;
    R.Phi.insert(AtomicEffect(AM->Rho));
    return R;
  }

  case RExpr::Kind::Assign: {
    std::optional<CheckResult> A = check(Omega, E->A);
    std::optional<CheckResult> B = check(Omega, E->B);
    if (!A || !B)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "assignment"), *BM = asMu(*B, E, "assignment");
    if (!AM || !BM)
      return std::nullopt;
    if (AM->K != Mu::Kind::Boxed || AM->T->K != Tau::Kind::Ref ||
        !muEquals(AM->T->A, BM))
      return fail(E, "assignment type mismatch");
    CheckResult R;
    R.Type = Pi(Arena.unitTy());
    R.Phi = A->Phi.unionWith(B->Phi);
    R.Phi.insert(AtomicEffect(AM->Rho));
    return R;
  }

  case RExpr::Kind::Seq: {
    CheckResult R;
    for (const RExpr *Item : E->Items) {
      std::optional<CheckResult> I = check(Omega, Item);
      if (!I)
        return std::nullopt;
      R.Type = I->Type;
      R.Phi = R.Phi.unionWith(I->Phi);
    }
    return R;
  }

  case RExpr::Kind::Raise: {
    std::optional<CheckResult> A = check(Omega, E->A);
    if (!A)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "raise");
    if (!AM)
      return std::nullopt;
    if (AM->K != Mu::Kind::Boxed || AM->T->K != Tau::Kind::Exn)
      return fail(E, "raised expression is not an exception");
    if (!E->MuOf)
      return fail(E, "raise without a recorded result type");
    CheckResult R;
    R.Type = Pi(E->MuOf);
    R.Phi = A->Phi;
    R.Phi.insert(AtomicEffect(AM->Rho));
    return R;
  }

  case RExpr::Kind::Handle: {
    std::optional<CheckResult> A = check(Omega, E->A);
    if (!A)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "handle body");
    if (!AM)
      return std::nullopt;
    size_t Mark = Gamma.size();
    if (E->BindName.isValid()) {
      const Mu *ArgMu = lookupExn(E->ExnName);
      if (!ArgMu)
        return fail(E, "handler for unknown or nullary exception");
      Gamma.emplace_back(E->BindName, Pi(ArgMu));
    }
    std::optional<CheckResult> B = check(Omega, E->B);
    Gamma.resize(Mark);
    if (!B)
      return std::nullopt;
    const Mu *BM = asMu(*B, E, "handler");
    if (!BM)
      return std::nullopt;
    if (!muEquals(AM, BM))
      return fail(E, "handle branches have different types");
    CheckResult R;
    R.Type = Pi(AM);
    R.Phi = A->Phi.unionWith(B->Phi);
    R.Phi.insert(AtomicEffect(RegionVar::global()));
    return R;
  }

  case RExpr::Kind::ExnConE: {
    const Mu *SigMu = lookupExn(E->ExnName);
    CheckResult R;
    R.Type = Pi(Arena.boxed(Arena.exnTy(), RegionVar::global()));
    R.Phi.insert(AtomicEffect(RegionVar::global()));
    if (E->A) {
      std::optional<CheckResult> A = check(Omega, E->A);
      if (!A)
        return std::nullopt;
      const Mu *AM = asMu(*A, E, "exception argument");
      if (!AM)
        return std::nullopt;
      if (!SigMu || !muEquals(AM, SigMu))
        return fail(E, "exception argument type mismatch");
      // Section 4.4: everything reachable from an exception value must
      // live in global regions because the value may escape to top level.
      Effect GlobalOnly{AtomicEffect(RegionVar::global()),
                        AtomicEffect(EffectVar::global())};
      if (Safety == GcSafety::On && !typeContained(Omega, AM, GlobalOnly))
        return fail(E, "exception argument may reference non-global "
                       "regions: " +
                           printMu(AM));
      R.Phi = R.Phi.unionWith(A->Phi);
    }
    return R;
  }

  case RExpr::Kind::Prim: {
    std::optional<CheckResult> A = check(Omega, E->A);
    if (!A)
      return std::nullopt;
    const Mu *AM = asMu(*A, E, "primitive argument");
    if (!AM)
      return std::nullopt;
    CheckResult R;
    R.Phi = A->Phi;
    switch (E->PrimK) {
    case Expr::PrimKind::Print:
      if (AM->K != Mu::Kind::Boxed || AM->T->K != Tau::Kind::String)
        return fail(E, "print expects a string");
      R.Phi.insert(AtomicEffect(AM->Rho));
      R.Type = Pi(Arena.unitTy());
      return R;
    case Expr::PrimKind::Itos:
      if (AM->K != Mu::Kind::Int)
        return fail(E, "itos expects an int");
      R.Phi.insert(AtomicEffect(E->AtRho));
      R.Type = Pi(Arena.boxed(Arena.stringTy(), E->AtRho));
      return R;
    case Expr::PrimKind::Size:
      if (AM->K != Mu::Kind::Boxed || AM->T->K != Tau::Kind::String)
        return fail(E, "size expects a string");
      R.Phi.insert(AtomicEffect(AM->Rho));
      R.Type = Pi(Arena.intTy());
      return R;
    case Expr::PrimKind::Work:
      if (AM->K != Mu::Kind::Int)
        return fail(E, "work expects an int");
      R.Type = Pi(Arena.unitTy());
      return R;
    case Expr::PrimKind::Global:
      // Identity at the term level; inference already pinned the regions.
      R.Type = Pi(AM);
      return R;
    }
    return std::nullopt;
  }
  }
  return fail(E, "unhandled region expression kind");
}

std::optional<CheckResult>
checkWith(const FreeVarTable &Free, const RExpr *E, const TyVarCtx &Omega,
          const std::vector<std::pair<Symbol, Pi>> &Gamma,
          const std::vector<std::pair<Symbol, const Mu *>> &ExnSigs,
          RTypeArena &Arena, const Interner &Names, DiagnosticEngine &Diags,
          GcSafety Safety) {
  RChecker C(Free, Arena, Names, Diags, Safety);
  C.Gamma = Gamma;
  C.ExnSigs = ExnSigs;
  std::optional<CheckResult> R = C.check(Omega, E);
  if (R && !C.validateBasis())
    return std::nullopt;
  return R;
}

} // namespace

std::optional<CheckResult>
rml::checkRExpr(const RExpr *E, const TyVarCtx &Omega,
                const std::vector<std::pair<Symbol, Pi>> &Gamma,
                const std::vector<std::pair<Symbol, const Mu *>> &ExnSigs,
                RTypeArena &Arena, const Interner &Names,
                DiagnosticEngine &Diags, GcSafety Safety) {
  FreeVarTable Free;
  Free.fill(E);
  return checkWith(Free, E, Omega, Gamma, ExnSigs, Arena, Names, Diags,
                   Safety);
}

std::optional<CheckResult>
rml::checkRProgram(const RProgram &P, RTypeArena &Arena,
                   const Interner &Names, DiagnosticEngine &Diags,
                   GcSafety Safety) {
  return checkWith(P.FreeVars, P.Root, TyVarCtx(), {}, P.ExnSigs, Arena,
                   Names, Diags, Safety);
}
