//===- rinfer/Infer.cpp - Region inference --------------------------------===//

#include "rinfer/Infer.h"

#include "rinfer/InferStore.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <span>
#include <unordered_map>

using namespace rml;

const char *rml::strategyName(Strategy S) {
  switch (S) {
  case Strategy::Rg:
    return "rg";
  case Strategy::RgMinus:
    return "rg-";
  case Strategy::R:
    return "r";
  }
  return "?";
}

namespace {

//===----------------------------------------------------------------------===//
// Environment bindings
//===----------------------------------------------------------------------===//

/// A quantified type variable of an inference-time scheme.
struct DeltaEntry {
  Type *MLVar = nullptr; // the rigid ML variable (scheme order)
  TyVarId Alpha;
  std::optional<EffectVar> Eps; // arrow effect handle when spurious (rg)
  bool ExnForced = false;       // instances pinned to the global region
};

struct PolyScheme {
  std::vector<RegionVar> QRegions;
  std::vector<EffectVar> QEffects;
  std::vector<DeltaEntry> Delta;
  const Tau *Body = nullptr;
  RegionVar Place;
  const Dec *Origin = nullptr;
};

struct InfBinding {
  const Mu *Mono = nullptr; // set iff monomorphic
  PolyScheme Poly;          // otherwise
  /// Polymorphic *constant* bindings (nil, pairs/conses of constants):
  /// the closed value is re-synthesised at each use's instance type —
  /// constants have no identity, so duplication is unobservable.
  const Expr *ConstValue = nullptr;
};

/// Result of inferring one expression.
struct Res {
  const Mu *M = nullptr;
  Effect Phi; // seed effect (closure computed on demand)
  RExpr *Term = nullptr;
};

//===----------------------------------------------------------------------===//
// The inference engine
//===----------------------------------------------------------------------===//

class Inferencer {
public:
  Inferencer(const TypeInfo &Types, const SpuriousInfo &Spurious,
             const InferOptions &Opts, RTypeArena &RArena, RExprArena &EArena,
             Interner &Names, DiagnosticEngine &Diags, InferStore &Store)
      : Types(Types), Spurious(Spurious), Opts(Opts), RArena(RArena),
        EArena(EArena), Names(Names), Diags(Diags), Store(Store),
        Free(static_cast<uint32_t>(EArena.size())) {}

  std::optional<InferResult> run(const Program &P);

private:
  //===--------------------------------------------------------------------===//
  // Spreading: ML type -> region type with fresh variables
  //===--------------------------------------------------------------------===//

  TyVarId tyVarIdFor(Type *V) {
    V = resolve(V);
    auto It = MLVarIds.find(V);
    if (It != MLVarIds.end())
      return It->second;
    TyVarId Id(NextTyVarId++);
    MLVarIds.emplace(V, Id);
    return Id;
  }

  const Mu *spread(Type *T) {
    T = resolve(T);
    switch (T->K) {
    case TypeKind::Var:
      if (T->Rigid)
        return RArena.tyVar(tyVarIdFor(T));
      // Unconstrained monomorphic variable: default to int (SML-style
      // defaulting keeps the region language ground).
      {
        static Type IntDefaultNode(TypeKind::Int);
        unify(T, &IntDefaultNode);
      }
      return RArena.intTy();
    case TypeKind::Int:
      return RArena.intTy();
    case TypeKind::Bool:
      return RArena.boolTy();
    case TypeKind::Unit:
      return RArena.unitTy();
    case TypeKind::Exn:
      return RArena.boxed(RArena.exnTy(), RegionVar::global());
    case TypeKind::String:
      return RArena.boxed(RArena.stringTy(), Store.freshRegion(Level));
    case TypeKind::Arrow: {
      const Mu *A = spread(T->A);
      const Mu *B = spread(T->B);
      ArrowEff Nu(Store.freshEffect(Level), Effect::empty());
      return RArena.boxed(RArena.arrowTy(A, Nu, B),
                          Store.freshRegion(Level));
    }
    case TypeKind::Pair:
      return RArena.boxed(RArena.pairTy(spread(T->A), spread(T->B)),
                          Store.freshRegion(Level));
    case TypeKind::List:
      return RArena.boxed(RArena.listTy(spread(T->A)),
                          Store.freshRegion(Level));
    case TypeKind::Ref:
      return RArena.boxed(RArena.refTy(spread(T->A)),
                          Store.freshRegion(Level));
    }
    return RArena.unitTy();
  }

  //===--------------------------------------------------------------------===//
  // Unification of region types (same underlying ML structure)
  //===--------------------------------------------------------------------===//

  void unifyMu(const Mu *A, const Mu *B, SrcLoc Loc) {
    if (A == B)
      return;
    if (A->K != B->K) {
      Diags.error(Loc, "region inference: structural mismatch between " +
                           printMu(A) + " and " + printMu(B) +
                           " (post-HM types should agree)");
      Failed = true;
      return;
    }
    switch (A->K) {
    case Mu::Kind::TyVar:
      if (A->Alpha != B->Alpha) {
        Diags.error(Loc, "region inference: distinct type variables " +
                             printTyVar(A->Alpha) + " and " +
                             printTyVar(B->Alpha));
        Failed = true;
      }
      return;
    case Mu::Kind::Int:
    case Mu::Kind::Bool:
    case Mu::Kind::Unit:
      return;
    case Mu::Kind::Boxed:
      Store.unifyRegion(A->Rho, B->Rho);
      unifyTau(A->T, B->T, Loc);
      return;
    }
  }

  void unifyTau(const Tau *A, const Tau *B, SrcLoc Loc) {
    if (A == B)
      return;
    if (A->K != B->K) {
      Diags.error(Loc, "region inference: constructor mismatch");
      Failed = true;
      return;
    }
    switch (A->K) {
    case Tau::Kind::Pair:
      unifyMu(A->A, B->A, Loc);
      unifyMu(A->B, B->B, Loc);
      return;
    case Tau::Kind::Arrow:
      Store.unifyEffect(A->Nu.Handle, B->Nu.Handle);
      unifyMu(A->A, B->A, Loc);
      unifyMu(A->B, B->B, Loc);
      return;
    case Tau::Kind::String:
    case Tau::Kind::Exn:
      return;
    case Tau::Kind::List:
    case Tau::Kind::Ref:
      unifyMu(A->A, B->A, Loc);
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // frev (inference side): seed atomics of a type, with spurious type
  // variables contributing their arrow-effect handles
  //===--------------------------------------------------------------------===//

  /// Appends the seed atomics of a type to \p Out (a list that may
  /// repeat atoms; Effect's constructor and closure() dedupe). When
  /// \p TyVarEffects is set, a type variable contributes its ambient
  /// arrow-effect handle (the paper's frev(Omega(alpha)) reading, used
  /// for *requirements*: captured types, escape tests). When clear, type
  /// variables contribute nothing — the *syntactic* frev of the typing
  /// rules, used for what a function type already provides: an
  /// occurrence under a type variable is erased by type substitution,
  /// which is exactly the paper's counterexample.
  void frevSeedsMu(const Mu *M, std::vector<AtomicEffect> &Out,
                   bool TyVarEffects = true) {
    switch (M->K) {
    case Mu::Kind::Int:
    case Mu::Kind::Bool:
    case Mu::Kind::Unit:
      return;
    case Mu::Kind::TyVar: {
      if (!TyVarEffects)
        return;
      auto It = TyCtx.find(M->Alpha);
      if (It != TyCtx.end() && It->second)
        Out.push_back(AtomicEffect(Store.find(*It->second)));
      return;
    }
    case Mu::Kind::Boxed:
      Out.push_back(AtomicEffect(Store.find(M->Rho)));
      frevSeedsTau(M->T, Out, TyVarEffects);
      return;
    }
  }

  void frevSeedsTau(const Tau *T, std::vector<AtomicEffect> &Out,
                    bool TyVarEffects = true) {
    if (T->K == Tau::Kind::Arrow)
      Out.push_back(AtomicEffect(Store.find(T->Nu.Handle)));
    if (T->A)
      frevSeedsMu(T->A, Out, TyVarEffects);
    if (T->B)
      frevSeedsMu(T->B, Out, TyVarEffects);
  }

  Effect frevSeeds(const Mu *M) {
    std::vector<AtomicEffect> Out;
    frevSeedsMu(M, Out);
    return Effect(std::move(Out));
  }

  Effect frevSeedsSyntactic(const Mu *M) {
    std::vector<AtomicEffect> Out;
    frevSeedsMu(M, Out, /*TyVarEffects=*/false);
    return Effect(std::move(Out));
  }

  Effect frevSeeds(const InfBinding &B) {
    if (B.Mono)
      return frevSeeds(B.Mono);
    if (B.ConstValue)
      return Effect(); // constants reference no regions until re-synthesised
    // frev of a scheme: body + place + spurious arrow effects, minus the
    // quantified variables. Close *before* subtracting: a quantified
    // handle's denotation may mention free atoms (e.g. the region of a
    // global closure the body applies) that stay free in the scheme.
    std::vector<AtomicEffect> Out;
    frevSeedsTau(B.Poly.Body, Out);
    Out.push_back(AtomicEffect(Store.find(B.Poly.Place)));
    for (const DeltaEntry &D : B.Poly.Delta)
      if (D.Eps)
        Out.push_back(AtomicEffect(Store.find(*D.Eps)));
    Effect Closed = Store.closure(Out);
    Effect Bound;
    for (RegionVar R : B.Poly.QRegions)
      Bound.insert(AtomicEffect(Store.find(R)));
    for (EffectVar E : B.Poly.QEffects)
      Bound.insert(AtomicEffect(Store.find(E)));
    return Closed.minus(Bound);
  }

  //===--------------------------------------------------------------------===//
  // Environment
  //===--------------------------------------------------------------------===//

  void bindMono(Symbol S, const Mu *M) {
    InfBinding B;
    B.Mono = M;
    Env.emplace_back(S, std::move(B));
  }

  const InfBinding *lookup(Symbol S) const {
    for (size_t I = Env.size(); I-- > 0;)
      if (Env[I].first == S)
        return &Env[I].second;
    return nullptr;
  }

  /// Appends the seed atomics of the environment restricted to \p Syms.
  void envSeeds(std::span<const Symbol> Syms, std::vector<AtomicEffect> &Out) {
    for (Symbol S : Syms) {
      const InfBinding *B = lookup(S);
      if (!B)
        continue;
      if (B->Mono) {
        frevSeedsMu(B->Mono, Out);
      } else {
        Effect Scheme = frevSeeds(*B);
        Out.insert(Out.end(), Scheme.begin(), Scheme.end());
      }
    }
    // The ambient type-variable context's arrow effects are also pinned.
    for (const auto &[Alpha, Eps] : TyCtx)
      if (Eps)
        Out.push_back(AtomicEffect(Store.find(*Eps)));
  }

  //===--------------------------------------------------------------------===//
  // letregion insertion
  //===--------------------------------------------------------------------===//

  /// Wraps \p R.Term in letregion binders for every region (and effect
  /// variable) of its effect that escapes neither through the free
  /// variables of the term, nor the result type, nor the ambient
  /// type-variable context. Updates R.Phi.
  void insertLetregions(Res &R) {
    Effect PhiC = Store.closure(R.Phi);
    Free.fill(R.Term);
    std::vector<AtomicEffect> Seeds;
    envSeeds(Free.of(R.Term), Seeds);
    frevSeedsMu(R.M, Seeds);
    Effect Escaping = Store.closure(Seeds);
    std::vector<RegionVar> MaskR;
    std::vector<EffectVar> MaskE;
    for (AtomicEffect A : PhiC) {
      if (Escaping.contains(A))
        continue;
      if (A.isRegion()) {
        RegionVar Rho = A.region();
        if (Rho.isGlobal() || Store.isBound(Rho) || Store.isQuantified(Rho))
          continue;
        MaskR.push_back(Rho);
      } else {
        EffectVar E = A.effect();
        if (E == EffectVar::global() || Store.isQuantified(E))
          continue;
        MaskE.push_back(E);
      }
    }
    if (MaskR.empty())
      return; // effect variables are only discharged together with regions
    Effect Masked;
    for (RegionVar Rho : MaskR) {
      Store.markBound(Rho);
      Masked.insert(AtomicEffect(Rho));
    }
    for (EffectVar E : MaskE)
      Masked.insert(AtomicEffect(E));
    // Innermost letregion carries the discharged effect variables.
    RExpr *Inner = EArena.make(RExpr::Kind::LetRegion);
    Inner->Loc = R.Term->Loc;
    Inner->BoundRho = MaskR.back();
    Inner->BoundEffs = MaskE;
    Inner->A = R.Term;
    Inner->MuOf = R.M;
    ++NumLetRegions;
    for (size_t I = MaskR.size() - 1; I-- > 0;) {
      RExpr *Next = EArena.make(RExpr::Kind::LetRegion);
      Next->Loc = R.Term->Loc;
      Next->BoundRho = MaskR[I];
      Next->A = Inner;
      Next->MuOf = R.M;
      Inner = Next;
      ++NumLetRegions;
    }
    R.Term = Inner;
    R.Phi = PhiC.minus(Masked);
  }

  //===--------------------------------------------------------------------===//
  // GC-safety inclusion (the Elsman'03 fix + this paper's spurious fix)
  //===--------------------------------------------------------------------===//

  /// Establishes the GC-safety relation G for a function of type \p FnMu
  /// with latent arrow-effect handle \p Eps: for every captured binding,
  /// the atoms of frev(Gamma(y)) that do not already occur in frev(pi)
  /// are added to the latent effect. Adding only the *missing* atoms is
  /// essential for fidelity: G is satisfied by occurrence anywhere in the
  /// function's type, and occurrences under instantiated type variables
  /// are precisely what type substitution erases — the paper's
  /// unsoundness. Under rg, spurious type variables contribute their
  /// arrow-effect handles (via frevSeeds and the ambient TyCtx); under
  /// rg- they contribute nothing (no TyCtx entries), reproducing the
  /// pre-paper behaviour; under r nothing is added at all (Tofte-Talpin,
  /// dangling pointers permitted).
  void includeCaptured(EffectVar Eps, const Mu *FnMu, const RExpr *Body,
                       std::initializer_list<Symbol> Params) {
    if (Opts.Strat == Strategy::R)
      return;
    Effect Have = Store.closure(frevSeedsSyntactic(FnMu));
    Free.fill(Body);
    for (Symbol S : Free.of(Body)) {
      if (std::find(Params.begin(), Params.end(), S) != Params.end())
        continue;
      const InfBinding *B = lookup(S);
      if (!B)
        continue;
      for (AtomicEffect A : frevSeeds(*B)) {
        A = Store.canon(A);
        if (Have.contains(A))
          continue;
        Store.include(Eps, A);
        Have.insertAll(Store.closure(std::span(&A, 1)));
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Substitution over inference types (instantiation)
  //===--------------------------------------------------------------------===//

  struct InstMaps {
    std::map<TyVarId, const Mu *> St;
    std::map<uint32_t, RegionVar> Sr;  // canonical region id -> fresh
    std::map<uint32_t, EffectVar> Se;  // canonical effect id -> fresh
  };

  RegionVar instRegion(const InstMaps &S, RegionVar R) {
    R = Store.find(R);
    auto It = S.Sr.find(R.Id);
    return It == S.Sr.end() ? R : It->second;
  }

  EffectVar instEffect(const InstMaps &S, EffectVar E) {
    E = Store.find(E);
    auto It = S.Se.find(E.Id);
    return It == S.Se.end() ? E : It->second;
  }

  const Mu *instMu(const InstMaps &S, const Mu *M) {
    switch (M->K) {
    case Mu::Kind::Int:
    case Mu::Kind::Bool:
    case Mu::Kind::Unit:
      return M;
    case Mu::Kind::TyVar: {
      auto It = S.St.find(M->Alpha);
      return It == S.St.end() ? M : It->second;
    }
    case Mu::Kind::Boxed:
      return RArena.boxed(instTau(S, M->T), instRegion(S, M->Rho));
    }
    return M;
  }

  const Tau *instTau(const InstMaps &S, const Tau *T) {
    switch (T->K) {
    case Tau::Kind::Pair:
      return RArena.pairTy(instMu(S, T->A), instMu(S, T->B));
    case Tau::Kind::Arrow: {
      ArrowEff Nu(instEffect(S, T->Nu.Handle), Effect::empty());
      return RArena.arrowTy(instMu(S, T->A), Nu, instMu(S, T->B));
    }
    case Tau::Kind::String:
    case Tau::Kind::Exn:
      return T;
    case Tau::Kind::List:
      return RArena.listTy(instMu(S, T->A));
    case Tau::Kind::Ref:
      return RArena.refTy(instMu(S, T->A));
    }
    return T;
  }

  /// Pins every region of \p M to the global region and every arrow
  /// effect to the global effect variable (Section 4.4).
  void forceGlobal(const Mu *M) {
    Effect Seeds = frevSeeds(M);
    for (AtomicEffect A : Store.closure(Seeds)) {
      if (A.isRegion())
        Store.unifyRegion(A.region(), RegionVar::global());
      else
        Store.unifyEffect(A.effect(), EffectVar::global());
    }
  }

  //===--------------------------------------------------------------------===//
  // Declarations and expressions
  //===--------------------------------------------------------------------===//

  Res infer(const Expr *E);
  Res inferVar(const Expr *E);

  /// True for closed constant values: literals, nil, and pairs/conses of
  /// constant values (no variables, no lambdas, no refs).
  static bool isConstValue(const Expr *E) {
    switch (E->K) {
    case Expr::Kind::IntLit:
    case Expr::Kind::StrLit:
    case Expr::Kind::BoolLit:
    case Expr::Kind::UnitLit:
    case Expr::Kind::Nil:
      return true;
    case Expr::Kind::Pair:
      return isConstValue(E->A) && isConstValue(E->B);
    case Expr::Kind::BinOp:
      return E->Op == BinOpKind::Cons && isConstValue(E->A) &&
             isConstValue(E->B);
    case Expr::Kind::Annot:
      return isConstValue(E->A);
    default:
      return false;
    }
  }

  /// Re-synthesises the constant \p E at the (resolved) instance type
  /// \p T, producing a fresh region-annotated term.
  Res reinferConst(const Expr *E, Type *T);
  Res inferFn(const Expr *E);
  Res inferLet(const Expr *E);

  /// Handles one declaration: binds the environment (and exception
  /// signatures), accumulates the declaration effect into \p PhiAcc and
  /// returns the right-hand-side term to let-bind (null for exception
  /// declarations).
  RExpr *inferDecl(const Dec *D, Effect &PhiAcc);

  /// The region-polymorphic function path shared by "fun f x = e" and
  /// polymorphic "val f = fn x => e".
  RExpr *inferFunLike(const Dec *D, Symbol FunName, Symbol Param,
                      Type *ParamType, Type *ResultType, const Expr *Body,
                      bool Recursive, SrcLoc Loc, Effect &PhiAcc);

  /// Builds the Delta entries for a declaration's quantified ML type
  /// variables and pushes them onto the ambient type-variable context.
  /// For recursive functions the spurious arrow effects are pinned at
  /// level 0 (never quantified): the recursive typing rule requires the
  /// quantified region/effect variables to be disjoint from frev(Delta).
  std::vector<DeltaEntry> pushDelta(const TypeScheme &S, EffectVar FunEps,
                                    bool Recursive);
  void popDelta(const std::vector<DeltaEntry> &Delta);

  /// Rewrites monomorphic self-references "f" inside \p Body into
  /// identity region applications "f [id] at Place" once the scheme of f
  /// is known (the recursive rule of Figure 4 binds f to a scheme).
  const RExpr *rewriteSelfCalls(const RExpr *Body, Symbol F,
                                const PolyScheme &Sch);

  //===--------------------------------------------------------------------===//
  // Materialisation: canonical ids and explicit effect sets
  //===--------------------------------------------------------------------===//

  RegionVar outRegion(RegionVar R) {
    R = Store.find(R);
    if (!Store.isBound(R) && !Store.isQuantified(R))
      // Escapes to the top level: allocate globally.
      return RegionVar::global();
    return R;
  }

  Effect outEffect(const Effect &Seeds) {
    // Closure with every atomic mapped through outRegion.
    std::vector<AtomicEffect> Out;
    for (AtomicEffect A : Store.closure(Seeds)) {
      if (A.isRegion())
        Out.push_back(AtomicEffect(outRegion(A.region())));
      else
        Out.push_back(A);
    }
    return Effect(std::move(Out));
  }

  /// The materialised arrow effect of \p E, computed once per
  /// canonical effect variable: materialisation runs after inference
  /// has finished, and only calls find on the store, so neither a
  /// variable's representative nor its closure can change under the
  /// memo.
  ArrowEff outArrow(EffectVar E) {
    E = Store.find(E);
    if (OutArrows.size() <= E.Id)
      OutArrows.resize(Store.numEffects());
    std::optional<Effect> &Phi = OutArrows[E.Id];
    if (!Phi) {
      Effect Seeds;
      for (AtomicEffect A : Store.denotation(E))
        Seeds.insert(A);
      Phi = outEffect(Seeds);
    }
    return ArrowEff(E, *Phi);
  }

  const Mu *outMu(const Mu *M) {
    switch (M->K) {
    case Mu::Kind::Int:
    case Mu::Kind::Bool:
    case Mu::Kind::Unit:
    case Mu::Kind::TyVar:
      return M;
    case Mu::Kind::Boxed:
      return RArena.boxed(outTau(M->T), outRegion(M->Rho));
    }
    return M;
  }

  const Tau *outTau(const Tau *T) {
    switch (T->K) {
    case Tau::Kind::Pair:
      return RArena.pairTy(outMu(T->A), outMu(T->B));
    case Tau::Kind::Arrow:
      return RArena.arrowTy(outMu(T->A), outArrow(T->Nu.Handle),
                            outMu(T->B));
    case Tau::Kind::String:
    case Tau::Kind::Exn:
      return T;
    case Tau::Kind::List:
      return RArena.listTy(outMu(T->A));
    case Tau::Kind::Ref:
      return RArena.refTy(outMu(T->A));
    }
    return T;
  }

  RScheme outScheme(const PolyScheme &P) {
    RScheme S;
    for (RegionVar R : P.QRegions)
      S.QRegions.push_back(Store.find(R));
    for (EffectVar E : P.QEffects)
      S.QEffects.push_back(Store.find(E));
    for (const DeltaEntry &D : P.Delta) {
      if (D.Eps)
        S.Delta.bind(D.Alpha, outArrow(*D.Eps));
      else
        S.Delta.bindPlain(D.Alpha);
    }
    S.Body = outTau(P.Body);
    return S;
  }

  void materialize(RExpr *E) {
    if (!E)
      return;
    materialize(const_cast<RExpr *>(E->A));
    materialize(const_cast<RExpr *>(E->B));
    materialize(const_cast<RExpr *>(E->C));
    for (const RExpr *Item : E->Items)
      materialize(const_cast<RExpr *>(Item));
    if (E->AtRho.isValid())
      E->AtRho = outRegion(E->AtRho);
    if (E->BoundRho.isValid())
      E->BoundRho = Store.find(E->BoundRho);
    for (EffectVar &Ev : E->BoundEffs)
      Ev = Store.find(Ev);
    if (E->MuOf)
      E->MuOf = outMu(E->MuOf);
    if (E->ParamMu)
      E->ParamMu = outMu(E->ParamMu);
    if (E->K == RExpr::Kind::Lam)
      E->LatentNu = outArrow(E->LatentNu.Handle);
    if (E->K == RExpr::Kind::FunBind) {
      auto It = PendingSchemes.find(E);
      assert(It != PendingSchemes.end() && "fun without recorded scheme");
      E->Sigma = outScheme(It->second);
    }
    if (E->K == RExpr::Kind::RApp) {
      auto It = PendingInsts.find(E);
      assert(It != PendingInsts.end() && "rapp without recorded inst");
      const PendingInst &P = It->second;
      Subst S;
      for (const auto &[Alpha, M] : P.Maps.St)
        S.St.emplace(Alpha, outMu(M));
      for (RegionVar Q : P.SchemeRegions)
        S.Sr.emplace(Store.find(Q),
                     outRegion(instRegion(P.Maps, Q)));
      for (EffectVar Q : P.SchemeEffects) {
        EffectVar Fresh = instEffect(P.Maps, Q);
        S.Se.emplace(Store.find(Q), outArrow(Fresh));
      }
      E->Inst = std::move(S);
    }
  }

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  const TypeInfo &Types;
  const SpuriousInfo &Spurious;
  InferOptions Opts;
  RTypeArena &RArena;
  RExprArena &EArena;
  Interner &Names;
  DiagnosticEngine &Diags;

  InferStore &Store;
  uint32_t Level = 0;
  bool Failed = false;

  std::vector<std::pair<Symbol, InfBinding>> Env;
  std::map<TyVarId, std::optional<EffectVar>> TyCtx;
  std::unordered_map<Type *, TyVarId> MLVarIds;
  uint32_t NextTyVarId = 0;

  // Exception signatures in scope: name -> payload mu (null = nullary).
  std::vector<std::pair<Symbol, const Mu *>> ExnSigs;
  // All exception signatures ever declared (for the emitted program).
  std::vector<std::pair<Symbol, const Mu *>> ExnSigsAll;

  // Deferred materialisation data.
  struct PendingInst {
    InstMaps Maps;
    std::vector<RegionVar> SchemeRegions;
    std::vector<EffectVar> SchemeEffects;
  };
  std::unordered_map<const RExpr *, PolyScheme> PendingSchemes;
  std::unordered_map<const RExpr *, PendingInst> PendingInsts;

  /// Free variables of every term built so far (moved into the
  /// program at the end).
  FreeVarTable Free;
  /// outArrow's memo, by canonical effect id.
  std::vector<std::optional<Effect>> OutArrows;

  unsigned NumLetRegions = 0;
  unsigned NumSchemes = 0;
};

//===----------------------------------------------------------------------===//
// Recursion detection on the surface AST
//===----------------------------------------------------------------------===//

/// True when \p E mentions \p Name as a free variable (shadowing-aware).
bool mentionsVar(const Expr *E, Symbol Name) {
  if (!E)
    return false;
  switch (E->K) {
  case Expr::Kind::Var:
    return E->Name == Name;
  case Expr::Kind::Fn:
    return E->Name != Name && mentionsVar(E->A, Name);
  case Expr::Kind::Let: {
    for (const Dec *D : E->Decs) {
      if (D->K == Dec::Kind::Fun) {
        if (D->Name != Name && D->Param != Name && mentionsVar(D->Body, Name))
          return true;
      } else if (D->K == Dec::Kind::Val) {
        if (mentionsVar(D->Body, Name))
          return true;
      }
      if (D->K != Dec::Kind::Exn && D->Name == Name)
        return false; // shadowed for the remainder of the let
    }
    return mentionsVar(E->A, Name);
  }
  case Expr::Kind::ListCase:
    if (mentionsVar(E->A, Name) || mentionsVar(E->B, Name))
      return true;
    if (E->HeadName == Name || E->TailName == Name)
      return false;
    return mentionsVar(E->C, Name);
  case Expr::Kind::Handle:
    if (mentionsVar(E->A, Name))
      return true;
    if (E->BindName == Name)
      return false;
    return mentionsVar(E->B, Name);
  default:
    if (mentionsVar(E->A, Name) || mentionsVar(E->B, Name) ||
        mentionsVar(E->C, Name))
      return true;
    for (const Expr *Item : E->Items)
      if (mentionsVar(Item, Name))
        return true;
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Delta handling
//===----------------------------------------------------------------------===//

std::vector<DeltaEntry> Inferencer::pushDelta(const TypeScheme &S,
                                              EffectVar FunEps,
                                              bool Recursive) {
  std::vector<DeltaEntry> Delta;
  for (Type *Q : S.Quantified) {
    DeltaEntry D;
    D.MLVar = resolve(Q);
    D.Alpha = tyVarIdFor(D.MLVar);
    bool IsSpurious =
        Opts.Strat == Strategy::Rg && Spurious.SpuriousVars.count(D.MLVar);
    if (IsSpurious) {
      D.ExnForced = Spurious.ExnForcedVars.count(D.MLVar) != 0;
      if (D.ExnForced) {
        // Section 4.4: associate with the global effect variable so that
        // coverage forces instances into global regions.
        D.Eps = EffectVar::global();
      } else if (Recursive) {
        // [TvRec] forbids quantifying variables of frev(Delta): pin the
        // arrow effect so it stays free (shared across instantiations —
        // the live-range cost the paper discusses for identification).
        D.Eps = Store.freshEffect(0);
      } else if (Opts.Spurious == SpuriousMode::IdentifyWithFun &&
                 FunEps.isValid()) {
        D.Eps = FunEps; // type scheme (3)
      } else {
        D.Eps = Store.freshEffect(Level); // type scheme (2)
      }
    }
    TyCtx[D.Alpha] = D.Eps;
    Delta.push_back(D);
  }
  return Delta;
}

void Inferencer::popDelta(const std::vector<DeltaEntry> &Delta) {
  for (const DeltaEntry &D : Delta)
    TyCtx.erase(D.Alpha);
}

//===----------------------------------------------------------------------===//
// Self-call rewriting
//===----------------------------------------------------------------------===//

const RExpr *Inferencer::rewriteSelfCalls(const RExpr *Body, Symbol F,
                                          const PolyScheme &Sch) {
  if (!Body)
    return nullptr;
  switch (Body->K) {
  case RExpr::Kind::Var: {
    if (Body->Name != F)
      return Body;
    // f  ==>  f [identity] at Place (the region-monomorphic self-call).
    RExpr *R = EArena.make(RExpr::Kind::RApp);
    R->Loc = Body->Loc;
    R->A = Body;
    R->AtRho = Sch.Place;
    R->MuOf = RArena.boxed(Sch.Body, Sch.Place);
    PendingInst P;
    for (RegionVar Q : Sch.QRegions) {
      P.Maps.Sr.emplace(Store.find(Q).Id, Store.find(Q));
      P.SchemeRegions.push_back(Q);
    }
    for (EffectVar Q : Sch.QEffects) {
      P.Maps.Se.emplace(Store.find(Q).Id, Store.find(Q));
      P.SchemeEffects.push_back(Q);
    }
    // Identity *type* entries too: composing with an outer instantiation
    // then carries the outer type substitution into the self-call (the
    // paper's TvRec re-typing, made syntax-directed).
    for (const DeltaEntry &De : Sch.Delta)
      P.Maps.St.emplace(De.Alpha, RArena.tyVar(De.Alpha));
    PendingInsts.emplace(R, std::move(P));
    return R;
  }
  case RExpr::Kind::Lam:
  case RExpr::Kind::ClosVal:
    if (Body->Param == F)
      return Body;
    break;
  case RExpr::Kind::FunBind:
  case RExpr::Kind::FunVal:
    if (Body->Param == F || Body->Name == F)
      return Body;
    break;
  case RExpr::Kind::Let: {
    const RExpr *A = rewriteSelfCalls(Body->A, F, Sch);
    const RExpr *B = Body->Name == F ? Body->B : rewriteSelfCalls(Body->B, F, Sch);
    if (A == Body->A && B == Body->B)
      return Body;
    RExpr *N = EArena.clone(Body);
    N->A = A;
    N->B = B;
    return N;
  }
  case RExpr::Kind::ListCase: {
    const RExpr *A = rewriteSelfCalls(Body->A, F, Sch);
    const RExpr *B = rewriteSelfCalls(Body->B, F, Sch);
    const RExpr *C = (Body->HeadName == F || Body->TailName == F)
                         ? Body->C
                         : rewriteSelfCalls(Body->C, F, Sch);
    if (A == Body->A && B == Body->B && C == Body->C)
      return Body;
    RExpr *N = EArena.clone(Body);
    N->A = A;
    N->B = B;
    N->C = C;
    return N;
  }
  case RExpr::Kind::Handle:
    if (Body->BindName == F) {
      const RExpr *A = rewriteSelfCalls(Body->A, F, Sch);
      if (A == Body->A)
        return Body;
      RExpr *N = EArena.clone(Body);
      N->A = A;
      return N;
    }
    break;
  default:
    break;
  }
  const RExpr *A = rewriteSelfCalls(Body->A, F, Sch);
  const RExpr *B = rewriteSelfCalls(Body->B, F, Sch);
  const RExpr *C = rewriteSelfCalls(Body->C, F, Sch);
  bool Changed = A != Body->A || B != Body->B || C != Body->C;
  std::vector<const RExpr *> Items = Body->Items;
  for (size_t I = 0; I < Items.size(); ++I) {
    const RExpr *NI = rewriteSelfCalls(Items[I], F, Sch);
    Changed |= NI != Items[I];
    Items[I] = NI;
  }
  if (!Changed)
    return Body;
  RExpr *N = EArena.clone(Body);
  N->A = A;
  N->B = B;
  N->C = C;
  N->Items = std::move(Items);
  // Cloned nodes must keep their deferred materialisation records.
  if (N->K == RExpr::Kind::FunBind) {
    auto It = PendingSchemes.find(Body);
    if (It != PendingSchemes.end())
      PendingSchemes.emplace(N, It->second);
  }
  if (N->K == RExpr::Kind::RApp) {
    auto It = PendingInsts.find(Body);
    if (It != PendingInsts.end())
      PendingInsts.emplace(N, It->second);
  }
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point (implementation continues in this file)
//===----------------------------------------------------------------------===//

#include "rinfer/InferExpr.inc"

std::optional<InferResult>
rml::inferRegions(const Program &P, const TypeInfo &Types,
                  const SpuriousInfo &Spurious, const InferOptions &Opts,
                  RTypeArena &RArena, RExprArena &EArena, Interner &Names,
                  DiagnosticEngine &Diags) {
  InferStore Store;
  return inferRegions(P, Types, Spurious, Opts, RArena, EArena, Names, Diags,
                      Store);
}

std::optional<InferResult>
rml::inferRegions(const Program &P, const TypeInfo &Types,
                  const SpuriousInfo &Spurious, const InferOptions &Opts,
                  RTypeArena &RArena, RExprArena &EArena, Interner &Names,
                  DiagnosticEngine &Diags, InferStore &Store) {
  Inferencer I(Types, Spurious, Opts, RArena, EArena, Names, Diags, Store);
  return I.run(P);
}
