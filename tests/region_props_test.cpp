//===- tests/region_props_test.cpp - Metatheory property sweeps -----------===//
//
// Executable versions of the paper's Propositions 1-5 over randomly
// generated (seeded, deterministic) region types, effects and
// substitutions:
//
//   Prop 1: containment implies well-formedness.
//   Prop 2: Omega |- o : phi implies frev(o) subset phi.
//   Prop 3: substitution effect monotonicity.
//   Prop 4: containment closed under region-effect substitution.
//   Prop 5: containment closed under *covered* type substitution.
//
// Plus the extensibility properties stated between them.
//
//===----------------------------------------------------------------------===//

#include "region/Containment.h"
#include "region/Subst.h"

#include <gtest/gtest.h>

#include <random>

using namespace rml;

namespace {

/// Deterministic random generator for region types and substitutions.
class Gen {
public:
  Gen(uint32_t Seed, RTypeArena &A) : Rng(Seed), A(A) {}

  RegionVar region() { return RegionVar(pick(1, 8)); }
  EffectVar effectVar() { return EffectVar(pick(1, 8)); }
  TyVarId tyVar() { return TyVarId(pick(0, 3)); }

  Effect effect(unsigned MaxSize = 4) {
    Effect Out;
    unsigned N = pick(0, MaxSize);
    for (unsigned I = 0; I < N; ++I) {
      if (flip())
        Out.insert(AtomicEffect(region()));
      else
        Out.insert(AtomicEffect(effectVar()));
    }
    return Out;
  }

  ArrowEff arrow() { return ArrowEff(effectVar(), effect()); }

  /// A random mu of bounded depth; type variables drawn from Omega's
  /// domain when \p Omega is given.
  const Mu *mu(unsigned Depth, const TyVarCtx *Omega = nullptr) {
    unsigned Choice = pick(0, Depth == 0 ? 2 : 6);
    switch (Choice) {
    case 0:
      return A.intTy();
    case 1:
      return A.boolTy();
    case 2:
      return Omega && !Omega->empty() ? muTyVarFrom(*Omega) : A.unitTy();
    case 3:
      return A.boxed(A.stringTy(), region());
    case 4:
      return A.boxed(
          A.pairTy(mu(Depth - 1, Omega), mu(Depth - 1, Omega)), region());
    case 5:
      return A.boxed(A.listTy(mu(Depth - 1, Omega)), region());
    default:
      return A.boxed(A.arrowTy(mu(Depth - 1, Omega), arrow(),
                               mu(Depth - 1, Omega)),
                     region());
    }
  }

  const Mu *muTyVarFrom(const TyVarCtx &Omega) {
    std::vector<TyVarId> Vars;
    for (const auto &[V, Nu] : Omega)
      Vars.push_back(V);
    return A.tyVar(Vars[pick(0, static_cast<unsigned>(Vars.size()) - 1)]);
  }

  TyVarCtx omega(unsigned N) {
    TyVarCtx Out;
    for (unsigned I = 0; I < N; ++I)
      Out.bind(TyVarId(I), arrow());
    return Out;
  }

  /// A region-effect substitution (empty St).
  Subst regionEffectSubst() {
    Subst S;
    unsigned NR = pick(0, 4);
    for (unsigned I = 0; I < NR; ++I)
      S.Sr.emplace(region(), region());
    unsigned NE = pick(0, 3);
    for (unsigned I = 0; I < NE; ++I)
      S.Se.emplace(effectVar(), arrow());
    return S;
  }

  bool flip() { return pick(0, 1) == 1; }
  unsigned pick(unsigned Lo, unsigned Hi) {
    return Lo + static_cast<unsigned>(Rng() % (Hi - Lo + 1));
  }

private:
  std::mt19937 Rng;
  RTypeArena &A;
};

class RegionProps : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RegionProps, ContainmentImpliesWellFormedness) {
  // Proposition 1.
  RTypeArena A;
  Gen G(GetParam(), A);
  TyVarCtx Omega = G.omega(3);
  for (int I = 0; I < 40; ++I) {
    const Mu *M = G.mu(3, &Omega);
    Effect Phi = frevOf(M).unionWith(Omega.frev()).unionWith(G.effect());
    if (typeContained(Omega, M, Phi)) {
      EXPECT_TRUE(wellFormed(Omega, M)) << printMu(M);
    }
  }
}

TEST_P(RegionProps, ContainmentImpliesFrevSubset) {
  // Proposition 2.
  RTypeArena A;
  Gen G(GetParam() + 1000, A);
  TyVarCtx Omega = G.omega(2);
  for (int I = 0; I < 40; ++I) {
    const Mu *M = G.mu(3, &Omega);
    Effect Phi = frevOf(M).unionWith(Omega.frev()).unionWith(G.effect());
    if (typeContained(Omega, M, Phi)) {
      EXPECT_TRUE(frevOf(M).subsetOf(Phi))
          << printMu(M) << " : " << printEffect(Phi);
    }
  }
}

TEST_P(RegionProps, SubstitutionEffectMonotonicity) {
  // Proposition 3: phi subset phi' implies S(phi) subset S(phi').
  RTypeArena A;
  Gen G(GetParam() + 2000, A);
  for (int I = 0; I < 60; ++I) {
    Subst S = G.regionEffectSubst();
    Effect Small = G.effect();
    Effect Big = Small.unionWith(G.effect());
    EXPECT_TRUE(S.apply(Small).subsetOf(S.apply(Big)))
        << S.str() << " on " << printEffect(Small) << " subset "
        << printEffect(Big);
  }
}

TEST_P(RegionProps, ArrowEffectSubstitutionInterchange) {
  // frev(S(eps.phi)) = S({eps} u phi).
  RTypeArena A;
  Gen G(GetParam() + 3000, A);
  for (int I = 0; I < 60; ++I) {
    Subst S = G.regionEffectSubst();
    ArrowEff Nu = G.arrow();
    Effect Lhs = S.apply(Nu).frev();
    Effect Arg = Nu.Phi;
    Arg.insert(AtomicEffect(Nu.Handle));
    EXPECT_EQ(Lhs, S.apply(Arg)) << S.str() << " on " << printArrowEff(Nu);
  }
}

TEST_P(RegionProps, ContainmentClosedUnderRegionEffectSubstitution) {
  // Proposition 4: if Omega |- mu : phi and S is a region-effect
  // substitution then S(Omega) |- S(mu) : S(phi).
  RTypeArena A;
  Gen G(GetParam() + 4000, A);
  TyVarCtx Omega = G.omega(2);
  for (int I = 0; I < 40; ++I) {
    const Mu *M = G.mu(3, &Omega);
    Effect Phi = frevOf(M).unionWith(Omega.frev()).unionWith(G.effect());
    if (!typeContained(Omega, M, Phi))
      continue;
    Subst S = G.regionEffectSubst();
    TyVarCtx OmegaS = S.apply(Omega);
    EXPECT_TRUE(typeContained(OmegaS, S.apply(M, A), S.apply(Phi)))
        << S.str() << " on " << printMu(M) << " : " << printEffect(Phi);
  }
}

TEST_P(RegionProps, ContainmentClosedUnderCoveredTypeSubstitution) {
  // Proposition 5: if Omega + Delta |- mu : phi and Omega |- S : Delta
  // then Omega |- S(mu) : phi.
  RTypeArena A;
  Gen G(GetParam() + 5000, A);
  // Omega binds 'a0,'a1; Delta binds 'a2 with a random arrow effect.
  TyVarCtx Omega = G.omega(2);
  for (int I = 0; I < 40; ++I) {
    TyVarCtx Delta;
    ArrowEff Nu = G.arrow();
    Delta.bind(TyVarId(2), Nu);
    TyVarCtx Sum = Omega.plus(Delta);

    // A covered substitution: choose an instance contained in
    // frev(Delta('a2)).
    const Mu *Inst = nullptr;
    for (int Tries = 0; Tries < 20 && !Inst; ++Tries) {
      const Mu *Cand = G.mu(2, &Omega);
      if (typeContained(Omega, Cand, Nu.frev()))
        Inst = Cand;
    }
    if (!Inst)
      Inst = A.intTy(); // int is contained in any effect
    Subst S;
    S.St.emplace(TyVarId(2), Inst);
    ASSERT_TRUE(covers(Omega, S, Delta));

    const Mu *M = G.mu(3, &Sum);
    Effect Phi = frevOf(M).unionWith(Sum.frev()).unionWith(G.effect());
    if (!typeContained(Sum, M, Phi))
      continue;
    EXPECT_TRUE(typeContained(Omega, S.apply(M, A), Phi))
        << printMu(M) << " with 'a2 := " << printMu(Inst) << " : "
        << printEffect(Phi);
  }
}

TEST_P(RegionProps, ContextAndEffectExtensibility) {
  // If Omega |- o : phi then Omega + Delta |- o : phi (disjoint domains)
  // and Omega |- o : phi' for phi subset phi'.
  RTypeArena A;
  Gen G(GetParam() + 6000, A);
  TyVarCtx Omega = G.omega(2);
  TyVarCtx Delta;
  Delta.bind(TyVarId(9), G.arrow());
  for (int I = 0; I < 40; ++I) {
    const Mu *M = G.mu(3, &Omega);
    Effect Phi = frevOf(M).unionWith(Omega.frev()).unionWith(G.effect());
    if (!typeContained(Omega, M, Phi))
      continue;
    EXPECT_TRUE(typeContained(Omega.plus(Delta), M, Phi));
    EXPECT_TRUE(typeContained(Omega, M, Phi.unionWith(G.effect())));
  }
}

TEST_P(RegionProps, InstantiationClosedUnderRegionEffectSubstitution) {
  // Proposition 6: if S is a region-effect substitution and
  // Omega |- sigma >= tau via S' then
  // S(Omega) |- S(sigma) >= S(tau) via (S o S')|dom(S').
  RTypeArena A;
  Gen G(GetParam() + 7000, A);
  TyVarCtx Omega = G.omega(1);
  for (int I = 0; I < 25; ++I) {
    // Build sigma = forall r20 e20 ('a2 : e21.phi). tau with the body
    // mentioning the bound variables.
    RegionVar QR(20);
    EffectVar QE(20), QA(21);
    ArrowEff DeltaNu(QA, Effect{});
    RScheme Sigma;
    Sigma.QRegions = {QR};
    Sigma.QEffects = {QE, QA};
    Sigma.Delta.bind(TyVarId(2), DeltaNu);
    Sigma.Body = A.arrowTy(A.tyVar(TyVarId(2)), ArrowEff(QE, Effect{}),
                           A.boxed(A.stringTy(), QR));

    // An instantiating substitution S' with a covered type component.
    Subst SPrime;
    SPrime.Sr.emplace(QR, G.region());
    SPrime.Se.emplace(QE, G.arrow());
    ArrowEff InstNu = G.arrow();
    SPrime.Se.emplace(QA, InstNu);
    const Mu *Inst = nullptr;
    for (int T = 0; T < 20 && !Inst; ++T) {
      const Mu *Cand = G.mu(2, &Omega);
      if (typeContained(Omega, Cand, InstNu.frev()))
        Inst = Cand;
    }
    if (!Inst)
      Inst = A.intTy();
    SPrime.St.emplace(TyVarId(2), Inst);

    Subst RE;
    RE.Sr = SPrime.Sr;
    RE.Se = SPrime.Se;
    const Tau *TauInst = Subst{SPrime.St, {}, {}}.apply(
        RE.apply(Sigma.Body, A), A);
    ASSERT_TRUE(instanceOf(Omega, Sigma, SPrime, TauInst, A));

    // An outer region-effect substitution whose domain avoids the bound
    // variables (the paper's renamed-apart convention).
    Subst S;
    for (int K = 0; K < 3; ++K) {
      RegionVar From = G.region();
      if (From != QR)
        S.Sr.emplace(From, G.region());
    }
    for (int K = 0; K < 2; ++K) {
      EffectVar From = G.effectVar();
      if (From != QE && From != QA)
        S.Se.emplace(From, G.arrow());
    }
    // Also keep the ranges clear of the bound variables.
    bool Captures = !Sigma.boundVars().disjointFrom([&] {
      Effect Foot;
      for (const auto &[R1, R2] : S.Sr)
        Foot.insert(AtomicEffect(R2));
      for (const auto &[E1, Nu] : S.Se)
        Foot = Foot.unionWith(Nu.frev());
      return Foot;
    }());
    if (Captures)
      continue;

    Subst SComposed = composeRestricted(S, SPrime, A);
    TyVarCtx OmegaS = S.apply(Omega);
    RScheme SigmaS = S.apply(Sigma, A);
    const Tau *TauS = S.apply(TauInst, A);
    EXPECT_TRUE(instanceOf(OmegaS, SigmaS, SComposed, TauS, A))
        << "sigma = " << printScheme(Sigma) << "\nS = " << S.str()
        << "\nS' = " << SPrime.str();
  }
}

TEST_P(RegionProps, InstantiationClosedUnderCoveredTypeSubstitution) {
  // Proposition 7: if Omega + Delta |- sigma >= tau via S' and
  // Omega |- S : Delta then Omega |- S(sigma) >= S(tau) via the
  // restricted composition.
  RTypeArena A;
  Gen G(GetParam() + 8000, A);
  TyVarCtx Omega = G.omega(1);
  for (int I = 0; I < 25; ++I) {
    // Delta binds 'a3; sigma's body mentions 'a3 (free in the scheme).
    TyVarCtx Delta;
    ArrowEff DeltaNu = G.arrow();
    Delta.bind(TyVarId(3), DeltaNu);
    TyVarCtx Sum = Omega.plus(Delta);

    EffectVar QE(20);
    RScheme Sigma;
    Sigma.QEffects = {QE};
    Sigma.Body = A.arrowTy(A.tyVar(TyVarId(3)), ArrowEff(QE, Effect{}),
                           A.intTy());

    Subst SPrime;
    SPrime.Se.emplace(QE, G.arrow());
    Subst RE;
    RE.Se = SPrime.Se;
    const Tau *TauInst = RE.apply(Sigma.Body, A);
    ASSERT_TRUE(instanceOf(Sum, Sigma, SPrime, TauInst, A));

    // A covered S for Delta.
    const Mu *Inst = nullptr;
    for (int T = 0; T < 20 && !Inst; ++T) {
      const Mu *Cand = G.mu(2, &Omega);
      if (typeContained(Omega, Cand, DeltaNu.frev()))
        Inst = Cand;
    }
    if (!Inst)
      Inst = A.intTy();
    Subst S;
    S.St.emplace(TyVarId(3), Inst);
    ASSERT_TRUE(covers(Omega, S, Delta));

    Subst SComposed = composeRestricted(S, SPrime, A);
    const Tau *TauS = S.apply(TauInst, A);
    EXPECT_TRUE(instanceOf(Omega, S.apply(Sigma, A), SComposed, TauS, A))
        << printScheme(Sigma) << " with 'a3 := " << printMu(Inst);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionProps,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

} // namespace
