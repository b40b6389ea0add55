//===- tests/rexpr_test.cpp - Region-term utilities tests -----------------===//
//
// FreeVarTable (fpv of Section 3.6), value classification, and the two
// substitutions the dynamic semantics is built from: program-variable
// substitution e[v/x] and annotation substitution e[S] (capture-free at
// binders).
//
//===----------------------------------------------------------------------===//

#include "region/RExpr.h"

#include "smallstep/Step.h"

#include <gtest/gtest.h>

using namespace rml;

namespace {

class RExprTest : public ::testing::Test {
protected:
  Symbol sym(const char *S) { return Names.intern(S); }

  RExpr *var(const char *S) {
    RExpr *E = Arena.make(RExpr::Kind::Var);
    E->Name = sym(S);
    return E;
  }
  RExpr *intLit(int64_t V) {
    RExpr *E = Arena.make(RExpr::Kind::IntLit);
    E->IntValue = V;
    return E;
  }
  RExpr *lam(const char *P, const RExpr *Body) {
    RExpr *E = Arena.make(RExpr::Kind::Lam);
    E->Param = sym(P);
    E->A = Body;
    E->AtRho = RegionVar(1);
    return E;
  }
  RExpr *let(const char *N, const RExpr *Rhs, const RExpr *Body) {
    RExpr *E = Arena.make(RExpr::Kind::Let);
    E->Name = sym(N);
    E->A = Rhs;
    E->B = Body;
    return E;
  }
  RExpr *app(const RExpr *F, const RExpr *X) {
    RExpr *E = Arena.make(RExpr::Kind::App);
    E->A = F;
    E->B = X;
    return E;
  }

  bool hasFree(const RExpr *E, const char *S) {
    FreeVarTable Free;
    Free.fill(E);
    return Free.isFree(E, sym(S));
  }

  RExprArena Arena;
  Interner Names;
};

TEST_F(RExprTest, FreeVarsRespectBinders) {
  // fn x => x y : only y is free.
  const RExpr *E = lam("x", app(var("x"), var("y")));
  EXPECT_FALSE(hasFree(E, "x"));
  EXPECT_TRUE(hasFree(E, "y"));
}

TEST_F(RExprTest, LetBindsOnlyTheBody) {
  // let x = x in x : the right-hand x is free, the body x is bound.
  const RExpr *E = let("x", var("x"), var("x"));
  EXPECT_TRUE(hasFree(E, "x"));
  const RExpr *E2 = let("x", intLit(1), var("x"));
  EXPECT_FALSE(hasFree(E2, "x"));
}

TEST_F(RExprTest, CaseBindersScopeOverConsBranch) {
  RExpr *E = Arena.make(RExpr::Kind::ListCase);
  E->A = var("xs");
  E->B = var("h"); // free here!
  E->HeadName = sym("h");
  E->TailName = sym("t");
  E->C = app(var("h"), var("t"));
  EXPECT_TRUE(hasFree(E, "xs"));
  EXPECT_TRUE(hasFree(E, "h")); // via the nil branch
  EXPECT_FALSE(hasFree(E, "t"));
}

TEST_F(RExprTest, ValueClassification) {
  EXPECT_TRUE(intLit(1)->isValue());
  EXPECT_TRUE(Arena.make(RExpr::Kind::NilVal)->isValue());
  EXPECT_TRUE(Arena.make(RExpr::Kind::StrVal)->isValue());
  EXPECT_FALSE(var("x")->isValue());
  EXPECT_FALSE(lam("x", var("x"))->isValue()); // unallocated lambda
  EXPECT_TRUE(Arena.make(RExpr::Kind::ClosVal)->isValue());
}

TEST_F(RExprTest, SubstVarStopsAtShadowingBinders) {
  SmallStep M(Arena, Names);
  // (fn x => x) [v/x] is unchanged; (fn y => x) [v/x] substitutes.
  const RExpr *V = intLit(42);
  const RExpr *Shadow = lam("x", var("x"));
  EXPECT_EQ(M.substVar(Shadow, sym("x"), V), Shadow);
  const RExpr *Open = lam("y", var("x"));
  const RExpr *Out = M.substVar(Open, sym("x"), V);
  EXPECT_NE(Out, Open);
  EXPECT_EQ(Out->A->K, RExpr::Kind::IntLit);
  EXPECT_EQ(Out->A->IntValue, 42);
}

TEST_F(RExprTest, SubstVarSharesUntouchedSubtrees) {
  SmallStep M(Arena, Names);
  const RExpr *Body = app(var("f"), intLit(1));
  const RExpr *Out = M.substVar(Body, sym("zzz"), intLit(9));
  EXPECT_EQ(Out, Body); // no occurrence: node identity preserved
}

TEST_F(RExprTest, SubstTermRewritesAnnotations) {
  SmallStep M(Arena, Names);
  RTypeArena TA;
  RExpr *S = Arena.make(RExpr::Kind::StrE);
  S->StrValue = "x";
  S->AtRho = RegionVar(5);
  Subst Sub;
  Sub.Sr.emplace(RegionVar(5), RegionVar(9));
  const RExpr *Out = M.substTerm(S, Sub, TA);
  EXPECT_EQ(Out->AtRho, RegionVar(9));
  EXPECT_EQ(S->AtRho, RegionVar(5)); // original untouched
}

TEST_F(RExprTest, SubstTermRespectsFunValueBinders) {
  SmallStep M(Arena, Names);
  RTypeArena TA;
  // <fun f [r5] x = "s" at r5>^r1 : r5 is bound; [r9/r5] must not
  // rewrite inside (the renamed-apart convention of Section 3.3).
  RExpr *Body = Arena.make(RExpr::Kind::StrE);
  Body->StrValue = "s";
  Body->AtRho = RegionVar(5);
  RExpr *Fun = Arena.make(RExpr::Kind::FunVal);
  Fun->Name = sym("f");
  Fun->Param = sym("x");
  Fun->A = Body;
  Fun->AtRho = RegionVar(1);
  Fun->Sigma.QRegions = {RegionVar(5)};
  Fun->Sigma.Body = TA.arrowTy(TA.unitTy(), ArrowEff(EffectVar(1), {}),
                               TA.boxed(TA.stringTy(), RegionVar(5)));
  Subst Sub;
  Sub.Sr.emplace(RegionVar(5), RegionVar(9));
  const RExpr *Out = M.substTerm(Fun, Sub, TA);
  EXPECT_EQ(Out, Fun) << "bound r5 must shield the whole fun value";

  // An unbound region in the same value *is* rewritten.
  Subst Sub2;
  Sub2.Sr.emplace(RegionVar(1), RegionVar(7));
  const RExpr *Out2 = M.substTerm(Fun, Sub2, TA);
  EXPECT_NE(Out2, Fun);
  EXPECT_EQ(Out2->AtRho, RegionVar(7));
  EXPECT_EQ(Out2->A->AtRho, RegionVar(5)); // body untouched
}

TEST_F(RExprTest, SubstTermRespectsLetregionBinders) {
  SmallStep M(Arena, Names);
  RTypeArena TA;
  RExpr *Body = Arena.make(RExpr::Kind::StrE);
  Body->StrValue = "s";
  Body->AtRho = RegionVar(5);
  RExpr *LR = Arena.make(RExpr::Kind::LetRegion);
  LR->BoundRho = RegionVar(5);
  LR->A = Body;
  Subst Sub;
  Sub.Sr.emplace(RegionVar(5), RegionVar(9));
  const RExpr *Out = M.substTerm(LR, Sub, TA);
  // The binder shields its body: the at-annotation keeps r5.
  EXPECT_EQ(Out->A->AtRho, RegionVar(5));
}

TEST_F(RExprTest, CloneIsShallow) {
  const RExpr *Body = var("x");
  RExpr *L = lam("x", Body);
  RExpr *C = Arena.clone(L);
  EXPECT_NE(C, L);
  EXPECT_EQ(C->A, Body);
  EXPECT_EQ(C->Param, L->Param);
}

} // namespace
