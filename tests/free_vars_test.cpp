//===- tests/free_vars_test.cpp - Shared compile facts vs their oracles ---===//
//
// The free-variable table and the inference store's effect closure are
// computed once per compile and read by several passes, so an error in
// either would be shared by inference and by the checker that is meant
// to validate it. These tests hold both to the naive computations they
// replaced (tests/free_vars_oracle.h) on every benchmark-suite program
// and the Figure 1, Figure 8 and Section 4.4 programs under every
// strategy; fuzz_test.cpp does the same for every generated program.
//
//===----------------------------------------------------------------------===//

#include "bench/Programs.h"
#include "core/Pipeline.h"

#include "free_vars_oracle.h"

#include <gtest/gtest.h>

using namespace rml;

namespace {

std::vector<std::pair<std::string, std::string>> programs() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const bench::BenchProgram &P : bench::benchmarkSuite())
    Out.emplace_back(P.Name, P.Source);
  Out.emplace_back("figure1", bench::danglingPointerProgram());
  Out.emplace_back("figure8", bench::spuriousChainProgram());
  Out.emplace_back("sec4.4", bench::exnDanglingProgram());
  return Out;
}

constexpr Strategy Strategies[] = {Strategy::Rg, Strategy::RgMinus,
                                   Strategy::R};

TEST(FreeVarsOracle, TableMatchesTheNaiveWalkAtEveryNode) {
  size_t Checked = 0;
  for (const auto &[Name, Source] : programs()) {
    for (Strategy S : Strategies) {
      Compiler C;
      CompileOptions Opts;
      Opts.Strat = S;
      auto Unit = C.compile(Source, Opts);
      ASSERT_NE(Unit, nullptr) << Name << "\n" << C.diagnostics().str();
      EXPECT_EQ(free_vars_oracle::checkTable(Unit->program(), C.names(),
                                             &Checked),
                "")
          << Name << " under " << strategyName(S);
    }
  }
  EXPECT_GT(Checked, 10000u); // the comparison is not vacuous
}

TEST(FreeVarsOracle, StoreClosureMatchesTheSetReference) {
  size_t Checked = 0;
  for (const auto &[Name, Source] : programs()) {
    for (Strategy S : Strategies) {
      InferOptions Opts;
      Opts.Strat = S;
      EXPECT_EQ(free_vars_oracle::checkClosuresOf(Source, Opts, &Checked), "")
          << Name << " under " << strategyName(S);
    }
  }
  EXPECT_GT(Checked, 10000u);
}

TEST(FreeVarsOracle, OrderIsFirstOccurrenceInPreOrder) {
  // let g = fn a => b a in (c, fn b => (b, d)) : the let's list is
  // b (from the right-hand side), then c and d from the body, and b is
  // bound only inside the inner lambda.
  RExprArena Arena;
  Interner Names;
  auto Var = [&](const char *S) {
    RExpr *E = Arena.make(RExpr::Kind::Var);
    E->Name = Names.intern(S);
    return E;
  };
  auto Node = [&](RExpr::Kind K, const RExpr *A, const RExpr *B) {
    RExpr *E = Arena.make(K);
    E->A = A;
    E->B = B;
    return E;
  };
  RExpr *Inner = Node(RExpr::Kind::Lam,
                      Node(RExpr::Kind::PairE, Var("b"), Var("d")), nullptr);
  Inner->Param = Names.intern("b");
  RExpr *Rhs = Node(RExpr::Kind::Lam,
                    Node(RExpr::Kind::App, Var("b"), Var("a")), nullptr);
  Rhs->Param = Names.intern("a");
  RExpr *Let =
      Node(RExpr::Kind::Let, Rhs, Node(RExpr::Kind::PairE, Var("c"), Inner));
  Let->Name = Names.intern("g");

  RProgram P;
  P.Root = Let;
  P.FreeVars.fill(Let);
  std::span<const Symbol> Free = P.FreeVars.of(Let);
  ASSERT_EQ(Free.size(), 3u);
  EXPECT_EQ(Names.text(Free[0]), "b");
  EXPECT_EQ(Names.text(Free[1]), "c");
  EXPECT_EQ(Names.text(Free[2]), "d");
  EXPECT_EQ(free_vars_oracle::checkTable(P, Names), "");
}

} // namespace
