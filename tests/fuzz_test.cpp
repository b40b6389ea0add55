//===- tests/fuzz_test.cpp - Type-directed program fuzzing ----------------===//
//
// Generates random *well-typed* MiniML programs (type-directed, seeded,
// deterministic) in the pure fragment and checks, for every program:
//
//   * the full pipeline compiles under rg and the strict Figure 4
//     checker accepts the result,
//   * rg, rg-, r, scheme (3), and the generational collector all compute
//     the same value under an aggressive collection schedule,
//   * every run matches the runtime golden file (tests/runtime_golden.h)
//     on every observable, crashes included,
//   * the small-step semantics of Section 3.10 computes the same value
//     as the realistic runtime — the independent semantic oracle.
//
// The generator deliberately instantiates the composition function's
// spurious type variable with random (often boxed) types — the exact
// shape of the paper's counterexample — so GC safety is exercised far
// beyond the hand-written programs.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "free_vars_oracle.h"
#include "runtime_golden.h"
#include "scope_oracle.h"
#include "smallstep/Step.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>

using namespace rml;

namespace {

//===----------------------------------------------------------------------===//
// Generator types
//===----------------------------------------------------------------------===//

struct GTy;
using GTyRef = std::shared_ptr<GTy>;

struct GTy {
  enum class Kind : uint8_t { Int, Bool, Str, Pair, List, Fun };
  Kind K;
  GTyRef A, B;

  static GTyRef mk(Kind K, GTyRef A = nullptr, GTyRef B = nullptr) {
    auto T = std::make_shared<GTy>();
    T->K = K;
    T->A = std::move(A);
    T->B = std::move(B);
    return T;
  }
};

bool sameTy(const GTyRef &X, const GTyRef &Y) {
  if (X->K != Y->K)
    return false;
  if (X->A && !sameTy(X->A, Y->A))
    return false;
  if (X->B && !sameTy(X->B, Y->B))
    return false;
  return true;
}

std::string tyName(const GTyRef &T) {
  switch (T->K) {
  case GTy::Kind::Int:
    return "int";
  case GTy::Kind::Bool:
    return "bool";
  case GTy::Kind::Str:
    return "string";
  case GTy::Kind::Pair:
    return "(" + tyName(T->A) + " * " + tyName(T->B) + ")";
  case GTy::Kind::List:
    return tyName(T->A) + " list";
  case GTy::Kind::Fun:
    return "(" + tyName(T->A) + " -> " + tyName(T->B) + ")";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// The program generator
//===----------------------------------------------------------------------===//

class ProgGen {
public:
  explicit ProgGen(uint32_t Seed) : Rng(Seed) {}

  /// A full program of type int, using the polymorphic mini-basis.
  std::string program() {
    std::string Basis =
        "fun compose fg = fn x => #1 fg (#2 fg x)\n"
        "fun id x = x\n"
        "fun fst p = #1 p\n"
        "fun snd p = #2 p\n";
    return Basis + ";" + gen(GTy::mk(GTy::Kind::Int), 5);
  }

private:
  unsigned pick(unsigned N) { return static_cast<unsigned>(Rng() % N); }
  bool chance(unsigned Percent) { return pick(100) < Percent; }

  std::string freshVar() { return "v" + std::to_string(NextId++); }

  GTyRef randomTy(int Depth) {
    switch (pick(Depth > 0 ? 6 : 3)) {
    case 0:
      return GTy::mk(GTy::Kind::Int);
    case 1:
      return GTy::mk(GTy::Kind::Bool);
    case 2:
      return GTy::mk(GTy::Kind::Str);
    case 3:
      return GTy::mk(GTy::Kind::Pair, randomTy(Depth - 1),
                     randomTy(Depth - 1));
    case 4:
      return GTy::mk(GTy::Kind::List, randomTy(Depth - 1));
    default:
      return GTy::mk(GTy::Kind::Fun, randomTy(Depth - 1),
                     randomTy(Depth - 1));
    }
  }

  /// A variable of type \p T from the environment, or "".
  std::string varOf(const GTyRef &T) {
    std::vector<const std::string *> Hits;
    for (const auto &[Name, Ty] : Env)
      if (sameTy(Ty, T))
        Hits.push_back(&Name);
    if (Hits.empty())
      return "";
    return *Hits[pick(static_cast<unsigned>(Hits.size()))];
  }

  std::string gen(const GTyRef &T, int Depth) {
    // Leaves when out of budget.
    if (Depth <= 0)
      return leaf(T);
    // Shared generic forms.
    if (chance(25))
      return genericForm(T, Depth);
    // Type-directed forms.
    switch (T->K) {
    case GTy::Kind::Int:
      switch (pick(4)) {
      case 0:
        return leaf(T);
      case 1:
        return "(" + gen(T, Depth - 1) + " + " + gen(T, Depth - 1) + ")";
      case 2:
        return "(" + gen(T, Depth - 1) + " - " + gen(T, Depth - 1) + ")";
      default: {
        // Fold a list down to an int through its length.
        GTyRef ElemT = randomTy(1);
        GTyRef ListT = GTy::mk(GTy::Kind::List, ElemT);
        std::string Scrut = gen(ListT, Depth - 1);
        std::string H = freshVar(), Tl = freshVar();
        return "(case " + Scrut + " of nil => " + gen(T, 0) + " | " + H +
               " :: " + Tl + " => " + gen(T, 0) + ")";
      }
      }
    case GTy::Kind::Bool:
      switch (pick(3)) {
      case 0:
        return leaf(T);
      case 1:
        return "(" + gen(GTy::mk(GTy::Kind::Int), Depth - 1) + " < " +
               gen(GTy::mk(GTy::Kind::Int), Depth - 1) + ")";
      default:
        return "(" + gen(T, Depth - 1) +
               (chance(50) ? " andalso " : " orelse ") +
               gen(T, Depth - 1) + ")";
      }
    case GTy::Kind::Str:
      if (chance(55))
        return "(" + gen(T, Depth - 1) + " ^ " + gen(T, Depth - 1) + ")";
      return leaf(T);
    case GTy::Kind::Pair:
      return "(" + gen(T->A, Depth - 1) + ", " + gen(T->B, Depth - 1) + ")";
    case GTy::Kind::List:
      if (chance(60))
        return "(" + gen(T->A, Depth - 1) + " :: " + gen(T, Depth - 1) +
               ")";
      return leaf(T);
    case GTy::Kind::Fun: {
      std::string X = freshVar();
      size_t Mark = Env.size();
      Env.emplace_back(X, T->A);
      std::string Body = gen(T->B, Depth - 1);
      Env.resize(Mark);
      return "(fn (" + X + " : " + tyName(T->A) + ") => " + Body + ")";
    }
    }
    return leaf(T);
  }

  /// Forms available at every type: let, if, projection, application,
  /// polymorphic basis uses (incl. compose with a random boxed pivot),
  /// and (for int) a bounded recursive countdown.
  std::string genericForm(const GTyRef &T, int Depth) {
    if (T->K == GTy::Kind::Int && chance(12)) {
      // let fun f k = if k < 1 then e0 else eStep + f (k - 1)
      // in f smallN end — guaranteed-terminating recursion through the
      // full fun/region-application machinery.
      std::string F = freshVar(), K = freshVar();
      size_t Mark = Env.size();
      Env.emplace_back(K, GTy::mk(GTy::Kind::Int));
      std::string Base = gen(T, Depth - 2);
      std::string Step = gen(T, Depth - 2);
      Env.resize(Mark);
      return "let fun " + F + " " + K + " = if " + K + " < 1 then " +
             Base + " else " + Step + " + " + F + " (" + K +
             " - 1) in " + F + " " + std::to_string(pick(6) + 1) + " end";
    }
    switch (pick(7)) {
    case 0: { // let val x = e1 in e2 end
      GTyRef T1 = randomTy(Depth - 2);
      std::string X = freshVar();
      std::string Rhs = gen(T1, Depth - 1);
      size_t Mark = Env.size();
      Env.emplace_back(X, T1);
      std::string Body = gen(T, Depth - 1);
      Env.resize(Mark);
      return "let val " + X + " = " + Rhs + " in " + Body + " end";
    }
    case 1: // if
      return "(if " + gen(GTy::mk(GTy::Kind::Bool), Depth - 1) + " then " +
             gen(T, Depth - 1) + " else " + gen(T, Depth - 1) + ")";
    case 2: { // projection
      GTyRef Other = randomTy(Depth - 2);
      if (chance(50))
        return "#1 " + gen(GTy::mk(GTy::Kind::Pair, T, Other), Depth - 1);
      return "#2 " + gen(GTy::mk(GTy::Kind::Pair, Other, T), Depth - 1);
    }
    case 3: { // immediate application
      GTyRef ArgT = randomTy(Depth - 2);
      return "(" + gen(GTy::mk(GTy::Kind::Fun, ArgT, T), Depth - 1) + " " +
             gen(ArgT, Depth - 1) + ")";
    }
    case 4: // id instantiation
      return "(id " + gen(T, Depth - 1) + ")";
    case 5: { // fst/snd instantiation (a polymorphic pair use)
      GTyRef Other = randomTy(Depth - 2);
      if (chance(50))
        return "(fst (" + gen(T, Depth - 1) + ", " +
               gen(Other, Depth - 1) + "))";
      return "(snd (" + gen(Other, Depth - 1) + ", " + gen(T, Depth - 1) +
             "))";
    }
    default: { // compose with a random pivot type C — the paper's shape:
               // gamma := C, often boxed.
      GTyRef C = randomTy(Depth - 2);
      GTyRef ArgT = randomTy(Depth - 2);
      std::string F = gen(GTy::mk(GTy::Kind::Fun, C, T), Depth - 1);
      std::string G = gen(GTy::mk(GTy::Kind::Fun, ArgT, C), Depth - 1);
      std::string Arg = gen(ArgT, Depth - 1);
      return "(compose (" + F + ", " + G + ") " + Arg + ")";
    }
    }
  }

  std::string leaf(const GTyRef &T) {
    std::string V = varOf(T);
    if (!V.empty() && chance(60))
      return V;
    switch (T->K) {
    case GTy::Kind::Int:
      return std::to_string(pick(90));
    case GTy::Kind::Bool:
      return chance(50) ? "true" : "false";
    case GTy::Kind::Str: {
      const char *Words[] = {"\"oh\"", "\"no\"", "\"ok\"", "\"\""};
      return Words[pick(4)];
    }
    case GTy::Kind::Pair:
      return "(" + leaf(T->A) + ", " + leaf(T->B) + ")";
    case GTy::Kind::List:
      return chance(40) ? "nil"
                        : "(" + leaf(T->A) + " :: nil)";
    case GTy::Kind::Fun: {
      std::string X = freshVar();
      size_t Mark = Env.size();
      Env.emplace_back(X, T->A);
      std::string Body = leaf(T->B);
      Env.resize(Mark);
      return "(fn (" + X + " : " + tyName(T->A) + ") => " + Body + ")";
    }
    }
    return "0";
  }

  std::mt19937 Rng;
  unsigned NextId = 0;
  std::vector<std::pair<std::string, GTyRef>> Env;
};

//===----------------------------------------------------------------------===//
// The properties
//===----------------------------------------------------------------------===//

/// Pins run \p R (under \p Opts) of generated program \p I of this seed
/// under config \p Cfg to the runtime golden file: outcome, printed
/// output, rendered value, error text, steps and the full heap
/// accounting, crashes included (an rg- dangling pointer is part of the
/// semantics).
void expectGoldenRun(uint32_t Seed, int I, const char *Cfg,
                     const std::string &Src, const rt::RunResult &R,
                     const rt::EvalOptions &Opts) {
  golden::expectMatchesGolden("fuzz/" + std::to_string(Seed) + "/" +
                                  std::to_string(I) + "/" + Cfg,
                              Src, R, Opts);
}

class FuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzTest, PipelineAgreementAndGcSafety) {
  const int ProgramsPerSeed = 40;
  ProgGen Gen(GetParam());
  for (int I = 0; I < ProgramsPerSeed; ++I) {
    std::string Src = ProgGen(GetParam() * 1000 + I).program();

    // Reference: rg with the strict checker.
    Compiler C;
    auto Unit = C.compile(Src);
    ASSERT_NE(Unit, nullptr)
        << "rg compile failed:\n" << C.diagnostics().str() << "\n" << Src;
    // Every slot names the binder the old name scan finds, every node's
    // free variables are the naive walk's, and the store's closure is
    // the std::set search's.
    EXPECT_EQ(scope_oracle::checkScopes(*Unit->Flat).Problem, "") << Src;
    EXPECT_EQ(free_vars_oracle::checkTable(Unit->program(), C.names()), "")
        << Src;
    EXPECT_EQ(free_vars_oracle::checkClosuresOf(Src, InferOptions()), "")
        << Src;
    rt::EvalOptions Aggressive;
    Aggressive.GcThresholdWords = 256; // collect constantly
    Aggressive.RetainReleasedPages = true;
    rt::RunResult Ref = C.run(*Unit, Aggressive);
    ASSERT_EQ(Ref.Outcome, rt::RunOutcome::Ok) << Ref.Error << "\n" << Src;
    expectGoldenRun(GetParam(), I, "rg", Src, Ref, Aggressive);

    // And the flat unit survives a serialisation round trip unchanged:
    // decode(encode(U)) re-encodes to the same bytes and still computes
    // the same run (what the disk tier actually executes after a warm
    // restart).
    {
      std::string Bytes = flat::encodeFlat(*Unit->Flat);
      std::shared_ptr<const flat::FlatUnit> Back = flat::decodeFlat(Bytes);
      ASSERT_NE(Back, nullptr) << Src;
      EXPECT_EQ(flat::encodeFlat(*Back), Bytes) << Src;
      rt::RunResult FR = Compiler::runFlat(*Back, Aggressive);
      EXPECT_EQ(FR.Outcome, rt::RunOutcome::Ok) << FR.Error << "\n" << Src;
      EXPECT_EQ(FR.ResultText, Ref.ResultText) << Src;
      EXPECT_EQ(FR.Steps, Ref.Steps) << Src;
    }

    // The capture-tracking table rides the same flat container: on
    // every generated program the report the compiler renders survives
    // encode -> decode byte-identically (what a disk-tier process
    // re-renders after a warm restart), and the fail-closed decoder
    // accepts everything the flattener emits.
    {
      Compiler CapC;
      CompileOptions CapOpts;
      CapOpts.Captures = true;
      auto CapUnit = CapC.compile(Src, CapOpts);
      ASSERT_NE(CapUnit, nullptr)
          << "captures compile failed:\n" << CapC.diagnostics().str() << Src;
      std::string Report = CapC.captureReport(*CapUnit);
      ASSERT_NE(CapUnit->Flat, nullptr) << Src;
      EXPECT_TRUE(CapUnit->Flat->hasCaptures()) << Src;
      EXPECT_EQ(flat::renderCaptureReport(*CapUnit->Flat), Report) << Src;
      auto CapBack = flat::decodeFlat(flat::encodeFlat(*CapUnit->Flat));
      ASSERT_NE(CapBack, nullptr) << Src;
      EXPECT_EQ(flat::renderCaptureReport(*CapBack), Report) << Src;
    }

    // Every other configuration computes the same value.
    struct Config {
      const char *Name;
      Strategy S;
      SpuriousMode M;
      bool Generational;
    };
    const Config Configs[] = {
        {"rg-", Strategy::RgMinus, SpuriousMode::FreshSecondary, false},
        {"r", Strategy::R, SpuriousMode::FreshSecondary, false},
        {"rg/identify", Strategy::Rg, SpuriousMode::IdentifyWithFun, false},
        {"rg/generational", Strategy::Rg, SpuriousMode::FreshSecondary,
         true},
    };
    for (const Config &Cfg : Configs) {
      Compiler C2;
      CompileOptions Opts;
      Opts.Strat = Cfg.S;
      Opts.Spurious = Cfg.M;
      auto U2 = C2.compile(Src, Opts);
      ASSERT_NE(U2, nullptr) << Cfg.Name << " compile failed:\n"
                             << C2.diagnostics().str() << "\n" << Src;
      EXPECT_EQ(scope_oracle::checkScopes(*U2->Flat).Problem, "")
          << Cfg.Name << "\n" << Src;
      EXPECT_EQ(free_vars_oracle::checkTable(U2->program(), C2.names()), "")
          << Cfg.Name << "\n" << Src;
      rt::EvalOptions E = Aggressive;
      E.Generational = Cfg.Generational;
      rt::RunResult R = C2.run(*U2, E);
      expectGoldenRun(GetParam(), I, Cfg.Name, Src, R, E);
      // rg- may legitimately crash with a dangling pointer when the
      // generator builds a Figure-1 shape; anything else must agree.
      if (Cfg.S == Strategy::RgMinus &&
          R.Outcome == rt::RunOutcome::DanglingPointer)
        continue;
      ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok)
          << Cfg.Name << ": " << R.Error << "\n" << Src;
      EXPECT_EQ(R.ResultText, Ref.ResultText) << Cfg.Name << "\n" << Src;
    }

    // The formal semantics agrees with the runtime.
    RExprArena Arena;
    SmallStep Machine(Arena, C.names());
    Effect Phi{AtomicEffect(RegionVar::global())};
    SmallStep::RunResult SR =
        Machine.run(Unit->program().Root, Phi, 400000);
    ASSERT_TRUE(SR.Finished) << SR.Why << "\n" << Src;
    ASSERT_EQ(SR.Final->K, RExpr::Kind::IntLit) << Src;
    EXPECT_EQ(std::to_string(SR.Final->IntValue), Ref.ResultText) << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(11u, 23u, 37u, 53u, 71u, 97u));

TEST(FuzzTorture, RgNeverDanglesWithGcAtEveryAllocationPoint) {
  // Theorem 2 quantifies over every collection point: with threshold 1
  // the collector runs at every allocation point, with exact dangling
  // detection, and rg must never trace a dangling pointer. The value
  // must not depend on the schedule either.
  const uint32_t Seed = 131;
  const int Programs = 200;
  uint64_t Collections = 0;
  for (int I = 0; I < Programs; ++I) {
    std::string Src = ProgGen(Seed * 1000 + I).program();
    Compiler C;
    auto Unit = C.compile(Src);
    ASSERT_NE(Unit, nullptr) << C.diagnostics().str() << "\n" << Src;
    rt::EvalOptions Torture;
    Torture.GcThresholdWords = 1;
    Torture.RetainReleasedPages = true;
    rt::RunResult R = C.run(*Unit, Torture);
    ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error << "\n" << Src;
    rt::EvalOptions NoGc;
    NoGc.GcEnabled = false;
    rt::RunResult Ref = C.run(*Unit, NoGc);
    ASSERT_EQ(Ref.Outcome, rt::RunOutcome::Ok) << Ref.Error << "\n" << Src;
    EXPECT_EQ(R.ResultText, Ref.ResultText) << Src;
    Collections += R.Heap.GcCount;
  }
  // The batch really collects (the claim is vacuous otherwise).
  EXPECT_GT(Collections, static_cast<uint64_t>(Programs));
}

} // namespace
