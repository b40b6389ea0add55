//===- tests/prefix_test.cpp - Declaration-prefix snapshots ---------------===//
//
// A compile that resumes after a declaration prefix (core/Prefix.h) must
// be a cold compile in everything but its cost: every golden line (bar
// the arena node count, which shows the work skipped) and every
// diagnostic byte. The snapshot key must keep an rg- prefix from ever
// serving an rg compile, a failing or open prefix must never become a
// snapshot, and workers must resume from one snapshot concurrently
// (this binary runs under the TSan gate).
//
//===----------------------------------------------------------------------===//

#include "compile_golden.h"

#include "ast/Lexer.h"
#include "ast/Parser.h"
#include "core/Prefix.h"
#include "service/Service.h"

#include <gtest/gtest.h>

using namespace rml;
using namespace rml::golden;

namespace {

std::vector<Token> lex(std::string_view Source) {
  DiagnosticEngine Diags;
  return Lexer(Source, Diags).lexAll();
}

/// The byte offset of token \p T in \p Source.
size_t offsetOf(std::string_view Source, const Token &T) {
  size_t Off = 0;
  for (uint32_t Line = 1; Line < T.Loc.Line; ++Line)
    Off = Source.find('\n', Off) + 1;
  return Off + T.Loc.Col - 1;
}

/// \p Source cut before its top-level declaration \p Dec, followed by a
/// declaration of its own: a different program with the same prefix.
/// Empty when \p Source has no such declaration.
std::string warmProgram(const std::string &Source, size_t Dec, int Salt) {
  std::vector<Token> Toks = lex(Source);
  std::vector<size_t> Starts = topLevelDecStarts(Toks);
  if (Dec == 0 || Dec >= Starts.size())
    return "";
  std::string S = std::to_string(Salt);
  return Source.substr(0, offsetOf(Source, Toks[Starts[Dec]])) + "val warm" +
         S + " = " + S + "\n;warm" + S + "\n";
}

/// The golden line without its arena node count.
std::string withoutNodes(const std::string &Line) {
  return Line.substr(0, Line.rfind("\tnodes="));
}

struct Resumed {
  std::string Line, Diagnostics;
  bool Hit = false;
};

/// Compiles \p Source through a store warmed by two programs sharing
/// its first \p Dec top-level declarations, so that the store holds a
/// snapshot built from other sources.
Resumed compileResumed(const std::string &Key, const std::string &Source,
                       size_t Dec, const CompileOptions &Opts) {
  PrefixStore Store;
  for (int Salt : {1, 2}) {
    std::string Warm = warmProgram(Source, Dec, Salt);
    if (!Warm.empty()) {
      Compiler W;
      W.compile(Warm, Opts, Store);
    }
  }
  uint64_t HitsBefore = Store.counters().Hits;
  Compiler C;
  auto Unit = C.compile(Source, Opts, Store);
  Resumed R;
  R.Line = compileLine(Key, Source, C, Unit.get());
  R.Diagnostics = C.diagnostics().str();
  R.Hit = Store.counters().Hits > HitsBefore;
  if (Unit) {
    EXPECT_EQ(Unit->Prefix != nullptr, R.Hit) << Key;
  }
  return R;
}

std::string coldDiagnostics(const std::string &Source,
                            const CompileOptions &Opts) {
  Compiler C;
  C.compile(Source, Opts);
  return C.diagnostics().str();
}

TEST(PrefixStore, TopLevelDecStartsSkipNestedDeclarations) {
  std::vector<Token> Toks =
      lex("fun f x = let val y = x in (fn z => z) y end\n"
          "val v = [let fun g u = u in g 1 end]\n"
          "exception E\n"
          ";f v");
  std::vector<size_t> Starts = topLevelDecStarts(Toks);
  ASSERT_EQ(Starts.size(), 3u);
  EXPECT_EQ(Toks[Starts[0]].Kind, TokKind::KwFun);
  EXPECT_EQ(Toks[Starts[1]].Kind, TokKind::KwVal);
  EXPECT_EQ(Toks[Starts[1]].Loc.Line, 2u);
  EXPECT_EQ(Toks[Starts[2]].Kind, TokKind::KwException);
}

// Every golden case, resumed after all its declarations but the last
// (and, for a basis-prefixed program, after the basis), reproduces its
// recorded outputs and a cold compile's diagnostics. Under rg with the
// capture report on, every declaration boundary is a resume point.
TEST(PrefixStore, EveryGoldenCaseResumesToItsRecordedLine) {
  std::map<std::string, std::string> Lines = goldenLines();
  const size_t BasisDecs =
      topLevelDecStarts(lex(bench::basisSource() + ";0")).size();
  size_t Cases = 0, Hits = 0;
  for (const auto &[Name, Source] : goldenPrograms()) {
    size_t Decs = topLevelDecStarts(lex(Source)).size();
    std::vector<size_t> Cuts = {Decs - 1}, EveryCut;
    bool Basis = Source.compare(0, bench::basisSource().size(),
                                bench::basisSource()) == 0;
    if (Basis && BasisDecs < Decs - 1)
      Cuts.push_back(BasisDecs);
    for (size_t Cut = 1; Cut < Decs; ++Cut)
      EveryCut.push_back(Cut);
    for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
      for (bool Caps : {false, true}) {
        CompileOptions Opts;
        Opts.Strat = S;
        Opts.Captures = Caps;
        std::string Key = caseKey(Name, Opts);
        auto It = Lines.find(Key);
        ASSERT_NE(It, Lines.end()) << "no golden line for " << Key;
        std::string Cold = coldDiagnostics(Source, Opts);
        for (size_t Cut : S == Strategy::Rg && Caps ? EveryCut : Cuts) {
          Resumed R = compileResumed(Key, Source, Cut, Opts);
          ++Cases;
          Hits += R.Hit;
          // The basis-prefixed programs all resume; a program whose
          // prefix leaves a scheme open may not.
          if (Basis) {
            EXPECT_TRUE(R.Hit) << Key << " did not resume after " << Cut;
          }
          EXPECT_EQ(withoutNodes(R.Line), withoutNodes(It->second))
              << "resumed after " << Cut << " declarations";
          EXPECT_EQ(R.Diagnostics, Cold) << Key;
        }
      }
    }
  }
  // Most cases exercise the resume path, not just the fallback.
  EXPECT_GT(Hits * 4, Cases * 3) << Hits << " of " << Cases;
}

// The key holds the options: an rg- snapshot never serves an rg
// compile, so Figure 1 stays safe under rg, and rg- still dies.
TEST(PrefixStore, StrategyIsInTheKeyForFigure1) {
  const std::string &Fig1 = bench::danglingPointerProgram();
  size_t Basis = topLevelDecStarts(lex(bench::basisSource() + ";0")).size();
  rt::EvalOptions E;
  E.GcThresholdWords = 2048;
  E.RetainReleasedPages = true; // exact dangling detection
  for (Strategy First : {Strategy::RgMinus, Strategy::Rg}) {
    Strategy Then = First == Strategy::Rg ? Strategy::RgMinus : Strategy::Rg;
    CompileOptions WarmOpts, Opts;
    WarmOpts.Strat = First;
    Opts.Strat = Then;
    PrefixStore Store;
    for (int Salt : {1, 2, 3}) {
      Compiler W;
      ASSERT_TRUE(W.compile(warmProgram(Fig1, Basis, Salt), WarmOpts, Store));
    }
    PrefixStore::Counters Warm = Store.counters();
    ASSERT_EQ(Warm.Snapshots, 1u);
    ASSERT_EQ(Warm.Hits, 1u);
    Compiler C;
    auto Unit = C.compile(Fig1, Opts, Store);
    ASSERT_TRUE(Unit) << C.diagnostics().str();
    EXPECT_EQ(Unit->Prefix, nullptr) << "a snapshot crossed strategies";
    EXPECT_EQ(Store.counters().Hits, Warm.Hits);
    rt::RunResult R = C.run(*Unit, E);
    if (Then == Strategy::Rg) {
      EXPECT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
    } else {
      EXPECT_EQ(R.Outcome, rt::RunOutcome::DanglingPointer) << R.Error;
    }
    // Resuming from a snapshot of its own strategy changes nothing.
    Compiler Same;
    auto Again = Same.compile(Fig1, Opts, Store);
    ASSERT_TRUE(Again);
    EXPECT_NE(Again->Prefix, nullptr);
    EXPECT_EQ(Same.printProgram(*Again), C.printProgram(*Unit));
    EXPECT_EQ(Same.run(*Again, E).Outcome, R.Outcome);
  }
}

/// Compiles \p Suffix after the basis, resumed and cold; \returns the
/// resumed compile's diagnostics after checking they match.
std::string resumedAfterBasis(const std::string &Suffix, bool ExpectOk) {
  PrefixStore Store;
  for (const char *Warm : {"fun warm1 x = x\n;0", "fun warm2 x = x\n;0"}) {
    Compiler W;
    W.compile(bench::basisSource() + Warm, {}, Store);
  }
  std::string Source = bench::basisSource() + Suffix;
  Compiler C;
  auto Unit = C.compile(Source, {}, Store);
  EXPECT_EQ(Unit != nullptr, ExpectOk) << C.diagnostics().str();
  EXPECT_EQ(Store.counters().Hits, 1u);
  EXPECT_EQ(C.diagnostics().str(), coldDiagnostics(Source, {}));
  return C.diagnostics().str();
}

TEST(PrefixStore, ShadowingSuffixWarnsAsACompileFromScratch) {
  std::string D = resumedAfterBasis("fun map x = x + 1\n;map 1\n", true);
  EXPECT_NE(D.find("top-level binding 'map' shadows"), std::string::npos) << D;
}

TEST(PrefixStore, IllTypedSuffixFailsAsACompileFromScratch) {
  std::string D = resumedAfterBasis(
      "fun bad xs = length xs + \"s\"\n;bad [1]\n", false);
  EXPECT_NE(D.find("error"), std::string::npos) << D;
}

TEST(PrefixStore, FailingOrOpenPrefixesNeverBecomeSnapshots) {
  for (const char *Prefix :
       {"fun f x = x + true\n",           // ill-typed
        "val r = ref nil\n",              // a scheme with a free variable
        "exception E of 'a\nfun g x = x\n"}) { // an open exception type
    PrefixStore Store;
    for (int Salt : {1, 2, 3}) {
      std::string S = std::to_string(Salt);
      Compiler C;
      C.compile(std::string(Prefix) + "fun h" + S + " y = y\n;" + S, {},
                Store);
    }
    PrefixStore::Counters K = Store.counters();
    EXPECT_EQ(K.Snapshots, 0u) << Prefix;
    EXPECT_EQ(K.Hits, 0u) << Prefix;
    EXPECT_EQ(K.Misses, 3u) << Prefix;
  }
}

TEST(PrefixStore, CapacityEvictsTheLeastRecentlyUsedSnapshot) {
  PrefixStore Store;
  // Each family shares one distinct declaration as its prefix.
  auto Source = [](size_t Family, int Salt) {
    return "fun f" + std::to_string(Family) + " x = x\nfun g" +
           std::to_string(Salt) + " y = y\n;0";
  };
  for (size_t F = 0; F <= PrefixStore::Capacity; ++F)
    for (int Salt : {1, 2}) {
      Compiler C;
      ASSERT_TRUE(C.compile(Source(F, Salt), {}, Store));
    }
  PrefixStore::Counters K = Store.counters();
  EXPECT_EQ(K.Snapshots, PrefixStore::Capacity + 1);
  EXPECT_EQ(K.Evictions, 1u);
  EXPECT_EQ(K.Hits, 0u);
  // The newest family hits; family 0 was evicted, so it misses and is
  // built again (its prefix was sent before), evicting family 1.
  Compiler New, Old;
  EXPECT_NE(New.compile(Source(PrefixStore::Capacity, 3), {}, Store)->Prefix,
            nullptr);
  EXPECT_EQ(Store.counters().Hits, 1u);
  EXPECT_NE(Old.compile(Source(0, 3), {}, Store)->Prefix, nullptr);
  K = Store.counters();
  EXPECT_EQ(K.Hits, 1u);
  EXPECT_EQ(K.Snapshots, PrefixStore::Capacity + 2);
  EXPECT_EQ(K.Evictions, 2u);
}

// A used Compiler's interner already holds symbols, so it compiles cold.
TEST(PrefixStore, UsedCompilerDoesNotResume) {
  PrefixStore Store;
  Compiler C;
  for (int Salt : {1, 2, 3}) {
    std::string S = std::to_string(Salt);
    auto Unit = C.compile("fun f x = x\nfun g" + S + " y = y\n;" + S, {},
                          Store);
    ASSERT_TRUE(Unit);
    EXPECT_EQ(Unit->Prefix, nullptr);
  }
  EXPECT_EQ(Store.counters().Misses, 1u);
}

// Two workers resume from one snapshot at once, and every answer is
// the one a compile from scratch gives.
TEST(PrefixStore, TwoWorkersResumeConcurrently) {
  using namespace rml::service;
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  Cfg.QueueCapacity = 64;
  Cfg.CacheCapacity = 0;
  Service Svc(Cfg);
  std::vector<const bench::BenchProgram *> Progs;
  for (const char *Name : {"fib", "tak", "nrev", "msort", "queens", "life"})
    Progs.push_back(bench::findBenchmark(Name));
  std::vector<std::string> Expected;
  for (const bench::BenchProgram *P : Progs) {
    Compiler C;
    auto Unit = C.compile(P->Source);
    ASSERT_TRUE(Unit) << P->Name;
    Expected.push_back(C.printProgram(*Unit));
  }
  std::vector<std::future<Response>> Futures;
  std::vector<size_t> Which;
  for (int Round = 0; Round < 4; ++Round)
    for (size_t I = 0; I < Progs.size(); ++I) {
      Request R;
      R.Source = Progs[I]->Source;
      R.Run = Round == 0 && I < 2;
      Futures.push_back(Svc.submit(std::move(R)));
      Which.push_back(I);
    }
  for (size_t I = 0; I < Futures.size(); ++I) {
    Response Resp = Futures[I].get();
    ASSERT_TRUE(Resp.CompileOk) << Resp.Diagnostics;
    EXPECT_EQ(Resp.Printed, Expected[Which[I]]) << Progs[Which[I]]->Name;
    if (Resp.Ran) {
      EXPECT_EQ(Resp.Outcome, rt::RunOutcome::Ok) << Resp.Error;
    }
  }
  Svc.shutdown();
  ServiceStats St = Svc.stats();
  EXPECT_GT(St.PrefixHits, 0u) << St.json();
  EXPECT_GE(St.PrefixSnapshots, 1u) << St.json();
  EXPECT_EQ(St.PrefixHits + St.PrefixMisses, Futures.size()) << St.json();
  EXPECT_EQ(St.InternalErrors, 0u);
}

} // namespace
