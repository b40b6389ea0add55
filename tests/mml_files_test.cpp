//===- tests/mml_files_test.cpp - The shipped .mml programs ---------------===//
//
// The example programs under examples/programs/ keep working: the
// tutorial and primes run clean under rg, and figure1.mml reproduces the
// paper's crash under rg-. The differential suite at the bottom runs
// every shipped .mml under rg and rg-, each with the cross-request page
// pool on and off, and demands the four configurations agree on every
// observable; the last test pins every program under every strategy to
// the runtime golden file.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "rt/PagePool.h"
#include "runtime_golden.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace rml;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::string programPath(const char *Name) {
  return std::string(RML_SOURCE_DIR) + "/examples/programs/" + Name;
}

TEST(MmlFiles, TutorialRuns) {
  Compiler C;
  auto Unit = C.compile(readFile(programPath("tutorial.mml")));
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
  rt::RunResult R = C.run(*Unit);
  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Output, "hello, regions\n");
  EXPECT_EQ(R.ResultText, "(387, ((2, 1), 3))");
}

TEST(MmlFiles, PrimesRunsUnderEveryStrategy) {
  std::string Src = readFile(programPath("primes.mml"));
  for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = S;
    auto Unit = C.compile(Src, Opts);
    ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
    rt::RunResult R = C.run(*Unit);
    ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok)
        << strategyName(S) << ": " << R.Error;
    EXPECT_EQ(R.ResultText, "(196, 1193)");
  }
}

TEST(MmlFiles, Figure1CrashesUnderRgMinusOnly) {
  std::string Src = readFile(programPath("figure1.mml"));
  rt::EvalOptions E;
  E.GcThresholdWords = 2048;
  E.RetainReleasedPages = true;

  Compiler CRg;
  auto URg = CRg.compile(Src);
  ASSERT_NE(URg, nullptr) << CRg.diagnostics().str();
  EXPECT_EQ(CRg.run(*URg, E).Outcome, rt::RunOutcome::Ok);

  Compiler CRgm;
  CompileOptions Opts;
  Opts.Strat = Strategy::RgMinus;
  auto URgm = CRgm.compile(Src, Opts);
  ASSERT_NE(URgm, nullptr) << CRgm.diagnostics().str();
  EXPECT_EQ(CRgm.run(*URgm, E).Outcome, rt::RunOutcome::DanglingPointer);
}

//===----------------------------------------------------------------------===//
// Differential: pool on vs pool off, under rg and rg-.
//===----------------------------------------------------------------------===//

/// Run `Src` under `Strat`, optionally drawing heap pages from `Pool`.
rt::RunResult runWithPool(const std::string &Src, Strategy Strat,
                          rt::PagePool *Pool) {
  Compiler C;
  CompileOptions Opts;
  Opts.Strat = Strat;
  auto Unit = C.compile(Src, Opts);
  EXPECT_NE(Unit, nullptr) << C.diagnostics().str();
  if (!Unit) {
    rt::RunResult Bad;
    Bad.Outcome = rt::RunOutcome::RuntimeError;
    return Bad;
  }
  rt::EvalOptions E;
  E.GcThresholdWords = 2048; // several collections per program
  E.SharedPool = Pool;
  return C.run(*Unit, E);
}

TEST(MmlFiles, EveryProgramAgreesWithAndWithoutThePool) {
  // Every shipped example, discovered rather than listed, so new .mml
  // files are covered the day they land.
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(RML_SOURCE_DIR) + "/examples/programs"))
    if (Entry.path().extension() == ".mml")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 3u);

  // One pool across the whole matrix: later programs run on pages the
  // earlier ones recycled, the cross-request scenario.
  rt::PagePool SharedPool(512);

  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    std::string Src = readFile(Path);
    for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus}) {
      SCOPED_TRACE(strategyName(Strat));
      rt::RunResult Fresh = runWithPool(Src, Strat, nullptr);
      for (int Rep = 0; Rep < 2; ++Rep) {
        rt::RunResult Pooled = runWithPool(Src, Strat, &SharedPool);
        EXPECT_EQ(Pooled.Outcome, Fresh.Outcome) << "rep " << Rep;
        EXPECT_EQ(Pooled.Output, Fresh.Output) << "rep " << Rep;
        EXPECT_EQ(Pooled.ResultText, Fresh.ResultText) << "rep " << Rep;
        EXPECT_EQ(Pooled.Heap.AllocWords, Fresh.Heap.AllocWords)
            << "rep " << Rep;
        EXPECT_EQ(Pooled.Heap.GcCount, Fresh.Heap.GcCount) << "rep " << Rep;
      }
    }
  }

  // The matrix genuinely recycled pages across programs.
  EXPECT_GT(SharedPool.stats().AcquireHits, 0u);
  EXPECT_LE(SharedPool.freePages(), SharedPool.capacity());
}

//===----------------------------------------------------------------------===//
// Every shipped program under every strategy against the runtime golden
// file (tests/runtime_golden.h). Two fresh Compilers per configuration,
// so the test also covers compile-side determinism (diagnostics and
// spurious statistics) and the serialisation round trip: the decoded
// copy of the flat unit is what runs, exactly the disk-tier path.
//===----------------------------------------------------------------------===//

TEST(MmlFiles, EveryProgramAgreesBetweenTreeAndFlat) {
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(RML_SOURCE_DIR) + "/examples/programs"))
    if (Entry.path().extension() == ".mml")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 3u);

  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    std::string Src = readFile(Path);
    for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
      SCOPED_TRACE(strategyName(Strat));
      CompileOptions Opts;
      Opts.Strat = Strat;

      Compiler C1;
      auto U1 = C1.compile(Src, Opts);
      ASSERT_NE(U1, nullptr) << C1.diagnostics().str();

      Compiler C2;
      auto U2 = C2.compile(Src, Opts);
      ASSERT_NE(U2, nullptr) << C2.diagnostics().str();

      // Compile-side determinism across independent Compilers.
      EXPECT_EQ(C2.diagnostics().str(), C1.diagnostics().str());
      EXPECT_EQ(U2->Spurious.TotalFunctions, U1->Spurious.TotalFunctions);
      EXPECT_EQ(U2->Spurious.SpuriousFunctions,
                U1->Spurious.SpuriousFunctions);
      EXPECT_EQ(U2->Spurious.TotalInsts, U1->Spurious.TotalInsts);
      EXPECT_EQ(U2->Spurious.SpuriousBoxedInsts,
                U1->Spurious.SpuriousBoxedInsts);
      ASSERT_NE(U1->Flat, nullptr);
      ASSERT_NE(U2->Flat, nullptr);
      std::string Bytes = flat::encodeFlat(*U2->Flat);
      EXPECT_EQ(flat::encodeFlat(*U1->Flat), Bytes);
      std::shared_ptr<const flat::FlatUnit> Decoded = flat::decodeFlat(Bytes);
      ASSERT_NE(Decoded, nullptr);

      rt::EvalOptions E;
      E.GcThresholdWords = 2048;
      E.RetainReleasedPages = true; // exact dangling detection for rg-
      golden::expectMatchesGolden(
          "mml/" + std::filesystem::path(Path).filename().string() + "/" +
              strategyName(Strat),
          Src, Compiler::runFlat(*Decoded, E));
    }
  }
}

} // namespace
