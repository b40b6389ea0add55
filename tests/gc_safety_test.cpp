//===- tests/gc_safety_test.cpp - The paper's theorem, executable ----------===//
//
// The headline reproduction: the three programs for which the pre-paper
// discipline is unsound (Figure 1, the Figure 8 chain, the Section 4.4
// exception) run under all three strategies:
//
//   rg  : completes, with collections interleaved (Theorem 2);
//   rg- : the collector traces a pointer into a deallocated region —
//         the observable crash the paper reports from the MLKit;
//   r   : completes without a collector (dangling pointers permitted and
//         never dereferenced).
//
// Parameterised over GC thresholds: GC safety cannot depend on *when*
// collections happen.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "bench/Programs.h"

#include <gtest/gtest.h>

using namespace rml;

namespace {

rt::RunResult runWith(const std::string &Src, Strategy S,
                      uint64_t ThresholdWords) {
  Compiler C;
  CompileOptions Opts;
  Opts.Strat = S;
  auto Unit = C.compile(Src, Opts);
  if (!Unit) {
    rt::RunResult R;
    R.Outcome = rt::RunOutcome::RuntimeError;
    R.Error = "compile failed: " + C.diagnostics().str();
    return R;
  }
  rt::EvalOptions E;
  E.GcThresholdWords = ThresholdWords;
  E.RetainReleasedPages = true; // exact dangling detection
  return C.run(*Unit, E);
}

struct Case {
  const char *Name;
  const std::string *Source;
};

class GcSafetyTest : public ::testing::TestWithParam<uint64_t> {
protected:
  static std::vector<Case> cases() {
    return {
        {"figure1", &bench::danglingPointerProgram()},
        {"figure8", &bench::spuriousChainProgram()},
        {"section44", &bench::exnDanglingProgram()},
    };
  }
};

TEST_P(GcSafetyTest, RgIsSafeAtEveryThreshold) {
  for (const Case &C : cases()) {
    rt::RunResult R = runWith(*C.Source, Strategy::Rg, GetParam());
    EXPECT_EQ(R.Outcome, rt::RunOutcome::Ok)
        << C.Name << " @ threshold " << GetParam() << ": " << R.Error;
  }
}

TEST_P(GcSafetyTest, RgMinusCrashesWithADanglingPointer) {
  for (const Case &C : cases()) {
    rt::RunResult R = runWith(*C.Source, Strategy::RgMinus, GetParam());
    EXPECT_EQ(R.Outcome, rt::RunOutcome::DanglingPointer)
        << C.Name << " @ threshold " << GetParam()
        << " unexpectedly survived (" << R.Error << ")";
    EXPECT_NE(R.Error.find("dangling"), std::string::npos);
  }
}

TEST_P(GcSafetyTest, TofteTalpinWithoutGcIsFine) {
  for (const Case &C : cases()) {
    rt::RunResult R = runWith(*C.Source, Strategy::R, GetParam());
    EXPECT_EQ(R.Outcome, rt::RunOutcome::Ok) << C.Name << ": " << R.Error;
    EXPECT_EQ(R.Heap.GcCount, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, GcSafetyTest,
                         ::testing::Values(512u, 2048u, 8192u));

TEST(GcSafetySuite, OrdinaryBenchmarksNeverCrashUnderRgMinus) {
  // The paper's point in Section 5: the unsoundness is real but rare —
  // none of the ordinary benchmarks expose it.
  for (const bench::BenchProgram &P : bench::benchmarkSuite()) {
    rt::RunResult R = runWith(P.Source, Strategy::RgMinus, 4096);
    EXPECT_EQ(R.Outcome, rt::RunOutcome::Ok) << P.Name << ": " << R.Error;
  }
}

TEST(GcSafetySuite, RgMinusDiesUnderGcAtEveryAllocationPoint) {
  // Threshold 1 collects at every allocation point, the strongest
  // schedule the theorem quantifies over. rg- must still die, and do so
  // within a few dozen collections. (rg stays on the thresholds above:
  // at threshold 1, Figure 1's `work` list is copied by every one of
  // its many thousand collections.)
  const Case Cases[] = {
      {"figure1", &bench::danglingPointerProgram()},
      {"figure8", &bench::spuriousChainProgram()},
      {"section44", &bench::exnDanglingProgram()},
  };
  for (const Case &C : Cases) {
    rt::RunResult R = runWith(*C.Source, Strategy::RgMinus, 1);
    EXPECT_EQ(R.Outcome, rt::RunOutcome::DanglingPointer)
        << C.Name << " unexpectedly survived (" << R.Error << ")";
    EXPECT_NE(R.Error.find("dangling"), std::string::npos) << C.Name;
    EXPECT_GT(R.Heap.GcCount, 0u) << C.Name;
    EXPECT_LE(R.Heap.GcCount, 100u) << C.Name;
  }
}

TEST(GcSafetySuite, GcCountsAreNonTrivialForTheCrashPrograms) {
  // Make sure rg really interleaves collections (the safety claim is
  // vacuous otherwise).
  rt::RunResult R =
      runWith(bench::danglingPointerProgram(), Strategy::Rg, 512);
  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  EXPECT_GT(R.Heap.GcCount, 3u);
}

TEST(GcSafetySuite, ResultsAgreeAcrossStrategiesWhereAllComplete) {
  // Where all three strategies complete, they compute the same value:
  // region annotation is semantically transparent.
  const char *Src =
      "fun compose fg = fn x => #1 fg (#2 fg x)\n"
      "fun g f = compose (let val x = f () in (fn _ => x, fn u => x) end)\n"
      "val h = g (fn u => \"oh\" ^ \"no\")\n"
      ";size (h ())";
  std::string Results[3];
  int I = 0;
  for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    rt::RunResult R = runWith(Src, S, 4096);
    ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok)
        << strategyName(S) << ": " << R.Error;
    Results[I++] = R.ResultText;
  }
  EXPECT_EQ(Results[0], Results[1]);
  EXPECT_EQ(Results[1], Results[2]);
  EXPECT_EQ(Results[0], "4");
}

} // namespace
