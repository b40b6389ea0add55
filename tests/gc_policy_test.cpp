//===- tests/gc_policy_test.cpp - Adaptive GC policy ----------------------===//
//
// The rt::GcPolicy contract: static mode reproduces the historical
// trigger and cadence bit-for-bit (zero knob moves), adaptive mode
// moves the threshold and major cadence from pause survival within the
// documented bounds, and — the property the service banks on — an
// adaptive run never changes what a program computes, only when its
// collector runs. Labelled `mem` in ctest and part of the TSan gate.
//
//===----------------------------------------------------------------------===//

#include "rt/GcPolicy.h"

#include "bench/Programs.h"
#include "core/Pipeline.h"
#include "runtime_golden.h"

#include <gtest/gtest.h>

using namespace rml;
using namespace rml::rt;

namespace {

GcPauseRecord pause(uint64_t CopiedWords, bool Minor = false,
                    uint64_t WallNanos = 1000) {
  GcPauseRecord P;
  P.CopiedWords = CopiedWords;
  P.Minor = Minor;
  P.WallNanos = WallNanos;
  return P;
}

//===----------------------------------------------------------------------===//
// Policy units (deterministic pause histories).
//===----------------------------------------------------------------------===//

TEST(GcPolicyTest, StaticModeReproducesTheHistoricalTrigger) {
  GcPolicy P(/*Adaptive=*/false, /*ThresholdWords=*/1024,
             /*MinorsPerMajor=*/8, /*Generational=*/false,
             /*PauseBudgetNanos=*/0);
  EXPECT_FALSE(P.shouldCollect(1023));
  EXPECT_TRUE(P.shouldCollect(1024)); // allocSinceGc >= threshold
  EXPECT_TRUE(P.shouldCollect(9999));
  EXPECT_EQ(P.nextKind(), GcKind::Major); // non-generational: all major
}

TEST(GcPolicyTest, StaticModeNeverMovesAKnob) {
  GcPolicy P(false, 1024, 8, /*Generational=*/true, /*PauseBudget=*/0);
  // Feed extremes in both directions: nothing may move.
  EXPECT_FALSE(P.observe(pause(100000)));
  EXPECT_FALSE(P.observe(pause(0, /*Minor=*/true)));
  EXPECT_EQ(P.thresholdWords(), 1024u);
  EXPECT_EQ(P.minorsPerMajor(), 8u);
  GcPolicyStats S = P.stats();
  EXPECT_FALSE(S.Adaptive);
  EXPECT_EQ(S.ThresholdRaises + S.ThresholdDrops + S.BudgetBackoffs +
                S.MinorsPerMajorRaises + S.MinorsPerMajorDrops,
            0u);
  EXPECT_EQ(S.FinalThresholdWords, 1024u);
  EXPECT_EQ(S.FinalMinorsPerMajor, 8u);
}

TEST(GcPolicyTest, StaticModeStillCountsOverBudgetPauses) {
  GcPolicy P(false, 1024, 8, false, /*PauseBudget=*/500);
  EXPECT_FALSE(P.observe(pause(10, false, /*WallNanos=*/501)));
  EXPECT_FALSE(P.observe(pause(10, false, /*WallNanos=*/499)));
  GcPolicyStats S = P.stats();
  EXPECT_EQ(S.OverBudgetPauses, 1u); // observability without adaptation
  EXPECT_EQ(S.BudgetBackoffs, 0u);
  EXPECT_EQ(S.FinalThresholdWords, 1024u);
}

TEST(GcPolicyTest, SurvivalHeavyPausesDoubleTheThresholdUpToTheCap) {
  GcPolicy P(true, 1024, 8, false, 0);
  // CopiedWords >= threshold/2 doubles: 1024 -> 2048 -> ... -> 16384,
  // four raises to the 16x cap.
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(P.observe(pause(P.thresholdWords()))); // full survival
  EXPECT_EQ(P.thresholdWords(), 16 * 1024u);
  EXPECT_FALSE(P.observe(pause(P.thresholdWords()))); // pinned at the cap
  EXPECT_EQ(P.thresholdWords(), 16 * 1024u);
  GcPolicyStats S = P.stats();
  EXPECT_EQ(S.ThresholdRaises, 4u);
  EXPECT_EQ(S.FinalThresholdWords, 16 * 1024u);
}

TEST(GcPolicyTest, GarbageHeavyPausesHalveTheThresholdDownToTheFloor) {
  GcPolicy P(true, 1024, 8, false, 0);
  ASSERT_TRUE(P.observe(pause(P.thresholdWords()))); // raise to 2048 first
  ASSERT_EQ(P.thresholdWords(), 2048u);
  // CopiedWords <= threshold/16 halves, never below the configured value.
  EXPECT_TRUE(P.observe(pause(0)));
  EXPECT_EQ(P.thresholdWords(), 1024u);
  EXPECT_FALSE(P.observe(pause(0))); // already at the floor
  EXPECT_EQ(P.thresholdWords(), 1024u);
  GcPolicyStats S = P.stats();
  EXPECT_EQ(S.ThresholdRaises, 1u);
  EXPECT_EQ(S.ThresholdDrops, 1u);
}

TEST(GcPolicyTest, MiddlingSurvivalLeavesTheThresholdAlone) {
  GcPolicy P(true, 1024, 8, false, 0);
  // Between the drop (<= T/16 = 64) and raise (>= T/2 = 512) bands.
  EXPECT_FALSE(P.observe(pause(256)));
  EXPECT_EQ(P.thresholdWords(), 1024u);
}

TEST(GcPolicyTest, BudgetOverrunsBackOffRegardlessOfSurvival) {
  GcPolicy P(true, 1024, 8, false, /*PauseBudget=*/500);
  // Garbage-heavy (would have dropped) but over budget: the budget rule
  // wins and the threshold doubles.
  EXPECT_TRUE(P.observe(pause(0, false, /*WallNanos=*/600)));
  EXPECT_EQ(P.thresholdWords(), 2048u);
  GcPolicyStats S = P.stats();
  EXPECT_EQ(S.BudgetBackoffs, 1u);
  EXPECT_EQ(S.OverBudgetPauses, 1u);
  EXPECT_EQ(S.ThresholdRaises, 0u);
  EXPECT_EQ(S.ThresholdDrops, 0u);
}

TEST(GcPolicyTest, GenerationalCadenceMatchesTheHistoricalModulo) {
  GcPolicy P(false, 1024, /*MinorsPerMajor=*/3, /*Generational=*/true, 0);
  // Exactly `++Tick % 3`: minor, minor, major, repeating.
  EXPECT_EQ(P.nextKind(), GcKind::Minor);
  EXPECT_EQ(P.nextKind(), GcKind::Minor);
  EXPECT_EQ(P.nextKind(), GcKind::Major);
  EXPECT_EQ(P.nextKind(), GcKind::Minor);
}

TEST(GcPolicyTest, CheapMinorsPushTheMajorOut) {
  GcPolicy P(true, 1024, /*MinorsPerMajor=*/4, true, 0);
  // Garbage-heavy minors double MPM, capped at 4x the configured value:
  // 4 -> 8 -> 16, two raises to the cap.
  for (int I = 0; I < 2; ++I)
    EXPECT_TRUE(P.observe(pause(0, /*Minor=*/true)));
  EXPECT_EQ(P.minorsPerMajor(), 16u);
  EXPECT_FALSE(P.observe(pause(0, /*Minor=*/true))); // pinned at the cap
  GcPolicyStats S = P.stats();
  EXPECT_EQ(S.MinorsPerMajorRaises, 2u);
  EXPECT_EQ(S.FinalMinorsPerMajor, 16u);
}

TEST(GcPolicyTest, SurvivorHeavyMinorsPullTheMajorIn) {
  GcPolicy P(true, 1024, /*MinorsPerMajor=*/8, true, 0);
  // Survival-heavy minors halve MPM down to max(2, initial/4) = 2.
  for (int I = 0; I < 4; ++I)
    P.observe(pause(P.thresholdWords(), /*Minor=*/true));
  EXPECT_EQ(P.minorsPerMajor(), 2u);
  EXPECT_GE(P.stats().MinorsPerMajorDrops, 2u);
}

TEST(GcPolicyTest, MajorPausesDoNotSteerTheCadence) {
  GcPolicy P(true, 1024, 8, true, 0);
  P.observe(pause(0, /*Minor=*/false)); // major: threshold rule only
  EXPECT_EQ(P.minorsPerMajor(), 8u);
  EXPECT_EQ(P.stats().MinorsPerMajorRaises, 0u);
}

//===----------------------------------------------------------------------===//
// Differential: adaptive mode never changes what a program computes.
//===----------------------------------------------------------------------===//

TEST(GcPolicyTest, AdaptiveRunsMatchStaticRunsOnEveryObservable) {
  Compiler C;
  for (const bench::BenchProgram &P : bench::benchmarkSuite()) {
    auto Unit = C.compile(P.Source);
    ASSERT_NE(Unit, nullptr) << P.Name << ": " << C.diagnostics().str();

    EvalOptions Static;
    Static.GcThresholdWords = 2048; // low: force collections
    RunResult Base = C.run(*Unit, Static);
    ASSERT_EQ(Base.Outcome, RunOutcome::Ok) << P.Name << ": " << Base.Error;

    EvalOptions Adaptive = Static;
    Adaptive.AdaptiveGc = true;
    RunResult R = C.run(*Unit, Adaptive);
    ASSERT_EQ(R.Outcome, RunOutcome::Ok) << P.Name << ": " << R.Error;

    // GC-independent observables are pinned; only pause shape (GcCount,
    // CopiedWords, the pause list) may differ.
    EXPECT_EQ(R.ResultText, Base.ResultText) << P.Name;
    EXPECT_EQ(R.Output, Base.Output) << P.Name;
    EXPECT_EQ(R.Steps, Base.Steps) << P.Name;
    EXPECT_EQ(R.Heap.AllocWords, Base.Heap.AllocWords) << P.Name;
    EXPECT_EQ(R.Heap.RegionsCreated, Base.Heap.RegionsCreated) << P.Name;
    EXPECT_EQ(R.Heap.FiniteRegionsCreated, Base.Heap.FiniteRegionsCreated)
        << P.Name;
    EXPECT_TRUE(R.Policy.Adaptive) << P.Name;
    EXPECT_FALSE(Base.Policy.Adaptive) << P.Name;
    EXPECT_EQ(Base.Policy.ThresholdRaises + Base.Policy.ThresholdDrops, 0u)
        << P.Name << ": static mode moved a knob";
  }
}

TEST(GcPolicyTest, TreeAndFlatMakeIdenticalAdaptiveDecisions) {
  // The adaptive rules consume only allocation word counts, so every
  // policy decision is deterministic: each corpus program's adaptive
  // run matches the runtime golden file, policy moves included.
  Compiler C;
  for (const bench::BenchProgram &P : bench::benchmarkSuite()) {
    auto Unit = C.compile(P.Source);
    ASSERT_NE(Unit, nullptr) << P.Name << ": " << C.diagnostics().str();

    EvalOptions E;
    E.GcThresholdWords = 2048;
    E.AdaptiveGc = true;
    RunResult R = C.run(*Unit, E);
    ASSERT_EQ(R.Outcome, RunOutcome::Ok) << P.Name << ": " << R.Error;
    golden::expectMatchesGolden("gc_policy/adaptive/" + P.Name, P.Source, R);
  }
}

TEST(GcPolicyTest, AdaptiveGenerationalRunsStayDifferentiallyClean) {
  const bench::BenchProgram *P = bench::findBenchmark("nrev");
  ASSERT_NE(P, nullptr);
  Compiler C;
  auto Unit = C.compile(P->Source);
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();

  EvalOptions Static;
  Static.GcThresholdWords = 2048;
  Static.Generational = true;
  Static.MinorsPerMajor = 4;
  RunResult Base = C.run(*Unit, Static);
  ASSERT_EQ(Base.Outcome, RunOutcome::Ok) << Base.Error;
  ASSERT_GT(Base.Heap.GcCount, 0u);

  EvalOptions Adaptive = Static;
  Adaptive.AdaptiveGc = true;
  RunResult R = C.run(*Unit, Adaptive);
  ASSERT_EQ(R.Outcome, RunOutcome::Ok) << R.Error;

  EXPECT_EQ(R.ResultText, Base.ResultText);
  EXPECT_EQ(R.Output, Base.Output);
  EXPECT_EQ(R.Steps, Base.Steps);
  EXPECT_EQ(R.Heap.AllocWords, Base.Heap.AllocWords);
  // The full generational decision stream matches the golden file.
  golden::expectMatchesGolden("gc_policy/adaptive-generational/nrev",
                              P->Source, R);
}

TEST(GcPolicyTest, PauseBudgetBacksCollectionFrequencyOff) {
  const bench::BenchProgram *P = bench::findBenchmark("nrev");
  ASSERT_NE(P, nullptr);
  Compiler C;
  auto Unit = C.compile(P->Source);
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();

  EvalOptions Static;
  Static.GcThresholdWords = 2048;
  RunResult Base = C.run(*Unit, Static);
  ASSERT_EQ(Base.Outcome, RunOutcome::Ok) << Base.Error;
  ASSERT_GT(Base.Heap.GcCount, 1u);

  // A 1ns budget is overrun by every real pause: the policy must back
  // off (fewer collections than static), and the results still match.
  EvalOptions Budgeted = Static;
  Budgeted.AdaptiveGc = true;
  Budgeted.GcPauseBudgetNanos = 1;
  RunResult R = C.run(*Unit, Budgeted);
  ASSERT_EQ(R.Outcome, RunOutcome::Ok) << R.Error;
  EXPECT_EQ(R.ResultText, Base.ResultText);
  EXPECT_EQ(R.Output, Base.Output);
  EXPECT_EQ(R.Steps, Base.Steps);
  EXPECT_GT(R.Policy.OverBudgetPauses, 0u);
  EXPECT_GT(R.Policy.BudgetBackoffs, 0u);
  EXPECT_LT(R.Heap.GcCount, Base.Heap.GcCount);
  EXPECT_GT(R.Policy.FinalThresholdWords, Static.GcThresholdWords);
}

} // namespace
