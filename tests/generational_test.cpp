//===- tests/generational_test.cpp - Generational GC tests ----------------===//
//
// The generational extension (the paper's introduction: "region-inference
// is complementary to adding generations to a reference-tracing
// collector", developed in Elsman & Hallenberg [16, 17]): minor
// collections over young pages with a write barrier, major collections on
// a schedule, and full behavioural equivalence with the non-generational
// collector.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "bench/Programs.h"
#include "rt/Gc.h"

#include <gtest/gtest.h>

using namespace rml;
using namespace rml::rt;

namespace {

//===----------------------------------------------------------------------===//
// Collector-level tests
//===----------------------------------------------------------------------===//

class GenGcTest : public ::testing::Test {
protected:
  Value pair(uint32_t R, Value A, Value B) {
    uint64_t *P = H.alloc(R, 3);
    P[0] = makeHeader(ObjKind::Pair, 0);
    P[1] = A;
    P[2] = B;
    return fromPtr(P);
  }
  Value refCell(uint32_t R, Value V) {
    uint64_t *P = H.alloc(R, 2);
    P[0] = makeHeader(ObjKind::Ref, 0);
    P[1] = V;
    return fromPtr(P);
  }

  RegionHeap H;
};

TEST_F(GenGcTest, MinorCollectionsSkipOldPages) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value OldV = pair(R, boxScalar(1), boxScalar(2));
  std::vector<Value *> Roots{&OldV};
  // Major + seal: OldV's page becomes old.
  ASSERT_TRUE(collectGarbage(H, Roots, GcKind::Major, true).Ok);
  Value OldAddr = OldV;
  // Young garbage, then a minor collection.
  for (int I = 0; I < 200; ++I)
    pair(R, boxScalar(I), boxScalar(I));
  GcResult G = collectGarbage(H, Roots, GcKind::Minor, true);
  ASSERT_TRUE(G.Ok) << G.Error;
  // The old object did not move; nothing live was young.
  EXPECT_EQ(OldV, OldAddr);
  EXPECT_EQ(G.CopiedWords, 0u);
}

TEST_F(GenGcTest, YoungSurvivorsAreEvacuatedAndBecomeOld) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value V = pair(R, boxScalar(7), boxScalar(8));
  std::vector<Value *> Roots{&V};
  GcResult G = collectGarbage(H, Roots, GcKind::Minor, true);
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_EQ(G.CopiedWords, 3u);
  EXPECT_TRUE(H.isOldAddr(asPtr(V)));
  EXPECT_EQ(unboxScalar(asPtr(V)[1]), 7);
}

TEST_F(GenGcTest, RememberedSlotKeepsYoungTargetAlive) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  // An old ref cell...
  Value Ref = refCell(R, NilValue);
  std::vector<Value *> Roots{&Ref};
  ASSERT_TRUE(collectGarbage(H, Roots, GcKind::Major, true).Ok);
  ASSERT_TRUE(H.isOldAddr(asPtr(Ref)));
  // ...mutated to point at a young pair (the write barrier's case).
  Value Young = pair(R, boxScalar(42), boxScalar(43));
  asPtr(Ref)[1] = Young;
  Value *Slot = reinterpret_cast<Value *>(asPtr(Ref) + 1);
  // Without the remembered slot the young pair would be collected; with
  // it, the minor collection evacuates it and fixes the old field.
  std::vector<Value *> MinorRoots{&Ref, Slot};
  GcResult G = collectGarbage(H, MinorRoots, GcKind::Minor, true);
  ASSERT_TRUE(G.Ok) << G.Error;
  Value Stored = asPtr(Ref)[1];
  ASSERT_TRUE(isPointer(Stored));
  EXPECT_EQ(unboxScalar(asPtr(Stored)[1]), 42);
}

TEST_F(GenGcTest, StatsDistinguishMinorAndMajor) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value V = pair(R, boxScalar(1), boxScalar(1));
  std::vector<Value *> Roots{&V};
  ASSERT_TRUE(collectGarbage(H, Roots, GcKind::Minor, true).Ok);
  ASSERT_TRUE(collectGarbage(H, Roots, GcKind::Minor, true).Ok);
  ASSERT_TRUE(collectGarbage(H, Roots, GcKind::Major, true).Ok);
  EXPECT_EQ(H.Stats.GcCount, 3u);
  EXPECT_EQ(H.Stats.MinorGcCount, 2u);
  EXPECT_EQ(H.Stats.MajorGcCount, 1u);
}

TEST_F(GenGcTest, DanglingDetectionStillWorksInMinors) {
  H.RetainReleasedPages = true;
  uint32_t Dead = H.create(9, RegionKind::Mixed, 0);
  Value Doomed = pair(Dead, boxScalar(1), boxScalar(2));
  H.release(Dead);
  std::vector<Value *> Roots{&Doomed};
  GcResult G = collectGarbage(H, Roots, GcKind::Minor, true);
  EXPECT_FALSE(G.Ok);
  EXPECT_NE(G.Error.find("dangling"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// End-to-end tests
//===----------------------------------------------------------------------===//

class GenerationalEndToEnd : public ::testing::Test {
protected:
  rt::RunResult run(const std::string &Src, bool Generational,
                    uint64_t Threshold = 2048, unsigned MinorsPerMajor = 4) {
    Compiler C;
    auto Unit = C.compile(Src);
    if (!Unit) {
      rt::RunResult R;
      R.Outcome = rt::RunOutcome::RuntimeError;
      R.Error = "compile failed: " + C.diagnostics().str();
      return R;
    }
    rt::EvalOptions E;
    E.Generational = Generational;
    E.GcThresholdWords = Threshold;
    E.MinorsPerMajor = MinorsPerMajor;
    return C.run(*Unit, E);
  }
};

/// Every HeapStats counter and every pause's kind, copied words and
/// live regions, as one comparable string.
std::string heapAndPauses(const rt::RunResult &R) {
  const HeapStats &H = R.Heap;
  std::string S;
  for (uint64_t V : {H.AllocWords, H.CurrentHeapWords, H.PeakHeapWords,
                     H.GcCount, H.MinorGcCount, H.MajorGcCount, H.CopiedWords,
                     H.RegionsCreated, H.FiniteRegionsCreated, H.PagesAllocated,
                     H.PagesFromSharedPool})
    S += std::to_string(V) + ",";
  for (const GcPauseRecord &P : R.GcPauses)
    S += std::string(P.Minor ? " m" : " M") + std::to_string(P.CopiedWords) +
         "/" + std::to_string(P.LiveRegions);
  return S;
}

TEST_F(GenerationalEndToEnd, SuiteResultsMatchNonGenerational) {
  for (const char *Name : {"nrev", "msort", "sieve", "refs", "exn", "life"}) {
    const bench::BenchProgram *P = bench::findBenchmark(Name);
    ASSERT_NE(P, nullptr);
    rt::RunResult NonGen = run(P->Source, false);
    rt::RunResult Gen = run(P->Source, true);
    ASSERT_EQ(NonGen.Outcome, rt::RunOutcome::Ok) << Name << NonGen.Error;
    ASSERT_EQ(Gen.Outcome, rt::RunOutcome::Ok) << Name << ": " << Gen.Error;
    EXPECT_EQ(Gen.ResultText, NonGen.ResultText) << Name;
    EXPECT_GT(Gen.Heap.MinorGcCount, 0u) << Name;
  }
}

TEST_F(GenerationalEndToEnd, StaticTriggerCadenceAndClamps) {
  // Collection I (from 0) is major iff (I + 1) % M == 0; M = 0 counts
  // as 1, so every collection is major.
  const bench::BenchProgram *P = bench::findBenchmark("nrev");
  ASSERT_NE(P, nullptr);
  for (unsigned M : {0u, 1u, 3u, 4u}) {
    SCOPED_TRACE("MinorsPerMajor=" + std::to_string(M));
    rt::RunResult R = run(P->Source, true, 2048, M);
    ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
    ASSERT_GT(R.GcPauses.size(), 8u);
    const unsigned Every = M ? M : 1;
    for (size_t I = 0; I < R.GcPauses.size(); ++I)
      EXPECT_EQ(R.GcPauses[I].Minor, (I + 1) % Every != 0) << "pause " << I;
    EXPECT_EQ(R.Heap.MajorGcCount, R.GcPauses.size() / Every);
    EXPECT_EQ(R.Heap.MinorGcCount + R.Heap.MajorGcCount, R.Heap.GcCount);
  }
  EXPECT_EQ(heapAndPauses(run(P->Source, true, 2048, 0)),
            heapAndPauses(run(P->Source, true, 2048, 1)));

  // GcThresholdWords = 0 counts as 1: a collection at every allocation
  // point, in both collector modes.
  const char *Src =
      "fun build n = if n = 0 then nil else (n, n) :: build (n - 1)\n"
      "fun len xs = case xs of nil => 0 | _ :: t => 1 + len t\n"
      ";len (build 40) + len (build 30)";
  for (bool Generational : {false, true}) {
    SCOPED_TRACE(Generational ? "generational" : "non-generational");
    rt::RunResult Zero = run(Src, Generational, 0);
    ASSERT_EQ(Zero.Outcome, rt::RunOutcome::Ok) << Zero.Error;
    EXPECT_EQ(Zero.ResultText, "70");
    EXPECT_GT(Zero.Heap.GcCount, 70u);
    EXPECT_EQ(heapAndPauses(Zero), heapAndPauses(run(Src, Generational, 1)));
  }
}

TEST_F(GenerationalEndToEnd, MutationHeavyProgramsAreCorrect) {
  // Old refs repeatedly assigned fresh (young) structures: the write
  // barrier must keep every young target alive.
  const char *Src =
      "fun fill r n = if n = 0 then () else (r := (n, n * 2); fill r (n - 1))\n"
      "fun spin r n = if n = 0 then #2 (!r)\n"
      "  else let val w = work 300 in (fill r 3; spin r (n - 1)) end\n"
      "val cell = ref (0, 0)\n"
      ";spin cell 120";
  rt::RunResult R = run(Src, true, 512);
  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  EXPECT_EQ(R.ResultText, "2"); // last fill stores (1, 2)
  EXPECT_GT(R.Heap.MinorGcCount, 2u);
}

TEST_F(GenerationalEndToEnd, MinorsCopyLessThanMajorsWould) {
  // Long-lived structure + short-lived churn: minors keep re-copy cost
  // low — the generational payoff the paper's [16, 17] measure.
  const char *Src =
      "fun build n = if n = 0 then nil else (n, n) :: build (n - 1)\n"
      "fun keepalive xs n = if n = 0 then xs "
      "else let val w = work 600 in keepalive xs (n - 1) end\n"
      "fun len xs = case xs of nil => 0 | _ :: t => 1 + len t\n"
      "val longlived = build 400\n"
      ";len (keepalive longlived 60)";
  rt::RunResult Gen = run(Src, true, 1024);
  rt::RunResult NonGen = run(Src, false, 1024);
  ASSERT_EQ(Gen.Outcome, rt::RunOutcome::Ok) << Gen.Error;
  ASSERT_EQ(NonGen.Outcome, rt::RunOutcome::Ok) << NonGen.Error;
  EXPECT_EQ(Gen.ResultText, NonGen.ResultText);
  // The long-lived list is copied by (almost) every non-generational
  // collection, but only by the majors in generational mode.
  EXPECT_LT(Gen.Heap.CopiedWords, NonGen.Heap.CopiedWords);
}

TEST_F(GenerationalEndToEnd, GcSafetyHoldsGenerationally) {
  // rg stays safe and rg- still crashes with the generational collector.
  Compiler C;
  auto URg = C.compile(bench::danglingPointerProgram());
  ASSERT_NE(URg, nullptr) << C.diagnostics().str();
  rt::EvalOptions E;
  E.Generational = true;
  E.GcThresholdWords = 1024;
  E.RetainReleasedPages = true;
  rt::RunResult RRg = C.run(*URg, E);
  EXPECT_EQ(RRg.Outcome, rt::RunOutcome::Ok) << RRg.Error;

  Compiler C2;
  CompileOptions Opts;
  Opts.Strat = Strategy::RgMinus;
  auto URgm = C2.compile(bench::danglingPointerProgram(), Opts);
  ASSERT_NE(URgm, nullptr) << C2.diagnostics().str();
  rt::RunResult RRgm = C2.run(*URgm, E);
  EXPECT_EQ(RRgm.Outcome, rt::RunOutcome::DanglingPointer);
}

} // namespace
