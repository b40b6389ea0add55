//===- tests/pipeline_test.cpp - End-to-end pipeline tests ----------------===//

#include "core/Pipeline.h"

#include <gtest/gtest.h>

using namespace rml;

namespace {

class PipelineTest : public ::testing::Test {
protected:
  /// Compile + check + run under the given strategy; returns the rendered
  /// result value or "" with a failure note.
  std::string runResult(std::string_view Src, Strategy S = Strategy::Rg) {
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = S;
    auto Unit = C.compile(Src, Opts);
    if (!Unit) {
      ADD_FAILURE() << "compile failed:\n" << C.diagnostics().str();
      return "";
    }
    rt::RunResult R = C.run(*Unit);
    if (R.Outcome != rt::RunOutcome::Ok) {
      ADD_FAILURE() << "run failed: " << R.Error;
      return "";
    }
    return R.ResultText;
  }

  std::string runOutput(std::string_view Src, Strategy S = Strategy::Rg) {
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = S;
    auto Unit = C.compile(Src, Opts);
    if (!Unit) {
      ADD_FAILURE() << "compile failed:\n" << C.diagnostics().str();
      return "";
    }
    rt::RunResult R = C.run(*Unit);
    EXPECT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
    return R.Output;
  }
};

TEST_F(PipelineTest, Arithmetic) {
  EXPECT_EQ(runResult("1 + 2 * 3"), "7");
}

TEST_F(PipelineTest, Strings) {
  EXPECT_EQ(runResult("\"oh\" ^ \"no\""), "\"ohno\"");
  EXPECT_EQ(runResult("size (\"abc\" ^ \"de\")"), "5");
  EXPECT_EQ(runResult("itos 42"), "\"42\"");
}

TEST_F(PipelineTest, Pairs) {
  EXPECT_EQ(runResult("(1 + 1, \"a\" ^ \"b\")"), "(2, \"ab\")");
  EXPECT_EQ(runResult("#2 (1, (2, 3))"), "(2, 3)");
}

TEST_F(PipelineTest, LetAndFunctions) {
  EXPECT_EQ(runResult("let val x = 21 in x + x end"), "42");
  EXPECT_EQ(runResult("fun double x = x + x\n;double 21"), "42");
  EXPECT_EQ(runResult("(fn x => x * 3) 14"), "42");
}

TEST_F(PipelineTest, Recursion) {
  EXPECT_EQ(
      runResult("fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"
                ";fib 15"),
      "610");
}

TEST_F(PipelineTest, Lists) {
  EXPECT_EQ(runResult("[1, 2, 3]"), "[1, 2, 3]");
  EXPECT_EQ(runResult("fun len xs = case xs of nil => 0 | _ :: t => "
                      "1 + len t\n;len [1,2,3,4]"),
            "4");
  EXPECT_EQ(runResult("fun mapd f xs = case xs of nil => nil "
                      "| h :: t => f h :: mapd f t\n"
                      ";mapd (fn x => x * 2) [1, 2, 3]"),
            "[2, 4, 6]");
}

TEST_F(PipelineTest, Polymorphism) {
  EXPECT_EQ(runResult("fun id x = x\n;(id 1, id \"a\")"), "(1, \"a\")");
  EXPECT_EQ(runResult("let val e = nil in (1 :: e, \"a\" :: e) end"),
            "([1], [\"a\"])");
}

TEST_F(PipelineTest, ComposeRunsUnderAllStrategies) {
  const char *Src =
      "fun compose fg = fn x => #1 fg (#2 fg x)\n"
      "val h = compose (fn x => x + 1, fn x => x * 2)\n"
      ";h 20";
  EXPECT_EQ(runResult(Src, Strategy::Rg), "41");
  EXPECT_EQ(runResult(Src, Strategy::RgMinus), "41");
  EXPECT_EQ(runResult(Src, Strategy::R), "41");
}

TEST_F(PipelineTest, HigherOrderCapture) {
  EXPECT_EQ(runResult("fun adder n = fn x => x + n\n"
                      "val add5 = adder 5\n"
                      ";add5 37"),
            "42");
}

TEST_F(PipelineTest, References) {
  EXPECT_EQ(runResult("let val r = ref 10 in (r := !r + 32; !r) end"),
            "42");
}

TEST_F(PipelineTest, Conditionals) {
  EXPECT_EQ(runResult("if 3 < 4 andalso true then \"y\" else \"n\""),
            "\"y\"");
  EXPECT_EQ(runResult("if false orelse 4 < 3 then 1 else 0"), "0");
}

TEST_F(PipelineTest, Exceptions) {
  EXPECT_EQ(runResult("exception E of int\n"
                      "(raise E 41) handle E v => v + 1"),
            "42");
  EXPECT_EQ(runResult("exception A\nexception B\n"
                      "((raise B) handle A => 1) handle B => 2"),
            "2");
}

TEST_F(PipelineTest, UncaughtException) {
  Compiler C;
  auto Unit = C.compile("exception E of int\nraise E 1");
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
  rt::RunResult R = C.run(*Unit);
  EXPECT_EQ(R.Outcome, rt::RunOutcome::UncaughtException);
}

TEST_F(PipelineTest, Print) {
  EXPECT_EQ(runOutput("(print \"hello \"; print \"world\")"),
            "hello world");
}

TEST_F(PipelineTest, WorkTriggersCollections) {
  Compiler C;
  auto Unit = C.compile("work 100000");
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
  rt::EvalOptions E;
  E.GcThresholdWords = 4096;
  rt::RunResult R = C.run(*Unit, E);
  EXPECT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  EXPECT_GT(R.Heap.GcCount, 0u);
}

TEST_F(PipelineTest, DivisionByZero) {
  Compiler C;
  auto Unit = C.compile("1 div 0");
  ASSERT_NE(Unit, nullptr);
  rt::RunResult R = C.run(*Unit);
  EXPECT_EQ(R.Outcome, rt::RunOutcome::RuntimeError);
}

TEST_F(PipelineTest, SchemePrintingForCompose) {
  Compiler C;
  auto Unit = C.compile("fun compose fg = fn x => #1 fg (#2 fg x)\n;()");
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
  std::string S = C.schemeOf(*Unit, "compose");
  // Region-polymorphic with a spurious gamma carrying an arrow effect.
  EXPECT_NE(S.find("forall"), std::string::npos) << S;
  EXPECT_NE(S.find("r"), std::string::npos) << S;
}

TEST_F(PipelineTest, PolymorphicConstantsDuplicatePerUse) {
  // Polymorphic constant bindings (pairs/lists of constants) are
  // re-synthesised at each use's instance type.
  EXPECT_EQ(runResult("val p = (nil, nil)\n"
                      ";(1 :: #1 p, \"a\" :: #2 p)"),
            "([1], [\"a\"])");
  EXPECT_EQ(runResult("val row = [nil, nil]\n"
                      ";case row of nil => 0 | h :: _ => "
                      "(case h of nil => 7 | x :: _ => x)"),
            "7");
}

TEST_F(PipelineTest, PolymorphicNonConstantValIsRestricted) {
  // A genuinely polymorphic non-constant val (a pair holding a function)
  // is treated region-monomorphically with a warning, and a use at a
  // conflicting instance is a compile error rather than unsoundness.
  Compiler C;
  EXPECT_EQ(C.compile("val p = (fn x => x, nil)\n"
                      ";(#1 p 1, \"s\" :: #2 p)"),
            nullptr);
  bool Warned = false;
  for (const Diagnostic &D : C.diagnostics().all())
    Warned |= D.Kind == DiagKind::Warning &&
              D.Message.find("region-monomorphically") != std::string::npos;
  EXPECT_TRUE(Warned);
  EXPECT_TRUE(C.diagnostics().hasErrors());
}

TEST_F(PipelineTest, CompileErrorsProduceDiagnosticsNotUnits) {
  Compiler C;
  EXPECT_EQ(C.compile("1 +"), nullptr);
  EXPECT_TRUE(C.diagnostics().hasErrors());
  EXPECT_EQ(C.compile("xyz"), nullptr);
  EXPECT_TRUE(C.diagnostics().hasErrors());
  // The compiler is reusable after failures.
  auto Ok = C.compile("1 + 1");
  ASSERT_NE(Ok, nullptr);
  EXPECT_FALSE(C.diagnostics().hasErrors());
}

TEST_F(PipelineTest, CheckerValidatesAllStrategies) {
  const char *Src = "fun tw f = fn x => f (f x)\n;(tw (fn n => n + 1)) 40";
  for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R})
    EXPECT_EQ(runResult(Src, S), "42");
}

//===----------------------------------------------------------------------===//
// Phase manager
//===----------------------------------------------------------------------===//

TEST_F(PipelineTest, PhasesRunInRegistryOrder) {
  const std::vector<std::string> Expected = {
      "parse", "typecheck", "spurious", "infer", "check",
      "multiplicity", "kinds", "drops", "captures", "flatten"};
  EXPECT_EQ(Compiler::staticPhaseNames(), Expected);

  Compiler C;
  auto Unit = C.compile("1 + 2");
  ASSERT_NE(Unit, nullptr);
  ASSERT_EQ(Unit->Profiles.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I) {
    EXPECT_EQ(Unit->Profiles[I].Name, Expected[I]);
    // Captures is opt-in (CompileOptions::Captures, default off), so
    // its slot is present but Skipped; every other phase ran.
    EXPECT_EQ(Unit->Profiles[I].Skipped, Expected[I] == "captures");
  }
  // Profiles are also reachable without the unit (failed compiles).
  EXPECT_EQ(C.lastPhaseProfiles().size(), Expected.size());
}

TEST_F(PipelineTest, EarlyExitLeavesLaterPhasesUnrecorded) {
  Compiler C;
  ASSERT_EQ(C.compile("1 +"), nullptr); // parse error
  ASSERT_EQ(C.lastPhaseProfiles().size(), 1u);
  EXPECT_EQ(C.lastPhaseProfiles()[0].Name, "parse");
  EXPECT_GE(C.lastPhaseProfiles()[0].DiagnosticsEmitted, 1u);

  ASSERT_EQ(C.compile("1 + \"s\""), nullptr); // type error
  ASSERT_EQ(C.lastPhaseProfiles().size(), 2u);
  EXPECT_EQ(C.lastPhaseProfiles()[1].Name, "typecheck");
  EXPECT_GE(C.lastPhaseProfiles()[1].DiagnosticsEmitted, 1u);
}

TEST_F(PipelineTest, DisabledCheckerIsRecordedAsSkipped) {
  Compiler C;
  CompileOptions Opts;
  Opts.Check = false;
  auto Unit = C.compile("1 + 2", Opts);
  ASSERT_NE(Unit, nullptr);
  bool SawCheck = false;
  for (const PhaseProfile &P : Unit->Profiles)
    if (P.Name == "check") {
      SawCheck = true;
      EXPECT_TRUE(P.Skipped); // shape is stable, the work was not done
      EXPECT_EQ(P.WallNanos, 0u);
    } else if (P.Name != "captures") { // captures is opt-in, skipped too
      EXPECT_FALSE(P.Skipped);
    }
  EXPECT_TRUE(SawCheck);
}

TEST_F(PipelineTest, RunFillsRuntimePhaseProfile) {
  Compiler C;
  auto Unit = C.compile("work 100000");
  ASSERT_NE(Unit, nullptr);
  rt::EvalOptions E;
  E.GcThresholdWords = 4096;
  rt::RunResult R = C.run(*Unit, E);
  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Phase.Name, Compiler::RunPhaseName);
  EXPECT_GT(R.Phase.WallNanos, 0u);
  // The runtime phase folds in the run's HeapStats.
  EXPECT_EQ(R.Phase.GcCount, R.Heap.GcCount);
  EXPECT_EQ(R.Phase.AllocWords, R.Heap.AllocWords);
  EXPECT_EQ(R.Phase.CopiedWords, R.Heap.CopiedWords);
  EXPECT_GT(R.Phase.GcCount, 0u);
}

TEST_F(PipelineTest, RunPhaseCarriesPerPauseGcRecords) {
  Compiler C;
  auto Unit = C.compile("work 100000");
  ASSERT_NE(Unit, nullptr);
  rt::EvalOptions E;
  E.GcThresholdWords = 4096;
  rt::RunResult R = C.run(*Unit, E);
  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;

  // One record per collection, folded into the runtime phase profile.
  ASSERT_GT(R.GcPauses.size(), 0u);
  EXPECT_EQ(R.GcPauses.size(), R.Heap.GcCount);
  ASSERT_EQ(R.Phase.GcPauses.size(), R.GcPauses.size());

  uint64_t CopiedSum = 0;
  for (size_t I = 0; I < R.GcPauses.size(); ++I) {
    const GcPauseRecord &G = R.GcPauses[I];
    EXPECT_GT(G.WallNanos, 0u) << "pause " << I;
    EXPECT_GE(G.StartNanos, R.Phase.StartNanos) << "pause " << I;
    // Pauses nest inside the run span and arrive in time order.
    EXPECT_LE(G.StartNanos + G.WallNanos,
              R.Phase.StartNanos + R.Phase.WallNanos)
        << "pause " << I;
    if (I > 0) {
      EXPECT_GE(G.StartNanos, R.GcPauses[I - 1].StartNanos);
    }
    EXPECT_GT(G.LiveRegions, 0u) << "pause " << I;
    CopiedSum += G.CopiedWords;
  }
  EXPECT_EQ(CopiedSum, R.Heap.CopiedWords);
}

TEST_F(PipelineTest, EvalOptionsPauseSinkSeesEveryPause) {
  class PauseCounter final : public TraceSink {
  public:
    void record(const PhaseProfile &) override {}
    void recordGcPause(const GcPauseRecord &G) override {
      ++Pauses;
      Copied += G.CopiedWords;
    }
    unsigned Pauses = 0;
    uint64_t Copied = 0;
  };
  PauseCounter Sink;
  Compiler C;
  auto Unit = C.compile("work 100000");
  ASSERT_NE(Unit, nullptr);
  rt::EvalOptions E;
  E.GcThresholdWords = 4096;
  E.PauseSink = &Sink;
  rt::RunResult R = C.run(*Unit, E);
  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  EXPECT_EQ(Sink.Pauses, R.GcPauses.size());
  EXPECT_EQ(Sink.Copied, R.Heap.CopiedWords);
}

TEST_F(PipelineTest, TraceSinkSeesEveryExecutedPhase) {
  class Names final : public TraceSink {
  public:
    void record(const PhaseProfile &P) override { Seen.push_back(P.Name); }
    std::vector<std::string> Seen;
  };
  Names Sink;
  Compiler C;
  C.setTraceSink(&Sink);
  auto Unit = C.compile("1 + 2");
  ASSERT_NE(Unit, nullptr);
  C.run(*Unit);
  std::vector<std::string> Expected = Compiler::staticPhaseNames();
  Expected.push_back(Compiler::RunPhaseName);
  EXPECT_EQ(Sink.Seen, Expected);
}

} // namespace
