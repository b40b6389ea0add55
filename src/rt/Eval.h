//===- rt/Eval.h - Runtime options and run results --------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The region runtime's interface types: the options a run takes and
/// the result it returns. The runtime itself is the flat interpreter
/// (rt/FlatEval.h), which executes a flat::FlatUnit against the region
/// heap and interleaves the copying collector at allocation points —
/// the execution model whose safety Theorem 2 (containment)
/// establishes:
///
///  * letregion creates/destroys regions following the stack discipline;
///  * closures are region-allocated records holding captured values plus
///    the region parameters bound by region application ([Rapp]);
///  * the collector runs when the allocation budget is exceeded, rooted
///    in the evaluator's environment and temporary stacks;
///  * under the unsound rg- annotations the collector reports a dangling
///    pointer (DanglingPointer outcome) — the paper's observable crash;
///  * exceptions unwind through letregion, releasing regions on the way
///    (their values live in the global region, Section 4.4).
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_EVAL_H
#define RML_RT_EVAL_H

#include "rt/GcPolicy.h"
#include "rt/Region.h"
#include "support/Trace.h"

#include <string>
#include <vector>

namespace rml::rt {

/// Evaluator configuration.
struct EvalOptions {
  bool GcEnabled = true;
  uint64_t GcThresholdWords = 32 * 1024; // collect when exceeded
  bool TagFreePairs = true;              // partly tag-free representation
  bool UseFiniteRegions = true;          // multiplicity-driven sizing
  bool RetainReleasedPages = false;      // exact dangling detection
  uint64_t StepLimit = 400'000'000;      // interpreter fuel
  /// Native-stack budget for the interpreter (no tail-call
  /// optimisation): once the evaluator has consumed this much C++ stack,
  /// the run fails gracefully instead of overflowing. Measured in bytes,
  /// so the recursion depth it allows depends on the build's frame
  /// sizes: sanitizer builds with larger frames (ASan) reach the budget
  /// at a much shallower depth.
  size_t StackLimitBytes = 6u * 1024 * 1024 + 512 * 1024;
  /// Generational collection (the paper's [16,17] integration): minor
  /// collections evacuate only pages younger than the last collection,
  /// with a write barrier on assignments recording old-to-young slots; a
  /// major collection runs every MinorsPerMajor-th time.
  bool Generational = false;
  unsigned MinorsPerMajor = 8;
  /// Adaptive GC policy (see rt/GcPolicy.h): the run's GcPolicy moves
  /// the trigger threshold (and, in generational mode, the major
  /// cadence) from the pause history instead of holding them at the
  /// configured constants. Never changes results or diagnostics — only
  /// pause shape.
  bool AdaptiveGc = false;
  /// Pause-time budget in nanoseconds (0 = none): pauses that overrun
  /// it are counted, and in adaptive mode the policy backs collection
  /// frequency off until pauses fit.
  uint64_t GcPauseBudgetNanos = 0;
  /// Optional cross-request page pool (non-owning; must outlive the
  /// run). The run's heap draws standard pages from it and recycles
  /// them back on teardown. Ignored while RetainReleasedPages is on —
  /// exact dangling detection quarantines the pool (see rt/PagePool.h).
  PagePool *SharedPool = nullptr;
  /// Optional streaming sink for collector pauses (non-owning; must
  /// outlive the run and be thread-safe if runs share it). Each
  /// collection delivers one TraceSink::recordGcPause as it ends. The
  /// pauses also accumulate in RunResult::GcPauses regardless, and
  /// Compiler::runFlat folds them into the run PhaseProfile — so a sink
  /// that already records run profiles must NOT also be installed here
  /// or it would see every pause twice.
  TraceSink *PauseSink = nullptr;
};

/// How a run ended.
enum class RunOutcome : uint8_t {
  Ok,
  UncaughtException,
  DanglingPointer, // the GC traced a pointer into a dead region
  RuntimeError,    // division by zero, fuel exhausted, internal error
};

struct RunResult {
  RunOutcome Outcome = RunOutcome::Ok;
  std::string Error;
  std::string Output;      // everything print-ed
  std::string ResultText;  // rendered final value
  HeapStats Heap;
  /// Per-static-region runtime profiles (allocation-heaviest first).
  std::vector<RegionProfile> Regions;
  uint64_t Steps = 0;
  /// Every collector stall of the run, in pause order (begin time, wall
  /// nanos, kind, copied words, live regions).
  std::vector<GcPauseRecord> GcPauses;
  /// What the run's GC policy did (threshold moves, budget overruns,
  /// final knob positions). Static-mode runs report zero moves.
  GcPolicyStats Policy;
  /// The runtime phase's profile (name Compiler::RunPhaseName, wall
  /// time, HeapStats fold-in, GcPauses fold-in). Filled by
  /// Compiler::runFlat, which times the whole execution; empty when
  /// runFlatUnit is called directly.
  PhaseProfile Phase;
};

} // namespace rml::rt

#endif // RML_RT_EVAL_H
