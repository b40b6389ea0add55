//===- rt/GcPolicy.h - Adaptive collection policy ---------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-run GC trigger policy of the runtime (rt/FlatEval.h).
/// In static mode (the default) it reproduces the historical constants
/// bit-for-bit: collect once allocSinceGc reaches GcThresholdWords, and
/// in generational mode make every MinorsPerMajor-th collection major.
/// In adaptive mode it consumes the run's own GcPauseRecord stream and
/// moves two knobs between collections:
///
///  * **Trigger threshold.** The survival ratio of a finished pause
///    (CopiedWords against the window of allocation that triggered it)
///    says whether collecting was worth it. A pause that copied at
///    least half the window mostly recopied live data — the threshold
///    doubles (capped at 16x the configured value) so the next window
///    is wider. A pause that copied under a sixteenth of the window
///    found mostly garbage — the threshold halves (never below the
///    configured value), keeping the heap small at negligible copy
///    cost.
///
///  * **Major cadence.** In generational mode, minor pauses steer
///    MinorsPerMajor the same way: cheap minors (little surviving)
///    push the next major out, survivor-heavy minors pull it in.
///
/// A pause-time budget (EvalOptions::GcPauseBudgetNanos, the runtime
/// analogue of the service's phase budgets) overrides the survival
/// rule: any pause that overruns the budget doubles the threshold
/// outright — collect less often until pauses fit. Over-budget pauses
/// are counted even in static mode (observability without adaptation).
///
/// Everything except the budget check depends only on deterministic
/// inputs (allocation word counts), so adaptive decisions repeat
/// exactly from run to run (the runtime golden file pins them), and
/// the differential suites can pin results, diagnostics and HeapStats
/// across static vs adaptive runs with only pause shape allowed to
/// differ.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_GCPOLICY_H
#define RML_RT_GCPOLICY_H

#include "rt/Gc.h"
#include "support/Trace.h"

#include <cstdint>

namespace rml::rt {

/// What the policy did over one run (the stats-JSON "gc_policy" block
/// aggregates these across requests).
struct GcPolicyStats {
  bool Adaptive = false;
  uint64_t ThresholdRaises = 0;  // survival-driven doublings
  uint64_t ThresholdDrops = 0;   // survival-driven halvings
  uint64_t BudgetBackoffs = 0;   // pause-budget-driven doublings
  uint64_t OverBudgetPauses = 0; // pauses exceeding the budget
  uint64_t MinorsPerMajorRaises = 0;
  uint64_t MinorsPerMajorDrops = 0;
  uint64_t FinalThresholdWords = 0;
  uint64_t FinalMinorsPerMajor = 0;
};

/// One evaluator's collection-trigger policy. Not thread-safe: each
/// run owns one instance, like the heap it polices.
class GcPolicy {
public:
  GcPolicy(bool Adaptive, uint64_t ThresholdWords, unsigned MinorsPerMajor,
           bool Generational, uint64_t PauseBudgetNanos);

  /// Collect now? Called at every allocation point with the words
  /// allocated since the last collection.
  bool shouldCollect(uint64_t AllocSinceGcWords) const {
    return AllocSinceGcWords >= Threshold;
  }

  /// The kind of the collection about to run; advances the
  /// minor/major cadence (generational mode only, exactly like the
  /// historical `++GcTick % MinorsPerMajor`).
  GcKind nextKind();

  /// Feeds one finished pause back into the policy. Returns true when
  /// a knob moved (the caller then emits trace counters).
  bool observe(const GcPauseRecord &Pause);

  uint64_t thresholdWords() const { return Threshold; }
  unsigned minorsPerMajor() const { return MPM; }
  GcPolicyStats stats() const;

private:
  const bool Adaptive;
  const bool Generational;
  const uint64_t InitialThreshold;
  const uint64_t PauseBudget; // nanos; 0 = no budget
  const unsigned InitialMPM;

  uint64_t Threshold;
  unsigned MPM;
  uint64_t Tick = 0;
  GcPolicyStats Counters;
};

} // namespace rml::rt

#endif // RML_RT_GCPOLICY_H
