//===- support/Trace.h - Phase profiles and trace sinks ---------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured-telemetry layer every tier of the pipeline reports
/// into. A pipeline step (static phase or the runtime "run" phase)
/// produces one PhaseProfile — name, wall nanos, diagnostics emitted,
/// arena-node delta, plus the heap counters the runtime phase folds in.
/// PhaseTimer is the RAII scope that measures one profile; TraceSink is
/// where finished profiles go:
///
///  * a null sink (the default everywhere) costs nothing — profiles are
///    still recorded into the CompiledUnit/Response so `--time-phases`
///    and the per-phase service aggregates work without any sink;
///  * NoopTraceSink is the explicit do-nothing sink for call sites that
///    want a non-null sink;
///  * ChromeTraceSink collects profiles from any number of threads and
///    renders them as Chrome trace-event JSON ("X" complete events,
///    loadable in chrome://tracing / Perfetto) — `rmlc --trace out.json`.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SUPPORT_TRACE_H
#define RML_SUPPORT_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace rml {

/// One collector stall inside a run: where the pause sat on the
/// timeline, which kind of collection it was, and what it moved. The
/// begin/end pair is carried as (StartNanos, StartNanos + WallNanos).
struct GcPauseRecord {
  /// Pause begin on the steady clock (see traceNowNanos()).
  uint64_t StartNanos = 0;
  uint64_t WallNanos = 0;
  /// Minor (young pages only) vs major collection.
  bool Minor = false;
  uint64_t CopiedWords = 0;
  /// Live regions the collector traced through.
  uint64_t LiveRegions = 0;
};

/// What one pipeline phase cost. Static phases fill the first group;
/// the runtime "run" phase additionally folds in its HeapStats (the
/// heap counters stay zero for static phases).
struct PhaseProfile {
  std::string Name;
  /// Start of the phase on the steady clock (see traceNowNanos()).
  uint64_t StartNanos = 0;
  uint64_t WallNanos = 0;
  /// Diagnostics (errors, warnings, notes) the phase emitted.
  uint64_t DiagnosticsEmitted = 0;
  /// Arena nodes the phase added across the owning Compiler's arenas.
  uint64_t ArenaNodeDelta = 0;
  /// The phase did not run: a disabled checker pass, or a static phase
  /// reported through a cache hit (its work was reused, not redone).
  bool Skipped = false;
  /// Runtime-phase fold-in of rt::HeapStats; zero for static phases.
  uint64_t GcCount = 0;
  uint64_t AllocWords = 0;
  uint64_t CopiedWords = 0;
  /// Runtime-phase fold-in of the run's collector stalls, in pause
  /// order; empty for static phases. ChromeTraceSink renders these as
  /// events nested inside the run span.
  std::vector<GcPauseRecord> GcPauses;
};

/// Nanoseconds on the steady clock (the epoch is arbitrary but fixed
/// for the process; profiles from different threads are comparable).
uint64_t traceNowNanos();

/// Appends \p S to \p Out as the body of a JSON string literal:
/// backslashes and quotes are escaped, control characters become their
/// short escapes (\n, \t, ...) or \u00XX. Phase diagnostics and future
/// phase names can embed user source, so every string the trace and
/// stats renderers emit goes through here.
void appendJsonEscaped(std::string &Out, std::string_view S);

/// Convenience form of appendJsonEscaped.
std::string jsonEscaped(std::string_view S);

/// Renders \p V as a JSON number with six fixed fraction digits,
/// locale-independently (operator<< for double honours the global
/// locale's decimal separator and spells non-finite values "nan"/"inf"
/// — both invalid JSON). Non-finite values clamp to 0, magnitudes
/// beyond 1e12 to ±1e12; ratios and utilizations live in [0,1] anyway.
std::string jsonFixed(double V);

/// Where finished PhaseProfiles go. Implementations consumed by
/// concurrent pipelines (the service workers) must be thread-safe.
class TraceSink {
public:
  virtual ~TraceSink();
  virtual void record(const PhaseProfile &P) = 0;
  /// Streaming view of one collector pause, delivered as it ends (the
  /// evaluator's rt::EvalOptions::PauseSink hook). The default discards
  /// it: pauses also ride inside the run PhaseProfile's GcPauses, so
  /// most sinks need only record(). Override for live pause telemetry.
  virtual void recordGcPause(const GcPauseRecord &) {}
};

/// Discards every profile. Stateless and trivially thread-safe.
class NoopTraceSink final : public TraceSink {
public:
  void record(const PhaseProfile &) override {}
  /// A shared instance for call sites that need a non-null sink.
  static NoopTraceSink &instance();
};

/// Thread-safe collector rendering the Chrome trace-event format: one
/// "X" (complete) event per recorded profile, timestamps normalised to
/// the earliest recorded phase, one tid per recording thread. A run
/// profile's GcPauses render as additional "gc:minor"/"gc:major" events
/// on the same tid, so viewers nest the collector stalls inside the run
/// span. The JSON object shape is
/// {"traceEvents":[...],"displayTimeUnit":"ms"}.
class ChromeTraceSink final : public TraceSink {
public:
  void record(const PhaseProfile &P) override;

  /// Renders every recorded event; stable across calls.
  std::string json() const;

  /// json() into \p Path; false (no throw) when the file cannot be
  /// written.
  bool writeFile(const std::string &Path) const;

  size_t eventCount() const;

private:
  struct Event {
    PhaseProfile P;
    uint64_t Tid;
  };
  mutable std::mutex M;
  std::vector<Event> Events;
  std::unordered_map<std::thread::id, uint64_t> Tids;
};

/// RAII scope measuring one phase: the clock starts at construction and
/// stops at the first stop() (or destruction); destruction forwards the
/// finished profile to the sink, if any. Callers that need to attach
/// deltas (diagnostics, arena nodes) stop() first, fill the returned
/// profile, and let the destructor emit:
///
/// \code
///   PhaseTimer T("infer", Sink);
///   ... run the phase ...
///   PhaseProfile &P = T.stop();
///   P.ArenaNodeDelta = After - Before;
/// \endcode
class PhaseTimer {
public:
  explicit PhaseTimer(std::string Name, TraceSink *Sink = nullptr);
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

  /// Fixes WallNanos at the first call (idempotent) and returns the
  /// profile for the caller to finish filling.
  PhaseProfile &stop();

  PhaseProfile &profile() { return P; }
  const PhaseProfile &profile() const { return P; }

private:
  PhaseProfile P;
  TraceSink *Sink;
  std::chrono::steady_clock::time_point T0;
  bool Stopped = false;
};

} // namespace rml

#endif // RML_SUPPORT_TRACE_H
