//===- bench_report/Spans.h - Layer spans for the traced run ----*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Every call the benchmark makes into a
/// layer's public functions is wrapped in a PhaseTimer span recorded into
/// a ChromeTraceSink (so the whole replay opens in chrome://tracing or
/// Perfetto), and the recorder keeps, next to it, two aggregates the
/// report needs: the mean wall time per span name, and each layer's self
/// time — a span's duration minus the part its direct children cover.
///
/// Work timed inside the program rather than by the benchmark (a
/// compile's PhaseProfiles, a run's GC pauses) enters as child spans
/// after the call returns, with the start and length the program
/// measured.
///
//===----------------------------------------------------------------------===//

#ifndef RML_BENCH_REPORT_SPANS_H
#define RML_BENCH_REPORT_SPANS_H

#include "support/Trace.h"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rml::benchreport {

/// The src/ modules spans are attributed to, plus the benchmark's own
/// glue.
enum class Layer : uint8_t {
  Ast,
  Types,
  Rinfer,
  Rcheck,
  Flat,
  Core,
  Rt,
  Service,
  Net,
  Bench,
};
inline constexpr size_t NumLayers = 10;

inline const char *layerName(Layer L) {
  static const char *const Names[NumLayers] = {
      "ast", "types", "rinfer", "rcheck", "flat",
      "core", "rt", "service", "net", "bench"};
  return Names[static_cast<size_t>(L)];
}

/// The module that implements static phase \p Phase (see
/// Compiler::staticPhaseNames()).
inline Layer layerOfPhase(std::string_view Phase) {
  if (Phase == "parse")
    return Layer::Ast;
  if (Phase == "typecheck")
    return Layer::Types;
  if (Phase == "check")
    return Layer::Rcheck;
  if (Phase == "flatten")
    return Layer::Flat;
  return Layer::Rinfer; // spurious, infer, multiplicity, kinds, drops,
                        // captures
}

class SpanRecorder {
public:
  /// Runs \p Body inside a span named \p Name; returns its wall nanos.
  template <class F> uint64_t span(const char *Name, Layer L, F &&Body) {
    Stack.push_back(0);
    uint64_t Wall = 0;
    {
      PhaseTimer T(Name, &Sink);
      Body();
      Wall = T.stop().WallNanos;
    }
    uint64_t Children = Stack.back();
    Stack.pop_back();
    close(Name, L, Wall, Children);
    return Wall;
  }

  /// A child of the innermost open span, timed by the program itself.
  void child(const std::string &Name, Layer L, uint64_t StartNanos,
             uint64_t WallNanos) {
    PhaseProfile P;
    P.Name = Name;
    P.StartNanos = StartNanos;
    P.WallNanos = WallNanos;
    Sink.record(P);
    close(Name, L, WallNanos, 0);
  }

  /// Mean wall nanos of the spans named \p Name; 0 when there were none.
  double meanNanos(const std::string &Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() || It->second.second == 0
               ? 0.0
               : static_cast<double>(It->second.first) /
                     static_cast<double>(It->second.second);
  }
  uint64_t selfNanos(Layer L) const {
    return Self[static_cast<size_t>(L)];
  }

  bool writeTrace(const std::string &Path) const {
    return Sink.writeFile(Path);
  }

private:
  void close(const std::string &Name, Layer L, uint64_t Wall,
             uint64_t Children) {
    Self[static_cast<size_t>(L)] += Wall > Children ? Wall - Children : 0;
    if (!Stack.empty())
      Stack.back() += Wall;
    auto &[Sum, N] = ByName[Name];
    Sum += Wall;
    ++N;
  }

  ChromeTraceSink Sink;
  /// Child nanos accumulated by each open span, innermost last.
  std::vector<uint64_t> Stack;
  std::array<uint64_t, NumLayers> Self{};
  std::unordered_map<std::string, std::pair<uint64_t, uint64_t>> ByName;
};

} // namespace rml::benchreport

#endif // RML_BENCH_REPORT_SPANS_H
