//===- support/Trace.cpp --------------------------------------------------===//

#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

using namespace rml;

uint64_t rml::traceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceSink::~TraceSink() = default;

void rml::appendJsonEscaped(std::string &Out, std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    switch (C) {
    case '"':
      Out += "\\\"";
      continue;
    case '\\':
      Out += "\\\\";
      continue;
    case '\b':
      Out += "\\b";
      continue;
    case '\f':
      Out += "\\f";
      continue;
    case '\n':
      Out += "\\n";
      continue;
    case '\r':
      Out += "\\r";
      continue;
    case '\t':
      Out += "\\t";
      continue;
    default:
      break;
    }
    if (U < 0x20) {
      Out += "\\u00";
      Out += Hex[U >> 4];
      Out += Hex[U & 0xf];
    } else {
      Out += C;
    }
  }
}

std::string rml::jsonEscaped(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendJsonEscaped(Out, S);
  return Out;
}

std::string rml::jsonFixed(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  constexpr double Limit = 1e12;
  V = std::clamp(V, -Limit, Limit);
  bool Neg = V < 0;
  // Split into integer and micro parts and print those as integers:
  // integer formatting ignores the locale, so the output is always
  // "<digits>.<6 digits>" regardless of the global decimal separator.
  double Abs = Neg ? -V : V;
  unsigned long long Scaled =
      static_cast<unsigned long long>(Abs * 1e6 + 0.5);
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%s%llu.%06llu", Neg ? "-" : "",
                Scaled / 1000000ull, Scaled % 1000000ull);
  return Buf;
}

NoopTraceSink &NoopTraceSink::instance() {
  static NoopTraceSink Sink;
  return Sink;
}

//===----------------------------------------------------------------------===//
// ChromeTraceSink
//===----------------------------------------------------------------------===//

void ChromeTraceSink::record(const PhaseProfile &P) {
  std::lock_guard<std::mutex> Lock(M);
  auto [It, New] =
      Tids.try_emplace(std::this_thread::get_id(), Tids.size() + 1);
  (void)New;
  Events.push_back({P, It->second});
}

std::string ChromeTraceSink::json() const {
  std::lock_guard<std::mutex> Lock(M);
  // Normalise timestamps to the earliest phase so traces start near 0.
  uint64_t Base = 0;
  bool HaveBase = false;
  for (const Event &E : Events)
    if (!HaveBase || E.P.StartNanos < Base) {
      Base = E.P.StartNanos;
      HaveBase = true;
    }

  std::ostringstream Out;
  Out << std::fixed << std::setprecision(3);
  Out << "{\"traceEvents\":[";
  bool First = true;
  for (const Event &E : Events) {
    if (!First)
      Out << ",";
    First = false;
    // "X" complete events; ts/dur are microseconds per the spec.
    Out << "{\"name\":\"" << jsonEscaped(E.P.Name)
        << "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":"
        << (E.P.StartNanos - Base) / 1000.0
        << ",\"dur\":" << E.P.WallNanos / 1000.0
        << ",\"pid\":1,\"tid\":" << E.Tid
        << ",\"args\":{\"diagnostics\":" << E.P.DiagnosticsEmitted
        << ",\"arena_nodes\":" << E.P.ArenaNodeDelta
        << ",\"gc\":" << E.P.GcCount << ",\"alloc_words\":" << E.P.AllocWords
        << ",\"copied_words\":" << E.P.CopiedWords
        << ",\"skipped\":" << (E.P.Skipped ? 1 : 0) << "}}";
    // The run phase's collector stalls: same pid/tid as the parent
    // span, strictly inside its [ts, ts+dur] window, so trace viewers
    // nest them under the run slice.
    for (const GcPauseRecord &G : E.P.GcPauses) {
      Out << ",{\"name\":\"" << (G.Minor ? "gc:minor" : "gc:major")
          << "\",\"cat\":\"gc\",\"ph\":\"X\",\"ts\":"
          << (G.StartNanos - Base) / 1000.0
          << ",\"dur\":" << G.WallNanos / 1000.0
          << ",\"pid\":1,\"tid\":" << E.Tid
          << ",\"args\":{\"copied_words\":" << G.CopiedWords
          << ",\"live_regions\":" << G.LiveRegions << "}}";
    }
  }
  Out << "],\"displayTimeUnit\":\"ms\"}";
  return Out.str();
}

bool ChromeTraceSink::writeFile(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << json() << "\n";
  return static_cast<bool>(Out);
}

size_t ChromeTraceSink::eventCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Events.size();
}

//===----------------------------------------------------------------------===//
// PhaseTimer
//===----------------------------------------------------------------------===//

PhaseTimer::PhaseTimer(std::string Name, TraceSink *Sink)
    : Sink(Sink), T0(std::chrono::steady_clock::now()) {
  P.Name = std::move(Name);
  P.StartNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          T0.time_since_epoch())
          .count());
}

PhaseProfile &PhaseTimer::stop() {
  if (!Stopped) {
    P.WallNanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    Stopped = true;
  }
  return P;
}

PhaseTimer::~PhaseTimer() {
  stop();
  if (Sink)
    Sink->record(P);
}
