//===- core/Options.h - Compile options and their byte codec ----*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The options of one compilation and the one codec that turns them into
/// bytes. A leaf header: core/Pipeline.h, the flat unit header
/// (flat/Flat.h) and the service's cache key and disk entries
/// (service/Hash.h) all include it, so a new compile option is added
/// here — field, encoder byte, decoder range check — and nowhere else.
///
//===----------------------------------------------------------------------===//

#ifndef RML_CORE_OPTIONS_H
#define RML_CORE_OPTIONS_H

#include "rinfer/Strategy.h"

#include <array>
#include <cstdint>
#include <optional>

namespace rml {

/// Options for one compilation.
struct CompileOptions {
  Strategy Strat = Strategy::Rg;
  SpuriousMode Spurious = SpuriousMode::FreshSecondary;
  /// Validate the region-annotated program with the Figure 4 checker
  /// (GC-safety conditions enabled iff the strategy is rg).
  bool Check = true;
  /// Run the capture-tracking analysis (rinfer/Captures.h): per-closure
  /// captured-region sets, rendered by Compiler::captureReport and
  /// persisted through the caches. Off by default — the phase stays in
  /// the profile list marked Skipped, like an unchecked "check".
  bool Captures = false;
};

/// The compile options as bytes, in a fixed order: strategy, spurious
/// mode, check, captures. The cache key hash folds them in after the
/// source, every disk entry stores and verifies them, and every flat
/// unit carries them in its header.
using OptionBytes = std::array<uint8_t, 4>;

inline OptionBytes encodeOptions(const CompileOptions &Opts) {
  return {static_cast<uint8_t>(Opts.Strat),
          static_cast<uint8_t>(Opts.Spurious),
          static_cast<uint8_t>(Opts.Check ? 1 : 0),
          static_cast<uint8_t>(Opts.Captures ? 1 : 0)};
}

/// The inverse of encodeOptions; nullopt when any byte is out of range,
/// so decoding untrusted bytes fails closed.
inline std::optional<CompileOptions> decodeOptions(const OptionBytes &B) {
  if (B[0] > static_cast<uint8_t>(Strategy::R) ||
      B[1] > static_cast<uint8_t>(SpuriousMode::IdentifyWithFun) ||
      B[2] > 1 || B[3] > 1)
    return std::nullopt;
  CompileOptions Opts;
  Opts.Strat = static_cast<Strategy>(B[0]);
  Opts.Spurious = static_cast<SpuriousMode>(B[1]);
  Opts.Check = B[2] != 0;
  Opts.Captures = B[3] != 0;
  return Opts;
}

} // namespace rml

#endif // RML_CORE_OPTIONS_H
