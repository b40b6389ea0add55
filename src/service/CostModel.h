//===- service/CostModel.h - Learned per-source cost estimates --*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The learned cost model behind scheduling decisions. Every completed
/// request feeds one observation — the summed wall time of its executed
/// (non-Skipped) phases, keyed by the same FNV-1a content hash the
/// compile cache uses — and the Scheduler's cost provider calls
/// predict() so FairShare charges each tenant *predicted* processing
/// nanos instead of raw source length.
///
/// Never-seen sources fall back to a global *per-byte* prior (EWMA of
/// cost/byte over cold compiles), so a cold prediction is PerByte x
/// sourceBytes — proportional to length, so longer sources cost more
/// before any key has history. Before the first observation the
/// bootstrap prediction is the byte count itself: the units are wrong
/// but the *order* is right, which is all a scheduling weight needs.
/// The snapshot's Hits and PriorUses count the two kinds of answer.
///
/// Thread-safe: one mutex guards all state. Observations are O(phases),
/// predictions O(1), and both are negligible next to a parse.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_COSTMODEL_H
#define RML_SERVICE_COSTMODEL_H

#include "support/Trace.h"

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace rml::service {

/// Thread-safe, content-keyed store of EWMA cost estimates.
class CostModel {
public:
  /// EWMA weight of the newest observation. High enough to converge in
  /// a handful of passes, low enough to ride out one noisy run.
  static constexpr double Alpha = 0.4;

  /// Counters + gauges for /stats ("cost_model": {...}).
  struct Snapshot {
    uint64_t Entries = 0;   ///< distinct keys with history
    uint64_t Hits = 0;      ///< predictions answered from a key entry
    uint64_t PriorUses = 0; ///< predictions answered from the prior
    double PriorPerByte = 0.0; ///< current cost-per-byte prior (nanos)
  };

  /// Predicts the total processing nanoseconds (>= 1) of the source
  /// hashing to \p Hash with \p SourceBytes bytes. Never fails: falls
  /// through entry -> per-byte prior -> bootstrap (see file comment).
  uint64_t predict(uint64_t Hash, size_t SourceBytes) const;

  /// Folds one completed request into the model: the entry for \p Hash
  /// absorbs the summed non-Skipped wall nanos of \p Profiles. Pass
  /// \p UpdatePrior only for cold (non-cache-hit) completions, so the
  /// per-byte prior keeps meaning "a full compile costs this much per
  /// byte" and is not dragged down by cheap cache-hit runs. The
  /// Executor observes every request it completes; Shutdown and
  /// InternalError responses never reach it.
  void observe(uint64_t Hash, size_t SourceBytes,
               const std::vector<PhaseProfile> &Profiles, bool UpdatePrior);

  Snapshot snapshot() const;

private:
  /// Per-key EWMA of total processing nanos.
  struct Entry {
    double TotalNanos = 0.0;
    uint64_t Count = 0;
  };

  mutable std::mutex M;
  std::unordered_map<uint64_t, Entry> Entries;
  double PriorPerByte = 0.0;
  uint64_t PriorCount = 0;
  mutable uint64_t Hits = 0;
  mutable uint64_t PriorUses = 0;
};

} // namespace rml::service

#endif // RML_SERVICE_COSTMODEL_H
