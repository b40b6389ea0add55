//===- service/Stats.h - Service statistics ---------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_STATS_H
#define RML_SERVICE_STATS_H

#include "rt/PagePool.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rml::service {

/// A point-in-time statistics snapshot; also renderable as one-line JSON
/// (every string — phase names included — is escaped, so embedded user
/// source cannot break the line).
struct ServiceStats {
  /// Aggregate cost of one pipeline phase across every completed
  /// request (skipped phases — cache hits, a disabled checker — do not
  /// contribute): utilization decomposed by phase.
  struct PhaseAggregate {
    std::string Name;
    uint64_t SumNanos = 0;
    uint64_t MaxNanos = 0;
    /// Executed (non-skipped) instances of the phase.
    uint64_t Count = 0;
  };

  /// Per-tenant request disposition (keyed by Request::Tenant; the
  /// empty string is the anonymous tenant). Admitted counts enqueues,
  /// Completed counts worker completions, Shed counts queue-full
  /// trySubmit rejections — the operator's per-tenant fairness view.
  struct TenantCounts {
    uint64_t Admitted = 0;
    uint64_t Completed = 0;
    uint64_t Shed = 0;
  };

  uint64_t Submitted = 0;
  /// trySubmit() calls turned away at a full queue.
  uint64_t Rejected = 0;
  /// Submissions resolved with RequestOutcome::Shutdown because the
  /// service was already stopping. Disjoint from Rejected (queue-full):
  /// these producers were drained, not backpressured.
  uint64_t ShutdownRejected = 0;
  uint64_t Completed = 0;
  uint64_t CompileErrors = 0;
  /// Requests whose processing threw (RequestOutcome::InternalError).
  /// The worker survived and the caller got a resolved response.
  uint64_t InternalErrors = 0;
  uint64_t RunsOk = 0;
  uint64_t RunsFailed = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  /// Persistent-tier counters (all zero when CacheDir is unset): memory
  /// misses served from disk, disk files absent, entries that failed to
  /// persist, and entry files rejected at load (corruption, format
  /// drift, hash collisions — all degraded to a miss).
  uint64_t DiskHits = 0;
  uint64_t DiskMisses = 0;
  uint64_t DiskWriteErrors = 0;
  uint64_t DiskLoadRejects = 0;
  /// Disk-sweeper counters (zero without --cache-max-bytes/--cache-max-age):
  /// entry files evicted by the retention policy, their summed bytes,
  /// and sweep passes or removals that failed.
  uint64_t SweptFiles = 0;
  uint64_t SweptBytes = 0;
  uint64_t SweepErrors = 0;
  /// Deepest the queue ever got (backpressure high-water mark).
  uint64_t QueueHighWater = 0;
  uint64_t QueueDepth = 0;
  /// Requests currently being processed by a worker (dequeued, not yet
  /// completed) — with QueueDepth, the live saturation picture an
  /// operator polls from rmld's /stats endpoint.
  uint64_t InFlight = 0;
  unsigned Workers = 0;
  /// The active scheduler's policy name ("fifo", "fair").
  std::string Policy;
  /// Sum over runs of HeapStats counters (the serving-level GC bill).
  uint64_t TotalGcCount = 0;
  uint64_t TotalAllocWords = 0;
  uint64_t TotalCopiedWords = 0;
  /// Cross-request page pool counters (all zero when pooling is off).
  rt::PagePoolStats Pool;
  /// Log-2 histogram of collector pause wall times across every run:
  /// bucket I counts pauses with WallNanos in [2^I, 2^(I+1)). Powers
  /// the pause-percentile estimates of the stats JSON's "gc_pauses"
  /// block.
  static constexpr size_t GcPauseBuckets = 40;
  std::array<uint64_t, GcPauseBuckets> GcPauseHist{};
  uint64_t GcPauseCount = 0;
  uint64_t GcPauseMaxNanos = 0;
  /// Learned-cost-model counters (see service/CostModel.h): distinct
  /// keys with history, predictions served from an entry vs the prior,
  /// and the current cost-per-byte prior in nanos (a double — rendered
  /// with the locale-independent jsonFixed).
  uint64_t CostModelEntries = 0;
  uint64_t CostModelHits = 0;
  uint64_t CostModelPriorUses = 0;
  double CostModelPriorPerByte = 0.0;
  /// Nanoseconds workers spent processing (vs idle) and service uptime.
  uint64_t BusyNanos = 0;
  uint64_t UptimeNanos = 0;
  /// One aggregate per pipeline phase, in stable order: the static
  /// phases (Compiler::staticPhaseNames()) then the runtime phase.
  std::vector<PhaseAggregate> Phases;
  /// Per-tenant dispositions, keyed by Request::Tenant (sorted, so the
  /// JSON rendering is stable).
  std::map<std::string, TenantCounts> Tenants;

  /// Histogram-derived pause percentile in nanos: the upper bound of
  /// the bucket holding the \p P quantile (conservative within 2x),
  /// clamped to the observed maximum. Zero when no pause was recorded.
  uint64_t gcPausePercentileNanos(double P) const;

  /// Fraction of worker-thread time spent processing, in [0,1].
  double utilization() const {
    double Denom =
        static_cast<double>(Workers) * static_cast<double>(UptimeNanos);
    return Denom > 0 ? static_cast<double>(BusyNanos) / Denom : 0.0;
  }

  /// One-line JSON rendering of every counter (stable key order).
  std::string json() const;
};

} // namespace rml::service

#endif // RML_SERVICE_STATS_H
