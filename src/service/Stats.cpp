//===- service/Stats.cpp --------------------------------------------------===//

#include "service/Stats.h"

#include "support/Trace.h"

#include <sstream>

using namespace rml;
using namespace rml::service;

uint64_t ServiceStats::gcPausePercentileNanos(double P) const {
  if (GcPauseCount == 0)
    return 0;
  uint64_t Target = static_cast<uint64_t>(P * static_cast<double>(GcPauseCount));
  if (Target >= GcPauseCount)
    Target = GcPauseCount - 1;
  uint64_t Cum = 0;
  for (size_t I = 0; I < GcPauseBuckets; ++I) {
    Cum += GcPauseHist[I];
    if (Cum > Target) {
      uint64_t Bound = I + 1 >= 64 ? UINT64_MAX : (uint64_t(1) << (I + 1));
      return GcPauseMaxNanos && Bound > GcPauseMaxNanos ? GcPauseMaxNanos
                                                        : Bound;
    }
  }
  return GcPauseMaxNanos;
}

std::string ServiceStats::json() const {
  std::ostringstream Out;
  Out << "{\"submitted\":" << Submitted << ",\"rejected\":" << Rejected
      << ",\"shutdown_rejected\":" << ShutdownRejected
      << ",\"completed\":" << Completed
      << ",\"compile_errors\":" << CompileErrors
      << ",\"internal_errors\":" << InternalErrors
      << ",\"runs_ok\":" << RunsOk << ",\"runs_failed\":" << RunsFailed
      << ",\"cache_hits\":" << CacheHits << ",\"cache_misses\":" << CacheMisses
      << ",\"cache_evictions\":" << CacheEvictions
      << ",\"disk_hits\":" << DiskHits << ",\"disk_misses\":" << DiskMisses
      << ",\"disk_write_errors\":" << DiskWriteErrors
      << ",\"disk_load_rejects\":" << DiskLoadRejects
      << ",\"swept_files\":" << SweptFiles
      << ",\"swept_bytes\":" << SweptBytes
      << ",\"sweep_errors\":" << SweepErrors
      << ",\"prefix_hits\":" << PrefixHits
      << ",\"prefix_misses\":" << PrefixMisses
      << ",\"prefix_snapshots\":" << PrefixSnapshots
      << ",\"prefix_evictions\":" << PrefixEvictions
      << ",\"queue_depth\":" << QueueDepth
      << ",\"queue_high_water\":" << QueueHighWater
      << ",\"in_flight\":" << InFlight
      << ",\"workers\":" << Workers
      << ",\"sched\":\"" << jsonEscaped(Policy) << "\""
      << ",\"gc_count\":" << TotalGcCount
      << ",\"alloc_words\":" << TotalAllocWords
      << ",\"copied_words\":" << TotalCopiedWords
      << ",\"pool_hits\":" << Pool.AcquireHits
      << ",\"pool_misses\":" << Pool.AcquireMisses
      << ",\"pool_releases\":" << Pool.Releases
      << ",\"pool_trims\":" << Pool.Trims
      << ",\"pool_free_pages\":" << Pool.FreePages
      << ",\"pool_capacity\":" << Pool.Capacity
      << ",\"pool_reuse\":" << jsonFixed(Pool.reuseRatio())
      << ",\"gc_pauses\":{\"pause_count\":" << GcPauseCount
      << ",\"pause_p50_ns\":" << gcPausePercentileNanos(0.50)
      << ",\"pause_p99_ns\":" << gcPausePercentileNanos(0.99)
      << ",\"pause_max_ns\":" << GcPauseMaxNanos << "}"
      << ",\"cost_model\":{\"entries\":" << CostModelEntries
      << ",\"hits\":" << CostModelHits
      << ",\"prior_uses\":" << CostModelPriorUses
      << ",\"prior_per_byte\":" << jsonFixed(CostModelPriorPerByte) << "}"
      << ",\"phases\":{";
  for (size_t I = 0; I < Phases.size(); ++I) {
    if (I)
      Out << ",";
    Out << "\"" << jsonEscaped(Phases[I].Name)
        << "\":{\"sum_nanos\":" << Phases[I].SumNanos
        << ",\"max_nanos\":" << Phases[I].MaxNanos
        << ",\"count\":" << Phases[I].Count << "}";
  }
  Out << "},\"tenants\":{";
  {
    bool First = true;
    for (const auto &[Name, T] : Tenants) {
      if (!First)
        Out << ",";
      First = false;
      Out << "\"" << jsonEscaped(Name) << "\":{\"admitted\":" << T.Admitted
          << ",\"completed\":" << T.Completed << ",\"shed\":" << T.Shed << "}";
    }
  }
  Out << "},\"busy_nanos\":" << BusyNanos << ",\"uptime_nanos\":" << UptimeNanos
      << ",\"uptime_seconds\":" << UptimeNanos / 1000000000
      << ",\"utilization\":" << jsonFixed(utilization()) << "}";
  return Out.str();
}
