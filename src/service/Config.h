//===- service/Config.h - Service configuration -----------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_CONFIG_H
#define RML_SERVICE_CONFIG_H

#include "rt/PagePool.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

namespace rml::service {

/// Which Scheduler the service dequeues with (see service/Scheduler.h).
enum class SchedPolicy : uint8_t {
  /// Strict submission order — the default, and the fairness baseline.
  Fifo,
  /// Per-tenant deficit round-robin on Request::Tenant: every active
  /// tenant gets an equal share of predicted cost, so one tenant's
  /// expensive sources cannot starve another's cheap ones.
  FairShare,
};

/// \returns "fifo" / "fair".
const char *schedPolicyName(SchedPolicy P);

/// Parses "fifo"/"fair"; false on anything else
/// (\p Out untouched).
bool parseSchedPolicy(std::string_view Name, SchedPolicy &Out);

/// Service configuration.
struct ServiceConfig {
  /// Worker threads; 0 means one per hardware thread (at least 1).
  unsigned Workers = 0;
  /// Bounded queue: submit() blocks once this many requests wait
  /// (backpressure toward the producers).
  size_t QueueCapacity = 256;
  /// LRU compile-cache entries; 0 disables caching.
  size_t CacheCapacity = 128;
  /// Directory for the persistent compile-cache tier (rmlc --cache-dir):
  /// each successful or failed compile's static products are written as
  /// one content-hash-named file, and a memory miss consults the
  /// directory before recompiling, so warm starts survive process
  /// restarts and the directory may be shared between processes. Empty
  /// (the default) disables the disk tier; CacheCapacity == 0 disables
  /// it too (the disk tier sits beneath the memory tier, not beside
  /// it). See service/DiskCache.h for the format and fail-closed rules.
  std::string CacheDir;
  /// Retention bounds for the disk tier (rmlc/rmld --cache-max-bytes,
  /// --cache-max-age): when either is nonzero the service runs the
  /// cache's background sweeper, which evicts entries past the age
  /// cut-off and then oldest-first past the byte watermark (see
  /// DiskCache::SweepConfig). Both zero (the default) leaves the
  /// directory unbounded, exactly as before.
  uint64_t CacheMaxBytes = 0;
  uint64_t CacheMaxAgeSeconds = 0;
  /// Background sweep cadence in milliseconds.
  uint64_t CacheSweepIntervalMillis = 5000;
  /// Standard region pages the cross-request PagePool may hold; worker
  /// runs draw pages from it and recycle them back on heap teardown.
  /// 0 disables pooling (every run round-trips the allocator). Requests
  /// that ask for RetainReleasedPages dangling detection bypass the
  /// pool regardless (see rt/PagePool.h).
  size_t PagePoolPages = rt::PagePool::DefaultMaxPages;
  /// Optional sink receiving every executed phase profile (static
  /// phases of cold compiles plus each request's runtime phase, whose
  /// GcPauses the sink can render nested). Non-owning; must be
  /// thread-safe (workers record concurrently) and outlive the service.
  /// Null disables forwarding.
  TraceSink *Trace = nullptr;
  /// Dequeue policy (rmlc/rmld --sched fifo|fair).
  SchedPolicy Policy = SchedPolicy::Fifo;
  /// DRR quantum for SchedPolicy::FairShare, in cost-key units
  /// (predicted nanos once the model has history): the credit each
  /// active tenant receives per round-robin round. Smaller is fairer
  /// but rotates tenants more; ~1ms of predicted work is a reasonable
  /// serving grain.
  uint64_t FairShareQuantum = 1 << 20;

  unsigned effectiveWorkers() const {
    if (Workers)
      return Workers;
    unsigned H = std::thread::hardware_concurrency();
    return H ? H : 1;
  }
};

} // namespace rml::service

#endif // RML_SERVICE_CONFIG_H
