//===- service/Scheduler.h - Pluggable dequeue policies ---------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy layer between admission and execution: a Scheduler owns
/// the queued ScheduledJobs and decides which one a free worker takes
/// next. Implementations are *externally synchronized* — the Service
/// calls every method under its queue mutex, so a policy is plain data
/// structure code with no locking of its own (and is trivially
/// exchangeable for experiments).
///
/// A ScheduledJob carries the request, the request's CacheKey (built
/// once at admission; the cost provider prices the job from it) and one
/// completion callback.
///
/// Two policies ship today: Fifo (submission order, the fairness
/// baseline) and FairShare (per-tenant deficit round-robin, so one
/// tenant's expensive sources cannot starve another's cheap ones).
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_SCHEDULER_H
#define RML_SERVICE_SCHEDULER_H

#include "service/Config.h"
#include "service/Hash.h"
#include "service/Request.h"

#include <cstdint>
#include <functional>
#include <memory>

namespace rml::service {

/// One admitted request travelling through the service, with its one
/// completion callback.
struct ScheduledJob {
  /// The request, minus its source: admission moves Req.Source into
  /// Key.Source, so a queued job holds the source once.
  Request Req;
  /// Req's cache key, built once at admission before the queue lock is
  /// taken. The cost provider, the Executor and the cost model all read
  /// it, so the source is hashed once per request and read from here.
  CacheKey Key;
  /// Runs exactly once with the response: on the worker that finished
  /// the request, or inline on the submitter's thread for a request
  /// rejected at shutdown. The future form of Service::submit captures
  /// a promise here.
  std::function<void(Response)> Done;
  /// Scheduling weight, stamped once at admission by Scheduler::admit():
  /// the cost provider's predicted processing nanos when one is set
  /// (Service wires the CostModel here), the raw source length
  /// otherwise. FairShare charges it against the tenant's deficit.
  uint64_t CostKey = 0;
};

/// The dequeue-policy interface. Externally synchronized (see the file
/// comment): no Scheduler method is thread-safe on its own.
class Scheduler {
public:
  /// Maps an admitted job's cache key to its scheduling cost (predicted
  /// processing nanos). Called under the Service's queue mutex: keep it
  /// O(1)-ish and non-blocking.
  using CostFn = std::function<uint64_t(const CacheKey &)>;

  virtual ~Scheduler();

  /// Installs the cost provider consulted by admit(). Null restores the
  /// source-length fallback.
  void setCostProvider(CostFn F) { Provider = std::move(F); }

  /// Admission: stamps CostKey (from the provider — consulted exactly
  /// once, here and nowhere else), then hands the job to the policy.
  void admit(ScheduledJob J) {
    J.CostKey = Provider ? Provider(J.Key) : J.Key.Source.size();
    push(std::move(J));
  }

  /// Enqueues a fully stamped job (admit() is the normal entry; tests
  /// push pre-stamped jobs directly).
  virtual void push(ScheduledJob J) = 0;
  /// Removes and returns the next job; undefined when empty.
  virtual ScheduledJob pop() = 0;
  virtual size_t size() const = 0;
  /// The policy's stable name ("fifo", "fair").
  virtual const char *policyName() const = 0;

  bool empty() const { return size() == 0; }

private:
  CostFn Provider;
};

/// Builds the Scheduler for \p P. \p FairShareQuantum is the DRR
/// quantum (cost units credited per round) used by SchedPolicy::
/// FairShare; other policies ignore it.
std::unique_ptr<Scheduler> makeScheduler(SchedPolicy P,
                                         uint64_t FairShareQuantum = 1 << 20);

} // namespace rml::service

#endif // RML_SERVICE_SCHEDULER_H
