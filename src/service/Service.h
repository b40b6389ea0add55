//===- service/Service.h - Concurrent compile-and-run service ---*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer in front of the pipeline, decomposed into three
/// layers so each later scaling step (sharding, async I/O,
/// multi-backend) replaces exactly one of them:
///
///   admission            policy                 execution
///   submit/trySubmit ──> Scheduler ──────────> N workers x Executor
///     (backpressure,      (Fifo | Ljf,           (compile cache,
///      future- or          externally             per-phase budgets,
///      callback-style      synchronized)          region runtime + GC,
///      completion)                                shared PagePool)
///
/// This file owns the thread-pool mechanics only: the bounded queue
/// lives behind a Scheduler (service/Scheduler.h) that decides dequeue
/// order, and everything a worker does to one request is the Executor
/// (service/Executor.h). Requests carry source + CompileOptions +
/// optional EvalOptions; the response carries diagnostics, the printed
/// program, requested scheme renderings, the run outcome and its
/// HeapStats. Workers respect the one-Compiler-per-thread constraint by
/// construction: each cold compile runs on a fresh Compiler that dies
/// once its products are rendered into an immutable cache entry (see
/// service/Cache.h), and cache hits only read those entries.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_SERVICE_H
#define RML_SERVICE_SERVICE_H

#include "service/Cache.h"
#include "service/Config.h"
#include "service/CostModel.h"
#include "service/DiskCache.h"
#include "service/Executor.h"
#include "service/Request.h"
#include "service/Scheduler.h"
#include "service/Stats.h"

#include "rt/PagePool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace rml::service {

/// A thread-pool compile-and-run service. Construction spawns the
/// workers; destruction (or shutdown()) drains the queue and joins them.
/// submit(), trySubmit() and stats() are safe from any thread.
class Service {
public:
  explicit Service(ServiceConfig Cfg = {});
  ~Service();

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Enqueues a request; the future resolves when a worker finishes it.
  /// Blocks while the queue is at capacity (backpressure). A producer
  /// blocked here is woken by shutdown() and — like any submit after
  /// shutdown — gets an immediately resolved RequestOutcome::Shutdown
  /// response (the library-wide no-throw convention).
  std::future<Response> submit(Request R);

  /// Callback-style submit for event-loop frontends: no future, no
  /// thread parked on get() — \p Done runs on the worker thread that
  /// finished the request (keep it cheap and non-blocking; it must not
  /// call back into blocking Service methods). Same backpressure and
  /// shutdown behaviour as the future form, except a shutdown rejection
  /// invokes \p Done inline on the submitting thread.
  void submit(Request R, std::function<void(Response)> Done);

  /// Non-blocking submit for event-loop frontends: returns std::nullopt
  /// instead of blocking when the queue is at capacity (counted in
  /// ServiceStats::Rejected — the caller sheds load or retries). After
  /// shutdown() it behaves like submit(): an immediately resolved
  /// RequestOutcome::Shutdown future, never nullopt, so callers can
  /// tell "retry later" from "never".
  std::optional<std::future<Response>> trySubmit(Request R);

  /// The non-blocking x callback-style corner, built for the network
  /// front door (net/Server.h): an event-loop thread must neither park
  /// on a full queue nor park on a future. \returns false when the
  /// queue is at capacity — the request was shed at admission (counted
  /// in ServiceStats::Rejected) and \p Done will never run. Otherwise
  /// returns true: \p Done runs exactly once, on the worker that
  /// finishes the request, or inline on this thread with a
  /// RequestOutcome::Shutdown response when the service is stopping.
  bool trySubmit(Request R, std::function<void(Response)> Done);

  /// Stops accepting work, wakes any producer blocked in submit(),
  /// finishes every queued request, joins the workers. Idempotent and
  /// safe to race from several threads; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  const ServiceConfig &config() const { return Cfg; }
  /// The cross-request page pool (null when PagePoolPages == 0).
  const rt::PagePool *pagePool() const { return Pool.get(); }
  /// The learned cost model every completion feeds. Exposed so the
  /// network front door can consult predictions at admission (shedding
  /// predicted-over-deadline work before it queues).
  const CostModel &costModel() const { return Model; }
  /// Summed predicted cost (CostKey nanos) of the jobs currently
  /// queued — not yet picked up by a worker. The network front door
  /// divides this by the worker count for an expected-wait estimate at
  /// admission (predicted-wait shedding). Relaxed: a load races with
  /// enqueues/dequeues by design; shedding is heuristic.
  uint64_t queuedCostNanos() const {
    return QueuedCost.load(std::memory_order_relaxed);
  }

private:
  /// Admission: stamps Seq and hands the job to Scheduler::admit()
  /// (which stamps CostKey from the model and the absolute deadline),
  /// bumps counters. Caller holds QueueMutex and has checked !Stopping.
  void enqueue(ScheduledJob J);
  void workerMain();

  ServiceConfig Cfg;
  /// The persistent tier (null when Cfg.CacheDir is empty). Declared
  /// before Cache, which holds a raw pointer to it.
  std::unique_ptr<DiskCache> Disk;
  CompileCache Cache;
  /// Shared across all workers' run heaps; must outlive every run, so
  /// it is declared before (destroyed after) the worker threads, and
  /// shutdown() joins them before any member dies anyway.
  std::unique_ptr<rt::PagePool> Pool;
  /// Learned per-source/per-phase costs; fed by the Executor on every
  /// completion, read by the scheduler's cost provider and by admission
  /// layers. Declared before Exec, which holds a pointer to it.
  CostModel Model;
  /// Stateless over Cfg/Cache/Pool/Model; shared by all workers.
  Executor Exec;
  std::vector<std::thread> Threads;
  std::chrono::steady_clock::time_point Started;

  mutable std::mutex QueueMutex;
  std::condition_variable NotEmpty; // workers wait: queue has work/stop
  std::condition_variable NotFull;  // producers wait: queue has room
  /// The dequeue policy; externally synchronized by QueueMutex.
  std::unique_ptr<Scheduler> Sched;
  /// Admission order stamp for ScheduledJob::Seq (under QueueMutex).
  uint64_t NextSeq = 0;
  bool Stopping = false;
  /// Summed CostKeys of queued (admitted, not yet dequeued) jobs.
  /// Atomic so queuedCostNanos() needs no lock.
  std::atomic<uint64_t> QueuedCost{0};

  /// Serializes the join phase of racing shutdown() calls (QueueMutex
  /// cannot be held across join — workers take it to drain).
  std::mutex JoinMutex;

  mutable std::mutex StatsMutex;
  ServiceStats Counters; // queue/uptime fields filled in stats()
};

} // namespace rml::service

#endif // RML_SERVICE_SERVICE_H
