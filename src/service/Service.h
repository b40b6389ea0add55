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
///     (backpressure or    (Fifo | FairShare,     (compile cache,
///      load shedding,      externally             region runtime + GC,
///      one cache key,      synchronized)          shared PagePool)
///      one callback)
///
/// Admission has two entry points over one private path: the blocking
/// submit() returns a future, the non-blocking trySubmit() takes a
/// callback. Either way the job carries a single completion callback
/// (the future form captures a promise in it) and the request's
/// CacheKey, hashed once before the queue lock and reused by the
/// scheduler's cost provider, the Executor and the cost model.
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

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
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

  /// Non-blocking, callback-style submit for event-loop frontends such
  /// as the network front door (net/Server.h), which must neither park
  /// on a full queue nor park on a future. \returns false when the
  /// queue is at capacity: the request was shed at admission (counted
  /// in ServiceStats::Rejected) and \p Done will never run. Otherwise
  /// returns true, and \p Done runs exactly once: on the worker that
  /// finishes the request, or inline on this thread with a
  /// RequestOutcome::Shutdown response when the service is stopping, so
  /// a caller can tell "back off" (false) from "give up". Keep \p Done
  /// cheap and non-blocking; it must not call back into blocking
  /// Service methods.
  bool trySubmit(Request R, std::function<void(Response)> Done);

  /// Stops accepting work, wakes any producer blocked in submit(),
  /// finishes every queued request, joins the workers. Idempotent and
  /// safe to race from several threads; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  const ServiceConfig &config() const { return Cfg; }
  /// The cross-request page pool (null when PagePoolPages == 0).
  const rt::PagePool *pagePool() const { return Pool.get(); }
  /// The learned cost model every completion feeds. Exposed so
  /// callers can read predictions and the model's snapshot.
  const CostModel &costModel() const { return Model; }

private:
  /// The one admission path behind submit() and trySubmit(). Builds
  /// the request's cache key before taking QueueMutex, then rejects at
  /// shutdown (\p Done runs inline with a Shutdown response), waits for
  /// room when \p Block is set or sheds at a full queue (\returns
  /// false), and otherwise counts the admission and hands the job to
  /// Scheduler::admit().
  bool enqueue(Request R, std::function<void(Response)> Done, bool Block);
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
  /// completion, read by the scheduler's cost provider. Declared before
  /// Exec, which holds a pointer to it.
  CostModel Model;
  /// Stateless over Cache/Pool/Model; shared by all workers.
  Executor Exec;
  std::vector<std::thread> Threads;
  std::chrono::steady_clock::time_point Started;

  mutable std::mutex QueueMutex;
  std::condition_variable NotEmpty; // workers wait: queue has work/stop
  std::condition_variable NotFull;  // producers wait: queue has room
  /// The dequeue policy; externally synchronized by QueueMutex.
  std::unique_ptr<Scheduler> Sched;
  bool Stopping = false;

  /// Serializes the join phase of racing shutdown() calls (QueueMutex
  /// cannot be held across join — workers take it to drain).
  std::mutex JoinMutex;

  mutable std::mutex StatsMutex;
  ServiceStats Counters; // queue/uptime fields filled in stats()
};

} // namespace rml::service

#endif // RML_SERVICE_SERVICE_H
