//===- service/Service.cpp ------------------------------------------------===//

#include "service/Service.h"

using namespace rml;
using namespace rml::service;

namespace {

std::unique_ptr<rt::PagePool> makePool(const ServiceConfig &Cfg) {
  if (Cfg.PagePoolPages == 0)
    return nullptr;
  return std::make_unique<rt::PagePool>(Cfg.PagePoolPages);
}

std::unique_ptr<DiskCache> makeDisk(const ServiceConfig &Cfg) {
  // The disk tier sits beneath the memory tier; with caching disabled
  // outright there is nothing for it to back.
  if (Cfg.CacheDir.empty() || Cfg.CacheCapacity == 0)
    return nullptr;
  return std::make_unique<DiskCache>(Cfg.CacheDir);
}

Response internalErrorResponse(const char *What) {
  Response Resp;
  Resp.Status = RequestOutcome::InternalError;
  Resp.CompileOk = false;
  Resp.Outcome = rt::RunOutcome::RuntimeError;
  Resp.Error = What;
  Resp.Diagnostics = std::string("error: internal error: ") + What;
  return Resp;
}

Response shutdownResponse() {
  Response Rej;
  Rej.Status = RequestOutcome::Shutdown;
  Rej.Diagnostics = "error: service is shut down";
  Rej.Outcome = rt::RunOutcome::RuntimeError;
  Rej.Error = "service is shut down";
  return Rej;
}

} // namespace

Service::Service(ServiceConfig CfgIn)
    : Cfg(std::move(CfgIn)), Disk(makeDisk(Cfg)),
      Cache(Cfg.CacheCapacity, Disk.get()),
      Pool(makePool(Cfg)), Exec(Cache, Prefixes, Pool.get(), &Model),
      Started(std::chrono::steady_clock::now()),
      Sched(makeScheduler(Cfg.Policy, Cfg.FairShareQuantum)) {
  // Scheduling weights come from the learned model: predicted
  // processing nanos for seen sources, the per-byte prior (and, before
  // any observation, the raw byte count) for cold ones. The provider
  // runs under QueueMutex on the job's carried key, so it never hashes;
  // predict() is O(1) under its own lock.
  Sched->setCostProvider([this](const CacheKey &K) {
    return Model.predict(K.Hash, K.Source.size());
  });
  // One aggregate slot per pipeline phase, in stable reporting order.
  for (const std::string &Name : Compiler::staticPhaseNames())
    Counters.Phases.push_back({Name, 0, 0, 0});
  Counters.Phases.push_back({Compiler::RunPhaseName, 0, 0, 0});
  // Bound the disk tier when asked: the sweeper's lifetime is the
  // service's (stopped in shutdown(), and by ~DiskCache regardless).
  if (Disk && (Cfg.CacheMaxBytes || Cfg.CacheMaxAgeSeconds)) {
    DiskCache::SweepConfig SC;
    SC.MaxBytes = Cfg.CacheMaxBytes;
    SC.MaxAgeSeconds = Cfg.CacheMaxAgeSeconds;
    SC.IntervalMillis = Cfg.CacheSweepIntervalMillis;
    Disk->startSweeper(SC);
  }
  unsigned N = Cfg.effectiveWorkers();
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([this] { workerMain(); });
}

Service::~Service() { shutdown(); }

bool Service::enqueue(Request R, std::function<void(Response)> Done,
                      bool Block) {
  ScheduledJob J;
  // The request's one hash, taken before the lock so submitters do not
  // serialise on it. The source moves into the key: from here on the
  // job's one copy of it is Key.Source.
  J.Key.Hash = hashCompileInputs(R.Source, R.Opts);
  J.Key.Source = std::move(R.Source);
  J.Key.Opts = R.Opts;
  J.Req = std::move(R);
  J.Done = std::move(Done);
  {
    std::unique_lock<std::mutex> Lock(QueueMutex);
    if (Block)
      NotFull.wait(Lock, [this] {
        return Sched->size() < Cfg.QueueCapacity || Stopping;
      });
    // Reject rather than enqueue once shutdown has begun (below): a
    // worker may already have seen the queue empty and exited, so a
    // late job could otherwise never resolve. This is also the wake-up
    // path for a producer that was blocked on a full queue when
    // shutdown() fired.
    if (!Stopping) {
      size_t Depth = Sched->size() + 1; // with this job queued
      {
        std::lock_guard<std::mutex> SLock(StatsMutex);
        ServiceStats::TenantCounts &T = Counters.Tenants[J.Req.Tenant];
        if (Depth > Cfg.QueueCapacity) {
          ++Counters.Rejected;
          ++T.Shed;
          return false;
        }
        ++Counters.Submitted;
        ++T.Admitted;
        if (Depth > Counters.QueueHighWater)
          Counters.QueueHighWater = Depth;
      }
      // admit() stamps CostKey, consulting the cost provider once.
      Sched->admit(std::move(J));
      Lock.unlock();
      NotEmpty.notify_one();
      return true;
    }
  }
  // The rejection callback runs outside QueueMutex: it is user code and
  // may legitimately call stats() or submit more work.
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Counters.ShutdownRejected;
  }
  J.Done(shutdownResponse());
  return true;
}

std::future<Response> Service::submit(Request R) {
  // std::function needs a copyable callable, so the promise is shared.
  auto P = std::make_shared<std::promise<Response>>();
  std::future<Response> F = P->get_future();
  enqueue(
      std::move(R), [P](Response Resp) { P->set_value(std::move(Resp)); },
      /*Block=*/true);
  return F;
}

bool Service::trySubmit(Request R, std::function<void(Response)> Done) {
  return enqueue(std::move(R), std::move(Done), /*Block=*/false);
}

void Service::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  // Wake the workers (to drain and exit) and any producer parked in
  // submit() on a full queue (to resolve with a Shutdown response).
  NotEmpty.notify_all();
  NotFull.notify_all();
  // Racing shutdown() calls serialize here; QueueMutex cannot be held
  // across join because the draining workers take it.
  std::lock_guard<std::mutex> JLock(JoinMutex);
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  Threads.clear();
  // The sweeper outlived the workers so a final flood of stores could
  // still be bounded; it stops with the service (idempotent — the
  // DiskCache destructor would also catch it).
  if (Disk)
    Disk->stopSweeper();
}

void Service::workerMain() {
  for (;;) {
    ScheduledJob J;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      NotEmpty.wait(Lock, [this] { return !Sched->empty() || Stopping; });
      if (Sched->empty())
        return; // stopping and drained
      J = Sched->pop();
    }
    NotFull.notify_one();
    {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.InFlight;
    }

    auto T0 = std::chrono::steady_clock::now();
    // A worker that lets an exception escape takes the whole process
    // down (std::terminate) and leaves the job's callback forever
    // unrun. The library itself never throws, but user-supplied
    // hooks (trace sinks, GC pause sinks) and the allocator can; turn
    // anything that escapes into a resolved InternalError response and
    // keep serving.
    Response Resp;
    try {
      Resp = Exec.process(J.Req, J.Key);
    } catch (const std::exception &E) {
      Resp = internalErrorResponse(E.what());
    } catch (...) {
      Resp = internalErrorResponse("unknown exception");
    }
    auto T1 = std::chrono::steady_clock::now();

    // Trace forwarding happens outside the stats lock; the sink is
    // thread-safe by contract. Skipped profiles carry no timing.
    if (Cfg.Trace)
      for (const PhaseProfile &P : Resp.Profiles)
        if (!P.Skipped)
          Cfg.Trace->record(P);

    {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.Completed;
      if (Resp.Status == RequestOutcome::InternalError)
        ++Counters.InternalErrors;
      else if (!Resp.CompileOk)
        ++Counters.CompileErrors;
      ++Counters.Tenants[J.Req.Tenant].Completed;
      if (Resp.Ran) {
        if (Resp.Outcome == rt::RunOutcome::Ok)
          ++Counters.RunsOk;
        else
          ++Counters.RunsFailed;
        Counters.TotalGcCount += Resp.Heap.GcCount;
        Counters.TotalAllocWords += Resp.Heap.AllocWords;
        Counters.TotalCopiedWords += Resp.Heap.CopiedWords;
        // Pause histogram: the run phase's GcPauses (static phases
        // carry none), bucketed by floor(log2(wall nanos)).
        for (const PhaseProfile &P : Resp.Profiles)
          for (const GcPauseRecord &G : P.GcPauses) {
            ++Counters.GcPauseCount;
            if (G.WallNanos > Counters.GcPauseMaxNanos)
              Counters.GcPauseMaxNanos = G.WallNanos;
            size_t B = 0;
            for (uint64_t W = G.WallNanos; W >>= 1;)
              ++B;
            if (B >= ServiceStats::GcPauseBuckets)
              B = ServiceStats::GcPauseBuckets - 1;
            ++Counters.GcPauseHist[B];
          }
      }
      for (const PhaseProfile &P : Resp.Profiles) {
        if (P.Skipped)
          continue;
        for (ServiceStats::PhaseAggregate &A : Counters.Phases)
          if (A.Name == P.Name) {
            A.SumNanos += P.WallNanos;
            if (P.WallNanos > A.MaxNanos)
              A.MaxNanos = P.WallNanos;
            ++A.Count;
            break;
          }
      }
      Counters.BusyNanos += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
              .count());
    }
    J.Done(std::move(Resp));
    {
      // In flight covers the completion hand-off too: a request whose
      // callback is still running has not finished from the operator's
      // point of view.
      std::lock_guard<std::mutex> SLock(StatsMutex);
      --Counters.InFlight;
    }
  }
}

ServiceStats Service::stats() const {
  ServiceStats Out;
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    Out = Counters;
  }
  CompileCache::Counters CC = Cache.counters();
  Out.CacheHits = CC.Hits;
  Out.CacheMisses = CC.Misses;
  Out.CacheEvictions = CC.Evictions;
  if (Disk) {
    DiskCache::Counters DC = Disk->counters();
    Out.DiskHits = DC.Hits;
    Out.DiskMisses = DC.Misses;
    Out.DiskWriteErrors = DC.WriteErrors;
    Out.DiskLoadRejects = DC.LoadRejects;
    Out.SweptFiles = DC.SweptFiles;
    Out.SweptBytes = DC.SweptBytes;
    Out.SweepErrors = DC.SweepErrors;
  }
  PrefixStore::Counters PC = Prefixes.counters();
  Out.PrefixHits = PC.Hits;
  Out.PrefixMisses = PC.Misses;
  Out.PrefixSnapshots = PC.Snapshots;
  Out.PrefixEvictions = PC.Evictions;
  CostModel::Snapshot MS = Model.snapshot();
  Out.CostModelEntries = MS.Entries;
  Out.CostModelHits = MS.Hits;
  Out.CostModelPriorUses = MS.PriorUses;
  Out.CostModelPriorPerByte = MS.PriorPerByte;
  Out.Workers = Cfg.effectiveWorkers();
  Out.Policy = schedPolicyName(Cfg.Policy);
  if (Pool)
    Out.Pool = Pool->stats();
  {
    std::lock_guard<std::mutex> QLock(QueueMutex);
    Out.QueueDepth = Sched->size();
  }
  Out.UptimeNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Started)
          .count());
  return Out;
}
