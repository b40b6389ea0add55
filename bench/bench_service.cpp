//===- bench/bench_service.cpp - Service throughput harness ---------------===//
//
// Cold vs warm (cache-hit) compile throughput of the concurrent service
// over the Figure 9 corpus, at 1, 4 and 8 workers. Like bench_fig9 this
// prints its table directly (custom main) rather than going through
// google-benchmark: each cell is one timed batch, and the cold cell
// needs a fresh service per measurement so the cache starts empty.
//
//   cold  — every request misses: 12 option variants (3 strategies x 2
//           spurious modes x check on/off) of every corpus program,
//           distinct cache keys throughout.
//   warm  — the identical batch resubmitted to the same service: every
//           request hits the cache.
//
// Requests in the first table are compile-only (Run = false): run time
// is identical on hit and miss — the cache addresses the static
// pipeline — so including it would only blur the measurement. The final
// lines report the warm/cold speedup (the cache's value) and the 1→N
// cold scaling (the pool's value; bounded by the machine's core count).
//
// The second table measures the *run* path (Run = true) over the same
// corpus: every request executes on the region runtime, drawing its
// heap's standard pages from the service's cross-request PagePool. The
// cold batch starts with an empty pool (every page is a fresh
// allocation); the warm batch reuses the pages the cold batch recycled,
// and the table reports that phase's pages-reused ratio next to the
// cold and warm run throughput.
//
// The third table decomposes a cold batch and its warm resubmission by
// pipeline phase (the service's per-phase aggregates): the warm column
// shows the static phases vanishing behind the cache while the runtime
// phase is paid in full both times.
//
//===----------------------------------------------------------------------===//

#include "service/Hash.h"
#include "service/Service.h"

#include "bench/Programs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace rml;
using namespace rml::service;

namespace {

/// Every (program, options) pair in the batch: 12 variants per program.
std::vector<Request> buildBatch() {
  std::vector<Request> Batch;
  for (const bench::BenchProgram &P : bench::benchmarkSuite())
    for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R})
      for (SpuriousMode M :
           {SpuriousMode::FreshSecondary, SpuriousMode::IdentifyWithFun})
        for (bool Check : {true, false}) {
          Request Req;
          Req.Source = P.Source;
          Req.Opts.Strat = S;
          Req.Opts.Spurious = M;
          Req.Opts.Check = Check;
          Req.Run = false; // compile throughput; see the file comment
          Batch.push_back(std::move(Req));
        }
  return Batch;
}

double submitAll(Service &Svc, const std::vector<Request> &Batch) {
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::future<Response>> Futures;
  Futures.reserve(Batch.size());
  for (const Request &Req : Batch)
    Futures.push_back(Svc.submit(Req));
  for (auto &F : Futures) {
    Response R = F.get();
    if (!R.CompileOk)
      std::fprintf(stderr, "bench_service: unexpected compile failure\n");
    else if (R.Ran && R.Outcome != rt::RunOutcome::Ok)
      std::fprintf(stderr, "bench_service: unexpected run failure: %s\n",
                   R.Error.c_str());
  }
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// The Run = true batch: every corpus program under rg, executed on the
/// region runtime with a threshold low enough to exercise the collector.
std::vector<Request> buildRunBatch() {
  std::vector<Request> Batch;
  for (const bench::BenchProgram &P : bench::benchmarkSuite()) {
    Request Req;
    Req.Source = P.Source;
    Req.Run = true;
    Req.EvalOpts.GcThresholdWords = 8 * 1024;
    Batch.push_back(std::move(Req));
  }
  return Batch;
}

void runModeTable() {
  const std::vector<Request> Batch = buildRunBatch();
  std::printf("\nservice run mode (Run = true), %zu run requests per "
              "batch, shared page pool\n",
              Batch.size());
  std::printf("%-8s %12s %12s %14s %12s %10s %8s\n", "workers", "cold req/s",
              "warm req/s", "pages reused", "pool pages", "locks/req",
              "steals");

  for (unsigned Workers : {1u, 4u, 8u}) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.QueueCapacity = Batch.size();
    Cfg.CacheCapacity = 2 * Batch.size();
    Service Svc(Cfg);

    double ColdSecs = submitAll(Svc, Batch); // empty pool: fresh pages
    ServiceStats S0 = Svc.stats();
    double WarmSecs = submitAll(Svc, Batch); // recycled pages
    ServiceStats S1 = Svc.stats();

    uint64_t WarmHits = S1.PoolAcquireHits - S0.PoolAcquireHits;
    uint64_t WarmMisses = S1.PoolAcquireMisses - S0.PoolAcquireMisses;
    double Reused = WarmHits + WarmMisses
                        ? 100.0 * WarmHits / (WarmHits + WarmMisses)
                        : 0.0;
    // Contention figure of merit: the v2 pool's home-shard fast path is
    // lock-free, so mutex acquisitions per request (steal scans and
    // trims only) should sit far below the pages-per-request rate that
    // the v1 single-mutex pool paid.
    double LocksPerReq =
        static_cast<double>(S1.PoolLockAcquires) / (2.0 * Batch.size());
    std::printf("%-8u %12.1f %12.1f %13.1f%% %12llu %10.2f %8llu\n", Workers,
                Batch.size() / ColdSecs, Batch.size() / WarmSecs, Reused,
                static_cast<unsigned long long>(S1.PoolFreePages), LocksPerReq,
                static_cast<unsigned long long>(S1.PoolSteals));
  }
}

/// The persistent tier's value: a cold *process* (empty memory cache,
/// empty directory) pays the full compile for every request and writes
/// through; a second cold process pointed at the same directory serves
/// the whole batch from disk without compiling. Both services start
/// with an empty memory tier, so the delta is purely the disk tier.
void diskTierTable() {
  namespace fs = std::filesystem;
  const std::vector<Request> Batch = buildBatch();
  fs::path Dir = fs::temp_directory_path() / "rml_bench_disk_cache";
  fs::remove_all(Dir);

  std::printf("\npersistent disk tier (fresh process each row, shared "
              "--cache-dir, %zu compile requests)\n",
              Batch.size());
  std::printf("%-8s %14s %18s %12s %11s\n", "workers", "cold-dir req/s",
              "warm-dir req/s", "disk hits", "speedup");

  for (unsigned Workers : {1u, 4u, 8u}) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.QueueCapacity = Batch.size();
    Cfg.CacheCapacity = 2 * Batch.size();
    Cfg.CacheDir = Dir.string();

    fs::remove_all(Dir);
    double ColdSecs, WarmSecs;
    uint64_t DiskHits;
    {
      Service Cold(Cfg); // empty directory: misses + write-through
      ColdSecs = submitAll(Cold, Batch);
    }
    {
      Service Warm(Cfg); // fresh memory tier, populated directory
      WarmSecs = submitAll(Warm, Batch);
      DiskHits = Warm.stats().DiskHits;
    }
    std::printf("%-8u %14.1f %18.1f %9llu/%zu %10.1fx\n", Workers,
                Batch.size() / ColdSecs, Batch.size() / WarmSecs,
                static_cast<unsigned long long>(DiskHits), Batch.size(),
                ColdSecs / WarmSecs);
  }
  fs::remove_all(Dir);
}

/// The flat runnable artifacts' value: the same fresh-process pair, but
/// with Run = true. The warm process executes every request straight
/// from the disk entries' embedded flat units — zero compile phases —
/// so its advantage is the whole static pipeline, paid only by the cold
/// row.
void diskRunTable() {
  namespace fs = std::filesystem;
  const std::vector<Request> Batch = buildRunBatch();
  fs::path Dir = fs::temp_directory_path() / "rml_bench_disk_run";
  fs::remove_all(Dir);

  std::printf("\npersistent disk tier, Run = true (fresh process each row, "
              "shared --cache-dir, %zu run requests)\n",
              Batch.size());
  std::printf("%-8s %14s %18s %12s %11s\n", "workers", "cold-dir req/s",
              "warm-dir req/s", "disk hits", "speedup");

  for (unsigned Workers : {1u, 4u, 8u}) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.QueueCapacity = Batch.size();
    Cfg.CacheCapacity = 2 * Batch.size();
    Cfg.CacheDir = Dir.string();

    fs::remove_all(Dir);
    double ColdSecs, WarmSecs;
    uint64_t DiskHits;
    {
      Service Cold(Cfg); // empty directory: full compiles + runs
      ColdSecs = submitAll(Cold, Batch);
    }
    {
      Service Warm(Cfg); // fresh memory tier: flat units from disk + runs
      WarmSecs = submitAll(Warm, Batch);
      DiskHits = Warm.stats().DiskHits;
    }
    std::printf("%-8u %14.1f %18.1f %9llu/%zu %10.1fx\n", Workers,
                Batch.size() / ColdSecs, Batch.size() / WarmSecs,
                static_cast<unsigned long long>(DiskHits), Batch.size(),
                ColdSecs / WarmSecs);
  }
  fs::remove_all(Dir);
}

/// Where the time goes, per pipeline phase: the cold batch pays every
/// static phase plus the run; the warm (cached) batch re-pays only the
/// runtime phase — skipped cache-hit profiles carry no nanos, so the
/// warm column shows the static pipeline vanishing.
void phaseBreakdownTable() {
  const std::vector<Request> Batch = buildRunBatch();
  ServiceConfig Cfg;
  Cfg.Workers = 4;
  Cfg.QueueCapacity = Batch.size();
  Cfg.CacheCapacity = 2 * Batch.size();
  Service Svc(Cfg);

  submitAll(Svc, Batch); // cold: every request compiles
  ServiceStats S0 = Svc.stats();
  submitAll(Svc, Batch); // warm: every request hits the cache
  ServiceStats S1 = Svc.stats();

  std::printf("\nphase breakdown (4 workers, %zu run requests per batch)\n",
              Batch.size());
  std::printf("%-14s %12s %12s\n", "phase", "cold (ms)", "warm (ms)");
  uint64_t ColdTotal = 0, WarmTotal = 0;
  for (size_t I = 0; I < S1.Phases.size(); ++I) {
    uint64_t Cold = S0.Phases[I].SumNanos;
    uint64_t Warm = S1.Phases[I].SumNanos - Cold;
    ColdTotal += Cold;
    WarmTotal += Warm;
    std::printf("%-14s %12.3f %12.3f\n", S1.Phases[I].Name.c_str(),
                Cold / 1e6, Warm / 1e6);
  }
  std::printf("%-14s %12.3f %12.3f\n", "total", ColdTotal / 1e6,
              WarmTotal / 1e6);
}

/// One program of the heterogeneous corpus. Weight scales the number of
/// `work` bindings, so both the source length (the Ljf cost key) and
/// the runtime cost grow with it — the correlation Ljf banks on.
std::string gradedProgram(unsigned Weight) {
  std::string S = "fun run u =\n  let val w0 = work 100000\n";
  for (unsigned I = 1; I < Weight; ++I)
    S += "      val w" + std::to_string(I) + " = work 100000\n";
  S += "  in " + std::to_string(Weight) + " end\n;run ()\n";
  return S;
}

/// 15 light + 5 heavy run requests for an 8-worker service, heavies at
/// every 4th position (the last one at the end of the batch). This is
/// the regime where dequeue order moves the tail: under FIFO each
/// heavy starts only when its turn in the arrival order comes up, so
/// the late heavies are still running after everything else has
/// drained and the end of the schedule is ragged; Ljf front-loads all
/// five onto the 8 workers and back-fills with the light jobs, so the
/// workers go idle together. List-schedule simulation of this shape
/// puts Ljf's p95 at ~0.7-0.8x of FIFO's across cost jitter.
std::vector<Request> buildHeterogeneousBatch() {
  std::vector<Request> Batch;
  for (unsigned I = 0; I < 20; ++I) {
    Request Req;
    Req.Source = gradedProgram(I % 4 == 3 ? 5 : 1);
    Req.Run = true;
    Req.EvalOpts.GcThresholdWords = 8 * 1024;
    Batch.push_back(std::move(Req));
  }
  return Batch;
}

/// Replays the batch through a bare Scheduler to obtain the dequeue
/// order the service would use under \p Policy (cost keys stamped the
/// way Service::enqueue stamps them: source length, submission seq).
std::vector<size_t> dequeueOrder(SchedPolicy Policy,
                                 const std::vector<Request> &Batch) {
  std::unique_ptr<Scheduler> Sched = makeScheduler(Policy);
  for (size_t I = 0; I < Batch.size(); ++I) {
    ScheduledJob J;
    J.Req = Batch[I];
    J.CostKey = J.Req.Source.size();
    J.Seq = I;
    Sched->push(std::move(J));
  }
  std::vector<size_t> Order;
  while (!Sched->empty())
    Order.push_back(static_cast<size_t>(Sched->pop().Seq));
  return Order;
}

/// Ideal m-worker list schedule over serially measured costs: each job
/// in dequeue order starts on the earliest-free worker. This is what
/// the wall-clock table converges to once the host has >= m real
/// cores; deriving it from serial timings keeps the policy comparison
/// meaningful on small hosts where the workers time-share.
std::vector<double> modelCompletion(const std::vector<size_t> &Order,
                                    const std::vector<double> &CostMs,
                                    unsigned Workers) {
  std::vector<double> Free(Workers, 0.0);
  std::vector<double> Completion(CostMs.size(), 0.0);
  for (size_t Idx : Order) {
    auto Slot = std::min_element(Free.begin(), Free.end());
    *Slot += CostMs[Idx];
    Completion[Idx] = *Slot;
  }
  return Completion;
}

/// Sorted-vector percentile (nearest-rank on the closed interval).
double percentile(const std::vector<double> &Sorted, double Q) {
  size_t Idx = static_cast<size_t>(
      std::llround(Q * static_cast<double>(Sorted.size() - 1)));
  return Sorted[Idx];
}

struct LatencyResult {
  double P50Ms = 0, P95Ms = 0, P99Ms = 0, MaxMs = 0;
  std::vector<std::string> Results; // per-request ResultText
};

/// Submits the whole batch at t=0 through the callback API and measures
/// per-request completion latency under \p Policy.
LatencyResult measureLatency(SchedPolicy Policy,
                             const std::vector<Request> &Batch) {
  ServiceConfig Cfg;
  Cfg.Workers = 8;
  Cfg.QueueCapacity = Batch.size();
  Cfg.CacheCapacity = 2 * Batch.size();
  Cfg.Policy = Policy;
  Service Svc(Cfg);

  LatencyResult Out;
  Out.Results.resize(Batch.size());
  std::vector<uint64_t> EndNanos(Batch.size(), 0);
  std::atomic<size_t> Done{0};
  uint64_t T0 = traceNowNanos();
  for (size_t I = 0; I < Batch.size(); ++I)
    Svc.submit(Batch[I], [&, I](Response R) {
      // Runs on the worker thread; each callback owns its own slot.
      EndNanos[I] = traceNowNanos();
      Out.Results[I] = std::move(R.ResultText);
      Done.fetch_add(1, std::memory_order_release);
    });
  while (Done.load(std::memory_order_acquire) < Batch.size())
    std::this_thread::yield();

  std::vector<double> LatMs;
  LatMs.reserve(Batch.size());
  for (uint64_t End : EndNanos)
    LatMs.push_back((End - T0) / 1e6);
  std::sort(LatMs.begin(), LatMs.end());
  Out.P50Ms = percentile(LatMs, 0.50);
  Out.P95Ms = percentile(LatMs, 0.95);
  Out.P99Ms = percentile(LatMs, 0.99);
  Out.MaxMs = LatMs.back();
  return Out;
}

/// The tail-latency claim, measured: p50/p95/p99 per scheduler policy
/// over the heterogeneous corpus, plus a response-identity check (the
/// dequeue order must never change what a request computes).
void latencyTable() {
  const std::vector<Request> Batch = buildHeterogeneousBatch();
  std::printf("\nlatency by scheduler (8 workers, %zu mixed requests: "
              "15 light + 5 heavy)\n",
              Batch.size());
  std::printf("%-8s %12s %12s %12s %12s\n", "policy", "p50 (ms)", "p95 (ms)",
              "p99 (ms)", "max (ms)");

  LatencyResult Fifo = measureLatency(SchedPolicy::Fifo, Batch);
  LatencyResult Ljf = measureLatency(SchedPolicy::Ljf, Batch);
  std::printf("%-8s %12.2f %12.2f %12.2f %12.2f\n", "fifo", Fifo.P50Ms,
              Fifo.P95Ms, Fifo.P99Ms, Fifo.MaxMs);
  std::printf("%-8s %12.2f %12.2f %12.2f %12.2f\n", "ljf", Ljf.P50Ms,
              Ljf.P95Ms, Ljf.P99Ms, Ljf.MaxMs);
  std::printf("ljf p95 %.2fx of fifo; responses %s\n",
              Fifo.P95Ms > 0 ? Ljf.P95Ms / Fifo.P95Ms : 0.0,
              Fifo.Results == Ljf.Results ? "identical" : "DIFFER (bug!)");
  if (std::thread::hardware_concurrency() < 8)
    std::printf("(note: %u hardware thread(s) — the 8 workers time-share, "
                "which narrows the gap between the policies)\n",
                std::thread::hardware_concurrency());

  // Deterministic counterpart: serially measured per-request cost (one
  // worker, so no core sharing skews the timings) replayed through an
  // ideal 4-worker schedule under each policy's dequeue order.
  ServiceConfig SerialCfg;
  SerialCfg.Workers = 1;
  SerialCfg.QueueCapacity = Batch.size();
  SerialCfg.CacheCapacity = 2 * Batch.size();
  Service Serial(SerialCfg);
  std::vector<double> CostMs;
  for (const Request &Req : Batch) {
    Response R = Serial.submit(Req).get();
    double Ms = 0;
    for (const PhaseProfile &P : R.Profiles)
      if (!P.Skipped)
        Ms += P.WallNanos / 1e6;
    CostMs.push_back(Ms);
  }

  std::printf("\nmodeled on 8 dedicated cores (serial costs, list "
              "schedule)\n");
  std::printf("%-8s %12s %12s %12s %12s\n", "policy", "p50 (ms)", "p95 (ms)",
              "p99 (ms)", "max (ms)");
  double ModelP95[2] = {0, 0};
  const SchedPolicy Policies[2] = {SchedPolicy::Fifo, SchedPolicy::Ljf};
  for (int K = 0; K < 2; ++K) {
    std::vector<double> C =
        modelCompletion(dequeueOrder(Policies[K], Batch), CostMs, 8);
    std::sort(C.begin(), C.end());
    ModelP95[K] = percentile(C, 0.95);
    std::printf("%-8s %12.2f %12.2f %12.2f %12.2f\n",
                schedPolicyName(Policies[K]), percentile(C, 0.50),
                ModelP95[K], percentile(C, 0.99), C.back());
  }
  std::printf("ljf modeled p95 %.2fx of fifo\n",
              ModelP95[0] > 0 ? ModelP95[1] / ModelP95[0] : 0.0);
}

/// The learned cost model's convergence, replayed: before each pass the
/// table records what the model *would* predict for every request, the
/// pass then runs (cache disabled, so each completion feeds a full-cost
/// observation), and the row reports the mean relative error of those
/// predictions. Ground truth for a request is its mean measured cost
/// across all passes — a single run's wall time carries a few percent
/// of scheduler noise, and judging pass N against pass N's own noise
/// would hide the EWMA's variance reduction. Pass 1 predicts from the
/// bootstrap prior (bytes — ordinally useful, dimensionally wrong,
/// hence the ~100% error); pass 2 predicts from one observation; pass
/// 4 from the EWMA of three. The error must shrink down the rows.
void costModelReplayTable() {
  const std::vector<Request> Batch = buildHeterogeneousBatch();
  ServiceConfig Cfg;
  Cfg.Workers = 1; // serial: per-request costs are not core-shared
  Cfg.QueueCapacity = Batch.size();
  Cfg.CacheCapacity = 0; // every pass recompiles at full cost
  Service Svc(Cfg);

  const int Passes = 4;
  std::vector<std::vector<CostModel::Prediction>> Preds(Passes);
  std::vector<double> MeanActual(Batch.size(), 0);
  for (int Pass = 0; Pass < Passes; ++Pass) {
    Preds[Pass].reserve(Batch.size());
    for (const Request &Req : Batch)
      Preds[Pass].push_back(Svc.costModel().predict(
          hashCompileInputs(Req.Source, Req.Opts), Req.Source.size()));
    for (size_t I = 0; I < Batch.size(); ++I) {
      Response R = Svc.submit(Batch[I]).get();
      double ActualNanos = 0;
      for (const PhaseProfile &P : R.Profiles)
        if (!P.Skipped)
          ActualNanos += static_cast<double>(P.WallNanos);
      MeanActual[I] += ActualNanos / Passes;
    }
  }

  std::printf("\ncost model replay (1 worker, cache disabled, %zu run "
              "requests per pass)\n",
              Batch.size());
  std::printf("%-6s %22s %20s\n", "pass", "mean |pred-act|/act",
              "prior-based preds");
  double PrevErr = 0;
  bool Monotone = true;
  for (int Pass : {1, 2, 4}) {
    double ErrSum = 0;
    size_t PriorPreds = 0;
    for (size_t I = 0; I < Batch.size(); ++I) {
      const CostModel::Prediction &P = Preds[Pass - 1][I];
      if (MeanActual[I] > 0)
        ErrSum += std::abs(static_cast<double>(P.Nanos) - MeanActual[I]) /
                  MeanActual[I];
      if (P.FromPrior)
        ++PriorPreds;
    }
    double MeanErr = 100.0 * ErrSum / static_cast<double>(Batch.size());
    std::printf("%-6d %21.1f%% %17zu/%zu\n", Pass, MeanErr, PriorPreds,
                Batch.size());
    if (Pass > 1 && MeanErr > PrevErr)
      Monotone = false;
    PrevErr = MeanErr;
  }
  std::printf("prediction error %s over passes 1/2/4\n",
              Monotone ? "shrinks monotonically"
                       : "did NOT shrink monotonically (timing noise?)");
}

/// Figure-9-style capture-tracking counts per corpus program: closure
/// count, distinct captured region variables, and the escaped residue
/// (value-captured regions missing from the latent effect) under rg and
/// rg-. The capture sets are a static product of the shared region
/// inference, so the two strategy columns agree — what differs is what
/// the number means: rg's containment side conditions pin every escaped
/// region's letregion outside the closure's lifetime, while under rg-
/// the same (closure, region) pairs are exactly the dangling-pointer
/// window the paper closes (the figure1 demo dies tracing into one).
void captureTable() {
  struct Counts {
    size_t Closures = 0, Regions = 0, Escaped = 0;
  };
  auto countsOf = [](const std::string &Source, Strategy S) {
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = S;
    Opts.Captures = true;
    auto Unit = C.compile(Source, Opts);
    Counts N;
    if (!Unit || !Unit->Captures)
      return N;
    std::set<uint32_t> Distinct;
    for (const ClosureCapture &CC : Unit->Captures->Closures) {
      ++N.Closures;
      Distinct.insert(CC.ViaValue.begin(), CC.ViaValue.end());
      Distinct.insert(CC.ViaEffect.begin(), CC.ViaEffect.end());
      std::vector<uint32_t> Residue;
      std::set_difference(CC.ViaValue.begin(), CC.ViaValue.end(),
                          CC.ViaEffect.begin(), CC.ViaEffect.end(),
                          std::back_inserter(Residue));
      N.Escaped += Residue.size();
    }
    N.Regions = Distinct.size();
    return N;
  };

  std::printf("\ncapture tracking (closures, captured region variables, "
              "escaped = value \\ latent)\n");
  std::printf("%-12s %9s %12s %12s %12s\n", "program", "closures",
              "regions(rg)", "escaped(rg)", "escaped(rg-)");
  for (const bench::BenchProgram &P : bench::benchmarkSuite()) {
    Counts Rg = countsOf(P.Source, Strategy::Rg);
    Counts RgMinus = countsOf(P.Source, Strategy::RgMinus);
    std::printf("%-12s %9zu %12zu %12zu %12zu\n", P.Name.c_str(),
                Rg.Closures, Rg.Regions, Rg.Escaped, RgMinus.Escaped);
  }
}

} // namespace

int main() {
  const std::vector<Request> Batch = buildBatch();
  std::printf("service throughput, %zu compile requests per batch "
              "(%zu programs x 12 option variants)\n",
              Batch.size(), bench::benchmarkSuite().size());
  std::printf("%-8s %12s %12s %12s %9s\n", "workers", "cold req/s",
              "warm req/s", "warm/cold", "hit rate");

  double Cold1 = 0, ColdBest = 0;
  for (unsigned Workers : {1u, 4u, 8u}) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.QueueCapacity = Batch.size(); // no producer-side stalls
    Cfg.CacheCapacity = 2 * Batch.size();
    Service Svc(Cfg);

    double ColdSecs = submitAll(Svc, Batch); // all misses
    double WarmSecs = submitAll(Svc, Batch); // all hits

    ServiceStats S = Svc.stats();
    double ColdRate = Batch.size() / ColdSecs;
    double WarmRate = Batch.size() / WarmSecs;
    std::printf("%-8u %12.1f %12.1f %11.1fx %8.1f%%\n", Workers, ColdRate,
                WarmRate, WarmRate / ColdRate,
                100.0 * S.CacheHits / (S.CacheHits + S.CacheMisses));
    if (Workers == 1)
      Cold1 = ColdRate;
    if (ColdRate > ColdBest)
      ColdBest = ColdRate;
  }

  std::printf("\ncold scaling best/1-worker: %.2fx (hardware threads: %u)\n",
              Cold1 > 0 ? ColdBest / Cold1 : 0.0,
              std::thread::hardware_concurrency());

  runModeTable();
  diskTierTable();
  diskRunTable();
  phaseBreakdownTable();
  latencyTable();
  costModelReplayTable();
  captureTable();
  return 0;
}
