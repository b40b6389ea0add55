//===- tests/service_test.cpp - Service-layer concurrency tests -----------===//
//
// The concurrent compile-and-run service: thread-safety of independent
// Compilers, arena behaviour under reuse, the content-addressed LRU
// compile cache, and the thread-pool service end to end (mixed batches,
// backpressure, statistics). Labelled `service` in ctest and expected to
// be clean under -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "bench/Programs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

using namespace rml;
using namespace rml::service;

namespace {

/// A service configuration with the three sizes most tests vary; every
/// other field keeps its default.
ServiceConfig config(unsigned Workers, size_t QueueCapacity,
                     size_t CacheCapacity) {
  ServiceConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.QueueCapacity = QueueCapacity;
  Cfg.CacheCapacity = CacheCapacity;
  return Cfg;
}

/// A small program exercising the interesting machinery — polymorphic
/// closures, letregion placement and enough allocation to trigger GC —
/// while staying fast under ThreadSanitizer.
const char *ComposeProgram = R"(
fun compose fg = fn x => #1 fg (#2 fg x)
fun iter n acc =
  if n = 0 then acc
  else let val h = compose (fn x => x + 1, fn x => x * 2)
       in iter (n - 1) acc + h n - h n end
;iter 600 21
)";

//===----------------------------------------------------------------------===//
// Satellite: two Compilers on different threads share no mutable state.
//===----------------------------------------------------------------------===//

TEST(CompilerThreading, EightCompilersBitIdentical) {
  // Baseline on the main thread.
  Compiler Base;
  auto BaseUnit = Base.compile(ComposeProgram);
  ASSERT_NE(BaseUnit, nullptr) << Base.diagnostics().str();
  std::string BasePrinted = Base.printProgram(*BaseUnit);
  rt::EvalOptions Eval;
  Eval.GcThresholdWords = 2048; // force several collections
  rt::RunResult BaseRun = Base.run(*BaseUnit, Eval);
  ASSERT_EQ(BaseRun.Outcome, rt::RunOutcome::Ok) << BaseRun.Error;

  constexpr int N = 8;
  std::string Printed[N];
  uint64_t AllocWords[N];
  std::string Results[N];
  std::atomic<int> Failures{0};

  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Compiler C;
      auto Unit = C.compile(ComposeProgram);
      if (!Unit) {
        ++Failures;
        return;
      }
      Printed[I] = C.printProgram(*Unit);
      rt::EvalOptions E;
      E.GcThresholdWords = 2048;
      rt::RunResult R = C.run(*Unit, E);
      if (R.Outcome != rt::RunOutcome::Ok) {
        ++Failures;
        return;
      }
      AllocWords[I] = R.Heap.AllocWords;
      Results[I] = R.ResultText;
    });
  for (std::thread &T : Threads)
    T.join();

  ASSERT_EQ(Failures.load(), 0);
  for (int I = 0; I < N; ++I) {
    EXPECT_EQ(Printed[I], BasePrinted) << "thread " << I;
    EXPECT_EQ(AllocWords[I], BaseRun.Heap.AllocWords) << "thread " << I;
    EXPECT_EQ(Results[I], BaseRun.ResultText) << "thread " << I;
  }
}

TEST(CompilerThreading, SharedUnitConcurrentRuns) {
  // One frozen compilation, many concurrent read-only runs.
  CachedCompileRef CC = compileShared(ComposeProgram, CompileOptions{});
  ASSERT_TRUE(CC->ok()) << CC->Diagnostics;

  rt::EvalOptions Eval;
  Eval.GcThresholdWords = 2048;
  rt::RunResult Base = CC->run(Eval);
  ASSERT_EQ(Base.Outcome, rt::RunOutcome::Ok) << Base.Error;

  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < 8; ++I)
    Threads.emplace_back([&] {
      rt::EvalOptions E;
      E.GcThresholdWords = 2048;
      rt::RunResult R = CC->run(E);
      if (R.Outcome != rt::RunOutcome::Ok ||
          R.ResultText != Base.ResultText ||
          R.Heap.AllocWords != Base.Heap.AllocWords)
        ++Mismatches;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

//===----------------------------------------------------------------------===//
// Satellite: one Compiler across many requests.
//===----------------------------------------------------------------------===//

TEST(CompilerReuse, HundredProgramsOneInstance) {
  Compiler C;
  std::vector<std::unique_ptr<CompiledUnit>> Keep;
  std::vector<size_t> Totals;
  for (int I = 0; I < 100; ++I) {
    auto Unit = C.compile(ComposeProgram);
    ASSERT_NE(Unit, nullptr) << "compile " << I << ":\n"
                             << C.diagnostics().str();
    EXPECT_FALSE(C.diagnostics().hasErrors());
    if (I % 10 == 0)
      Keep.push_back(std::move(Unit)); // earlier units must stay valid
    Totals.push_back(C.arenaFootprint().total());
  }

  // Arena growth is linear: after the first compile (which also builds
  // the hash-consed ground-type singletons) every compile of the same
  // source adds exactly the same number of nodes.
  size_t Delta = Totals[2] - Totals[1];
  EXPECT_GT(Delta, 0u);
  for (size_t I = 2; I + 1 < Totals.size(); ++I)
    EXPECT_EQ(Totals[I + 1] - Totals[I], Delta) << "compile " << I + 1;

  // Units kept from earlier compiles are still valid and runnable.
  rt::RunResult First = C.run(*Keep.front());
  rt::RunResult Last = C.run(*Keep.back());
  ASSERT_EQ(First.Outcome, rt::RunOutcome::Ok) << First.Error;
  ASSERT_EQ(Last.Outcome, rt::RunOutcome::Ok) << Last.Error;
  EXPECT_EQ(First.ResultText, Last.ResultText);
  EXPECT_EQ(First.Heap.AllocWords, Last.Heap.AllocWords);
}

TEST(CompilerReuse, CompileAndRunConvenience) {
  Compiler C;
  CompileAndRunResult R = C.compileAndRun("1 + 2 * 3");
  ASSERT_TRUE(R.ok()) << C.diagnostics().str();
  EXPECT_EQ(R.Run.ResultText, "7");

  CompileAndRunResult Bad = C.compileAndRun("nosuchvar + 1");
  EXPECT_EQ(Bad.Unit, nullptr);
  EXPECT_FALSE(Bad.ok());
  EXPECT_NE(C.diagnostics().str().find("unbound variable 'nosuchvar'"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Satellite: the LRU compile cache.
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, CapacityEvictionOrderWithinAShard) {
  // One LRU with room for three: a fourth key evicts the least recently
  // used entry, whichever keys are involved.
  CompileCache Cache(3);
  CompileOptions Opts;
  std::vector<std::string> Src = {"1", "2", "3", "4"};
  CacheKey K1 = CacheKey::of(Src[0], Opts), K2 = CacheKey::of(Src[1], Opts),
           K3 = CacheKey::of(Src[2], Opts), K4 = CacheKey::of(Src[3], Opts);

  Cache.insert(K1, compileShared(Src[0], Opts));
  Cache.insert(K2, compileShared(Src[1], Opts));
  Cache.insert(K3, compileShared(Src[2], Opts));
  EXPECT_EQ(Cache.size(), 3u);
  // Recency is front-first: K3, K2, K1.
  EXPECT_EQ(Cache.recencyHashes(),
            (std::vector<uint64_t>{K3.Hash, K2.Hash, K1.Hash}));

  // Touching K1 promotes it, so K2 is now least recently used...
  EXPECT_NE(Cache.lookup(K1), nullptr);
  EXPECT_EQ(Cache.recencyHashes(),
            (std::vector<uint64_t>{K1.Hash, K3.Hash, K2.Hash}));
  // ...and inserting a fourth entry evicts K2, not K1.
  Cache.insert(K4, compileShared(Src[3], Opts));
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.lookup(K2), nullptr);
  EXPECT_NE(Cache.lookup(K1), nullptr);
  EXPECT_NE(Cache.lookup(K3), nullptr);
  EXPECT_NE(Cache.lookup(K4), nullptr);

  CompileCache::Counters C = Cache.counters();
  EXPECT_EQ(C.Insertions, 4u);
  EXPECT_EQ(C.Evictions, 1u);
  EXPECT_EQ(C.Hits, 4u);   // K1, K1, K3, K4
  EXPECT_EQ(C.Misses, 1u); // K2 after eviction
}

TEST(CompileCacheTest, HoldsExactlyItsCapacity) {
  // --cache N means N entries: 64 distinct keys through a 4-entry cache
  // leave exactly the last four, newest first.
  CompileCache Cache(4);
  CompileOptions Opts;
  CachedCompileRef Value = compileShared("0", Opts);
  std::vector<uint64_t> Hashes;
  for (int I = 0; I < 64; ++I) {
    CacheKey K = CacheKey::of(std::to_string(I), Opts);
    Hashes.push_back(K.Hash);
    Cache.insert(K, Value);
    EXPECT_LE(Cache.size(), 4u) << "after insert " << I;
  }
  EXPECT_EQ(Cache.size(), 4u);
  EXPECT_EQ(Cache.recencyHashes(),
            (std::vector<uint64_t>{Hashes[63], Hashes[62], Hashes[61],
                                   Hashes[60]}));
  EXPECT_EQ(Cache.counters().Evictions, 60u);
}

TEST(CompileCacheTest, ShardedStressUnderContention) {
  // Eight threads hammer one cache with overlapping keys and an entry
  // bound tight enough to keep evicting. TSan-checked; afterwards the
  // invariants must hold.
  CompileOptions Opts;
  // Room for 8 entries: a 24-key space keeps evicting.
  CompileCache Cache(8);

  constexpr int Threads = 8, Iters = 120, KeySpace = 24;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I < Iters; ++I) {
        std::string S = std::to_string((T * 7 + I) % KeySpace);
        CacheKey K = CacheKey::of(S, Opts);
        CachedCompileRef CC = Cache.lookup(K);
        if (!CC) {
          CC = compileShared(S, Opts);
          Cache.insert(K, CC);
        }
        if (!CC || !CC->ok())
          ++Failures;
      }
    });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_LE(Cache.size(), Cache.capacity());
  CompileCache::Counters C = Cache.counters();
  EXPECT_EQ(C.Hits + C.Misses, uint64_t(Threads) * Iters);
  EXPECT_GE(C.Insertions, C.Misses > 0 ? 1u : 0u);
  EXPECT_GT(C.Evictions, 0u);
  // recencyHashes() is consistent after the dust settles: every
  // resident key exactly once.
  std::vector<uint64_t> Order = Cache.recencyHashes();
  EXPECT_EQ(Order.size(), Cache.size());
  std::sort(Order.begin(), Order.end());
  EXPECT_EQ(std::adjacent_find(Order.begin(), Order.end()), Order.end());
}

TEST(CompileCacheTest, OptionsEnterTheKey) {
  CompileOptions Rg, RgMinus, NoCheck;
  RgMinus.Strat = Strategy::RgMinus;
  NoCheck.Check = false;
  EXPECT_NE(CacheKey::of("1", Rg), CacheKey::of("1", RgMinus));
  EXPECT_NE(CacheKey::of("1", Rg), CacheKey::of("1", NoCheck));
  EXPECT_NE(CacheKey::of("1", Rg), CacheKey::of("2", Rg));
  EXPECT_EQ(CacheKey::of("1", Rg), CacheKey::of("1", CompileOptions{}));
}

TEST(CompileCacheTest, ZeroCapacityDisables) {
  CompileCache Cache(0);
  CompileOptions Opts;
  CacheKey K = CacheKey::of("1", Opts);
  Cache.insert(K, compileShared("1", Opts));
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.lookup(K), nullptr);
}

TEST(CompileCacheTest, FailedCompilesAreCachedWithDiagnostics) {
  Service Svc(config(2, 16, 8));
  Request Bad;
  Bad.Source = "nosuchvar + 1";
  Response R1 = Svc.submit(Bad).get();
  Response R2 = Svc.submit(Bad).get();
  EXPECT_FALSE(R1.CompileOk);
  EXPECT_FALSE(R2.CompileOk);
  EXPECT_TRUE(R2.CacheHit);
  EXPECT_EQ(R1.Diagnostics, R2.Diagnostics);
  EXPECT_NE(R1.Diagnostics.find("unbound variable 'nosuchvar'"),
            std::string::npos);
}

/// Cache hits must be semantically identical to cold compiles for real
/// corpus programs under both GC-safe and pre-paper strategies.
class CacheFidelityTest
    : public ::testing::TestWithParam<std::tuple<std::string, Strategy>> {};

TEST_P(CacheFidelityTest, HitMatchesColdCompile) {
  const auto &[Name, Strat] = GetParam();
  const bench::BenchProgram *P = bench::findBenchmark(Name);
  ASSERT_NE(P, nullptr);

  CompileOptions Opts;
  Opts.Strat = Strat;

  // Cold reference on a private compiler.
  Compiler C;
  auto Unit = C.compile(P->Source, Opts);
  ASSERT_NE(Unit, nullptr) << C.diagnostics().str();
  std::string ColdPrinted = C.printProgram(*Unit);
  rt::RunResult Cold = C.run(*Unit);
  ASSERT_EQ(Cold.Outcome, rt::RunOutcome::Ok) << Cold.Error;

  // Same program twice through a one-worker service: miss then hit.
  Service Svc(config(1, 4, 8));
  Request Req;
  Req.Source = P->Source;
  Req.Opts = Opts;
  Response Miss = Svc.submit(Req).get();
  Response Hit = Svc.submit(Req).get();

  ASSERT_TRUE(Miss.CompileOk) << Miss.Diagnostics;
  ASSERT_TRUE(Hit.CompileOk) << Hit.Diagnostics;
  EXPECT_FALSE(Miss.CacheHit);
  EXPECT_TRUE(Hit.CacheHit);
  for (const Response *R : {&Miss, &Hit}) {
    EXPECT_EQ(R->Printed, ColdPrinted) << Name;
    EXPECT_EQ(R->Outcome, rt::RunOutcome::Ok) << Name;
    EXPECT_EQ(R->ResultText, Cold.ResultText) << Name;
    EXPECT_EQ(R->Output, Cold.Output) << Name;
    EXPECT_EQ(R->Heap.AllocWords, Cold.Heap.AllocWords) << Name;
    EXPECT_EQ(R->Steps, Cold.Steps) << Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CacheFidelityTest,
    ::testing::Combine(::testing::Values("fib", "nrev", "strings", "refs",
                                         "hof"),
                       ::testing::Values(Strategy::Rg, Strategy::RgMinus)),
    [](const auto &Info) {
      return std::get<0>(Info.param) +
             (std::get<1>(Info.param) == Strategy::Rg ? "_rg" : "_rgminus");
    });

//===----------------------------------------------------------------------===//
// Tentpole: the service end to end.
//===----------------------------------------------------------------------===//

TEST(ServiceTest, MixedBatchEightWorkersNoCrossContamination) {
  Service Svc(config(8, 64, 64));

  // 60 requests: i % 3 == 2 is ill-typed with a request-unique unbound
  // variable; the rest compute a request-unique value. Every 10th
  // request duplicates request 0 to exercise concurrent cache hits.
  constexpr int N = 60;
  std::vector<std::future<Response>> Futures;
  std::vector<int> Kind(N); // 0 = duplicate, 1 = unique ok, 2 = ill-typed
  for (int I = 0; I < N; ++I) {
    Request Req;
    if (I > 0 && I % 10 == 0) {
      Kind[I] = 0;
      Req.Source = "1 + 0";
    } else if (I % 3 == 2) {
      Kind[I] = 2;
      Req.Source = "nosuchvar" + std::to_string(I) + " + 1";
    } else {
      Kind[I] = 1;
      Req.Source = "1 + " + std::to_string(I);
    }
    if (I == 0)
      Req.Source = "1 + 0";
    Futures.push_back(Svc.submit(std::move(Req)));
  }

  for (int I = 0; I < N; ++I) {
    Response R = Futures[I].get();
    if (Kind[I] == 2) {
      EXPECT_FALSE(R.CompileOk) << "request " << I;
      // The diagnostic names THIS request's variable — routed to the
      // right response, not another request's.
      EXPECT_NE(R.Diagnostics.find("nosuchvar" + std::to_string(I)),
                std::string::npos)
          << "request " << I << " got: " << R.Diagnostics;
      EXPECT_FALSE(R.Ran);
    } else {
      ASSERT_TRUE(R.CompileOk) << "request " << I << ": " << R.Diagnostics;
      EXPECT_TRUE(R.Diagnostics.empty()) << "request " << I;
      ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
      int Expected = Kind[I] == 0 ? 1 : 1 + I;
      EXPECT_EQ(R.ResultText, std::to_string(Expected)) << "request " << I;
    }
  }

  uint64_t IllTyped = static_cast<uint64_t>(
      std::count(Kind.begin(), Kind.end(), 2));
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Submitted, static_cast<uint64_t>(N));
  EXPECT_EQ(S.Completed, static_cast<uint64_t>(N));
  EXPECT_EQ(S.CacheHits + S.CacheMisses, static_cast<uint64_t>(N));
  EXPECT_GE(S.CacheHits, 1u); // the duplicates
  EXPECT_EQ(S.CompileErrors, IllTyped);
  EXPECT_EQ(S.RunsOk, N - IllTyped);
  EXPECT_EQ(S.QueueDepth, 0u);
}

TEST(ServiceTest, SchemeRenderings) {
  Service Svc(config(2, 8, 8));
  Request Req;
  Req.Source = R"(
fun compose fg = fn x => #1 fg (#2 fg x)
val h = compose (fn x => x + 1, fn x => x * 2)
;h 20
)";
  Req.SchemeNames = {"compose", "nosuchfun"};
  Response R = Svc.submit(std::move(Req)).get();
  ASSERT_TRUE(R.CompileOk) << R.Diagnostics;
  ASSERT_EQ(R.Schemes.size(), 2u);
  EXPECT_EQ(R.Schemes[0].first, "compose");
  EXPECT_NE(R.Schemes[0].second.find("forall"), std::string::npos);
  EXPECT_EQ(R.Schemes[1].second, "");
  EXPECT_EQ(R.ResultText, "41");
}

TEST(ServiceTest, BackpressureBoundedQueue) {
  Service Svc(config(2, 4, 0));
  std::vector<std::future<Response>> Futures;
  for (int I = 0; I < 40; ++I) {
    Request Req;
    Req.Source = "1 + " + std::to_string(I);
    Futures.push_back(Svc.submit(std::move(Req))); // blocks when full
  }
  for (int I = 0; I < 40; ++I) {
    Response R = Futures[I].get();
    ASSERT_TRUE(R.CompileOk) << R.Diagnostics;
    EXPECT_EQ(R.ResultText, std::to_string(1 + I));
  }
  ServiceStats S = Svc.stats();
  EXPECT_LE(S.QueueHighWater, 4u);
  EXPECT_EQ(S.CacheMisses, 40u); // capacity 0: caching disabled
  EXPECT_EQ(S.CacheHits, 0u);
}

TEST(ServiceTest, ShutdownDrainsThenRejects) {
  Service Svc(config(2, 16, 8));
  std::vector<std::future<Response>> Futures;
  for (int I = 0; I < 8; ++I) {
    Request Req;
    Req.Source = "2 * " + std::to_string(I);
    Futures.push_back(Svc.submit(std::move(Req)));
  }
  Svc.shutdown(); // drains the queue, joins workers
  for (int I = 0; I < 8; ++I) {
    Response R = Futures[I].get();
    ASSERT_TRUE(R.CompileOk) << R.Diagnostics; // submitted-before: served
    EXPECT_EQ(R.ResultText, std::to_string(2 * I));
  }
  Response Late = Svc.submit(Request{}).get();
  EXPECT_FALSE(Late.CompileOk);
  EXPECT_NE(Late.Diagnostics.find("shut down"), std::string::npos);
}

TEST(ServiceTest, CallbackSubmitCompletesOnAWorkerThread) {
  Service Svc(config(2, 8, 4));
  std::atomic<bool> Done{false};
  std::string Result;
  std::thread::id CallbackThread;
  Request Req;
  Req.Source = "6 * 7";
  EXPECT_TRUE(Svc.trySubmit(Req, [&](Response R) {
    EXPECT_EQ(R.Status, RequestOutcome::Ok) << R.Diagnostics;
    Result = R.ResultText;
    CallbackThread = std::this_thread::get_id();
    Done.store(true, std::memory_order_release);
  }));
  while (!Done.load(std::memory_order_acquire))
    std::this_thread::yield();
  EXPECT_EQ(Result, "42");
  EXPECT_NE(CallbackThread, std::this_thread::get_id());
  EXPECT_EQ(Svc.stats().Completed, 1u);
}

// Satellite: the saturation gauges. A request parked inside its
// completion callback is still "in flight" (dequeued, not completed);
// the queue depth counts only what is waiting behind it.
TEST(ServiceTest, SaturationGaugesTrackAParkedWorker) {
  Service Svc(config(1, 4, 0));

  std::atomic<bool> Parked{false};
  std::atomic<bool> Release{false};
  Request Blocker;
  Blocker.Source = "1 + 1";
  ASSERT_TRUE(Svc.trySubmit(Blocker, [&](Response) {
    Parked.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
  }));
  while (!Parked.load(std::memory_order_acquire))
    std::this_thread::yield();

  // The only worker is pinned inside the callback: its request has
  // been dequeued but not yet counted complete.
  ServiceStats Busy = Svc.stats();
  EXPECT_EQ(Busy.InFlight, 1u);
  EXPECT_EQ(Busy.QueueDepth, 0u);
  EXPECT_NE(Busy.json().find("\"in_flight\":1"), std::string::npos);

  // A second request queues up behind it.
  Request Queued;
  Queued.Source = "2 + 2";
  std::future<Response> F = Svc.submit(Queued);
  EXPECT_EQ(Svc.stats().QueueDepth, 1u);

  Release.store(true, std::memory_order_release);
  F.get();
  Svc.shutdown(); // join the worker: the gauges settle deterministically
  ServiceStats Idle = Svc.stats();
  EXPECT_EQ(Idle.InFlight, 0u);
  EXPECT_EQ(Idle.QueueDepth, 0u);
  EXPECT_EQ(Idle.Completed, 2u);
}

// Satellite: the non-blocking admission path. A full queue sheds
// instead of blocking — false return, Rejected counter, and the
// callback is never invoked (the caller owns the shed response).
TEST(ServiceTest, TrySubmitCallbackShedsAtFullQueue) {
  Service Svc(config(1, 1, 0));

  std::atomic<bool> Parked{false};
  std::atomic<bool> Release{false};
  Request Blocker;
  Blocker.Source = "1 + 1";
  ASSERT_TRUE(Svc.trySubmit(Blocker, [&](Response) {
    Parked.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
  }));
  while (!Parked.load(std::memory_order_acquire))
    std::this_thread::yield();

  // Fill the queue behind the parked worker, then shed.
  std::atomic<int> Invocations{0};
  Request Fill;
  Fill.Source = "2 + 2";
  EXPECT_TRUE(Svc.trySubmit(Fill, [&](Response) { ++Invocations; }));
  Request Shed;
  Shed.Source = "3 + 3";
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(Svc.trySubmit(Shed, [&](Response) {
      ADD_FAILURE() << "shed callback must never run";
    }));
  EXPECT_EQ(Svc.stats().Rejected, 3u);

  Release.store(true, std::memory_order_release);
  Svc.shutdown(); // drains the admitted request
  EXPECT_EQ(Invocations.load(), 1);
  EXPECT_EQ(Svc.stats().Completed, 2u);
}

TEST(ServiceTest, TrySubmitCallbackAfterShutdownInvokesInline) {
  Service Svc(config(1, 4, 0));
  Svc.shutdown();
  bool Invoked = false;
  std::thread::id CallbackThread;
  Request Req;
  Req.Source = "1 + 1";
  // Admission after shutdown is not a shed: trySubmit returns true and
  // resolves the callback inline with a Shutdown response.
  EXPECT_TRUE(Svc.trySubmit(Req, [&](Response R) {
    EXPECT_EQ(R.Status, RequestOutcome::Shutdown);
    CallbackThread = std::this_thread::get_id();
    Invoked = true;
  }));
  EXPECT_TRUE(Invoked);
  EXPECT_EQ(CallbackThread, std::this_thread::get_id());
  EXPECT_EQ(Svc.stats().ShutdownRejected, 1u);
  EXPECT_EQ(Svc.stats().Rejected, 0u);
}

// Satellite regression: trySubmit racing shutdown(). Every invocation
// that returns true must resolve its callback exactly once — either a
// worker completes it or the stopping path rejects it inline — and the
// counters must account for every admitted request. Before the
// event-loop front door this path did not exist; the race is exactly
// what a draining rmld exercises.
TEST(ServiceTest, CallbackSubmitRacingShutdownAlwaysCompletes) {
  constexpr int Producers = 4;
  constexpr int PerProducer = 24;
  Service Svc(config(2, 4, 4));

  std::atomic<int> Admitted{0};
  std::atomic<int> Sheds{0};
  std::atomic<int> Invocations{0};
  std::atomic<int> ShutdownInline{0};
  std::atomic<bool> Go{false};

  std::vector<std::thread> Threads;
  Threads.reserve(Producers);
  for (int T = 0; T < Producers; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (int I = 0; I < PerProducer; ++I) {
        Request Req;
        Req.Source = "1 + " + std::to_string(T * PerProducer + I);
        bool Ok = Svc.trySubmit(std::move(Req), [&](Response R) {
          ++Invocations;
          if (R.Status == RequestOutcome::Shutdown)
            ++ShutdownInline;
        });
        if (Ok)
          ++Admitted;
        else
          ++Sheds;
      }
    });

  Go.store(true, std::memory_order_release);
  // Shut down while the producers are mid-burst: some requests finish,
  // some reject inline, some shed — none may be dropped or doubled.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Svc.shutdown();
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Admitted + Sheds, Producers * PerProducer);
  // Exactly one callback per admitted request, none for sheds.
  EXPECT_EQ(Invocations.load(), Admitted.load());
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Rejected, static_cast<uint64_t>(Sheds.load()));
  EXPECT_EQ(S.ShutdownRejected,
            static_cast<uint64_t>(ShutdownInline.load()));
  EXPECT_EQ(S.Completed + S.ShutdownRejected,
            static_cast<uint64_t>(Admitted.load()));
  EXPECT_EQ(S.InFlight, 0u);
  EXPECT_EQ(S.QueueDepth, 0u);
}

// Satellite regression: a producer blocked in submit() on a full queue
// must be woken by shutdown() and handed a Shutdown rejection — before
// this fix it waited on NotFull forever (shutdown only notified the
// workers' condition variable).
TEST(ServiceTest, ShutdownWakesProducerBlockedOnFullQueue) {
  Service Svc(config(1, 1, 0));

  // Park the only worker inside a callback so the queue cannot drain.
  std::atomic<bool> Parked{false};
  std::atomic<bool> Release{false};
  Request Blocker;
  Blocker.Source = "0";
  Blocker.Run = false;
  ASSERT_TRUE(Svc.trySubmit(Blocker, [&](Response) {
    Parked.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
  }));
  while (!Parked.load(std::memory_order_acquire))
    std::this_thread::yield();

  // Fill the queue (capacity 1) behind the parked worker...
  Request Queued;
  Queued.Source = "1 + 1";
  std::future<Response> QueuedFuture = Svc.submit(Queued);

  // ...so this submission blocks in submit() on backpressure.
  std::atomic<bool> ProducerReturned{false};
  std::future<Response> BlockedFuture;
  std::thread Producer([&] {
    Request Req;
    Req.Source = "2 + 2";
    BlockedFuture = Svc.submit(Req);
    ProducerReturned.store(true, std::memory_order_release);
  });

  // shutdown() must wake the producer even while the worker stays
  // parked; run it on its own thread because it also joins the workers,
  // which needs the Release below.
  std::thread Stopper([&] { Svc.shutdown(); });
  while (!ProducerReturned.load(std::memory_order_acquire))
    std::this_thread::yield(); // liveness: hangs here without the fix
  Producer.join();
  Release.store(true, std::memory_order_release);
  Stopper.join();

  Response Rejected = BlockedFuture.get();
  EXPECT_EQ(Rejected.Status, RequestOutcome::Shutdown);
  EXPECT_FALSE(Rejected.CompileOk);
  // The request that made it into the queue before shutdown is drained
  // and served normally.
  Response Drained = QueuedFuture.get();
  EXPECT_EQ(Drained.Status, RequestOutcome::Ok) << Drained.Diagnostics;
  EXPECT_EQ(Drained.ResultText, "2");
}

TEST(ServiceTest, StatsJsonShape) {
  Service Svc(config(1, 4, 4));
  Request Req;
  Req.Source = "1 + 1";
  Svc.submit(Req).get();
  Svc.submit(Req).get();
  // The worker decrements the in-flight gauge only after the promise
  // resolves; join the workers so the snapshot is deterministic.
  Svc.shutdown();
  std::string J = Svc.stats().json();
  for (const char *Key :
       {"\"submitted\":2", "\"rejected\":0", "\"completed\":2",
        "\"cache_hits\":1", "\"cache_misses\":1", "\"workers\":1",
        "\"gc_count\":", "\"alloc_words\":", "\"queue_high_water\":",
        "\"queue_depth\":0", "\"in_flight\":0", "\"uptime_seconds\":",
        "\"utilization\":", "\"pool_hits\":", "\"pool_misses\":",
        "\"pool_releases\":", "\"pool_trims\":", "\"pool_free_pages\":",
        "\"pool_capacity\":1024", "\"pool_reuse\":",
        "\"shutdown_rejected\":0",
        "\"internal_errors\":0",
        "\"disk_hits\":0", "\"disk_misses\":0", "\"disk_write_errors\":0",
        "\"disk_load_rejects\":0",
        // "1 + 1" declares nothing, so it has no prefix to look up.
        "\"prefix_hits\":0", "\"prefix_misses\":0",
        "\"prefix_snapshots\":0", "\"prefix_evictions\":0",
        // The cost model saw two admissions of one source: the first
        // prediction fell back to the prior, the second hit the entry
        // the first completion learned.
        "\"cost_model\":{\"entries\":1,\"hits\":1,\"prior_uses\":1",
        "\"prior_per_byte\":",
        "\"sched\":\"fifo\"", "\"phases\":{", "\"flatten\":{\"sum_nanos\":",
        "\"parse\":{\"sum_nanos\":", "\"run\":{\"sum_nanos\":",
        "\"max_nanos\":", "\"count\":",
        // Neither run collected; the pause block still has all four
        // keys (bench_traffic reads them).
        "\"gc_pauses\":{\"pause_count\":0,\"pause_p50_ns\":",
        "\"pause_p99_ns\":", "\"pause_max_ns\":0}"})
    EXPECT_NE(J.find(Key), std::string::npos) << J;
  // The adaptive GC policy's block and counters are gone.
  for (const char *Gone :
       {"gc_policy", "adaptive_runs", "threshold_raises", "threshold_drops",
        "budget_backoffs", "over_budget_pauses", "minors_per_major_raises",
        "minors_per_major_drops", "budget_exceeded"})
    EXPECT_EQ(J.find(Gone), std::string::npos) << Gone << " in " << J;
  // So are the sharded pool's steal, batch and lock counters.
  for (const char *Gone : {"pool_steals", "pool_batch_acquires",
                           "pool_batch_releases", "pool_lock_acquires"})
    EXPECT_EQ(J.find(Gone), std::string::npos) << Gone << " in " << J;
  EXPECT_EQ(J.find('\n'), std::string::npos); // one line
  // The ratio fields render through jsonFixed: six fixed fraction
  // digits, '.' decimal separator, never a bare nan/inf value ("nan"
  // appears inside "sum_nanos", so match the value position).
  EXPECT_EQ(J.find(":nan"), std::string::npos);
  EXPECT_EQ(J.find(":inf"), std::string::npos);
  EXPECT_EQ(J.find(":-nan"), std::string::npos);
}

TEST(ServiceTest, ZeroUptimeStatsRenderFiniteJson) {
  // A default-constructed snapshot (zero uptime, zero workers) used to
  // push NaN/inf through operator<< on the ratio fields; jsonFixed
  // clamps them to 0 and keeps the document parseable.
  ServiceStats S;
  std::string J = S.json();
  EXPECT_NE(J.find("\"utilization\":0.000000"), std::string::npos) << J;
  EXPECT_NE(J.find("\"pool_reuse\":0.000000"), std::string::npos) << J;
  EXPECT_EQ(J.find(":nan"), std::string::npos);
  EXPECT_EQ(J.find(":inf"), std::string::npos);
  EXPECT_EQ(J.find(":-nan"), std::string::npos);
}

TEST(ServiceTest, ProfilesReportSkippedStaticPhasesOnCacheHit) {
  Service Svc(config(1, 4, 4));
  Request Req;
  Req.Source = "1 + 2";
  Response Miss = Svc.submit(Req).get();
  Response Hit = Svc.submit(Req).get();
  ASSERT_FALSE(Miss.CacheHit);
  ASSERT_TRUE(Hit.CacheHit);

  std::vector<std::string> Expected = Compiler::staticPhaseNames();
  Expected.push_back(Compiler::RunPhaseName);
  ASSERT_EQ(Miss.Profiles.size(), Expected.size());
  ASSERT_EQ(Hit.Profiles.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I) {
    EXPECT_EQ(Miss.Profiles[I].Name, Expected[I]);
    EXPECT_EQ(Hit.Profiles[I].Name, Expected[I]);
  }
  // The miss paid every phase for real (captures is opt-in and the
  // request did not ask for it, so its slot alone is Skipped).
  for (const PhaseProfile &P : Miss.Profiles)
    EXPECT_EQ(P.Skipped, P.Name == "captures") << P.Name;
  // The hit reused the static work (Skipped, zero nanos) but paid a
  // fresh runtime phase.
  for (size_t I = 0; I + 1 < Hit.Profiles.size(); ++I) {
    EXPECT_TRUE(Hit.Profiles[I].Skipped) << Hit.Profiles[I].Name;
    EXPECT_EQ(Hit.Profiles[I].WallNanos, 0u) << Hit.Profiles[I].Name;
  }
  const PhaseProfile &HitRun = Hit.Profiles.back();
  EXPECT_FALSE(HitRun.Skipped);
  EXPECT_GT(HitRun.WallNanos, 0u);
  EXPECT_EQ(HitRun.AllocWords, Hit.Heap.AllocWords);

  // The service-level aggregates saw exactly one instance of each
  // executed static phase (the miss; the skipped opt-in captures phase
  // contributes nothing) and two runs.
  ServiceStats S = Svc.stats();
  ASSERT_EQ(S.Phases.size(), Expected.size());
  for (const ServiceStats::PhaseAggregate &A : S.Phases) {
    uint64_t Want = A.Name == Compiler::RunPhaseName ? 2u
                    : A.Name == "captures"           ? 0u
                                                     : 1u;
    EXPECT_EQ(A.Count, Want) << A.Name;
    EXPECT_GE(A.SumNanos, A.MaxNanos) << A.Name;
  }
}

TEST(ServiceTest, AggregatesGcCountsAcrossRequests) {
  Service Svc(config(4, 16, 8));
  Request Req;
  Req.Source = ComposeProgram;
  Req.EvalOpts.GcThresholdWords = 2048;
  rt::RunResult Solo = compileShared(ComposeProgram, {})->run(Req.EvalOpts);
  ASSERT_EQ(Solo.Outcome, rt::RunOutcome::Ok) << Solo.Error;
  ASSERT_GT(Solo.Heap.GcCount, 0u) << "program must trigger GC";

  std::vector<std::future<Response>> Futures;
  for (int I = 0; I < 6; ++I)
    Futures.push_back(Svc.submit(Req));
  for (auto &F : Futures)
    ASSERT_EQ(F.get().Outcome, rt::RunOutcome::Ok);

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.TotalGcCount, 6 * Solo.Heap.GcCount);
  EXPECT_EQ(S.TotalAllocWords, 6 * Solo.Heap.AllocWords);
}

TEST(ServiceTest, RunsRecyclePagesThroughTheSharedPool) {
  // Sequential requests on one worker: the first run's heap teardown
  // feeds the pool, the second draws from it.
  ServiceConfig Cfg = config(1, 4, 4);
  Service Svc(Cfg);
  ASSERT_NE(Svc.pagePool(), nullptr);

  Request Req;
  Req.Source = ComposeProgram;
  Req.EvalOpts.GcThresholdWords = 2048;
  Response First = Svc.submit(Req).get();
  ASSERT_EQ(First.Outcome, rt::RunOutcome::Ok) << First.Error;
  ServiceStats S0 = Svc.stats();
  EXPECT_GT(S0.Pool.Releases, 0u) << "teardown recycled no pages";

  Response Second = Svc.submit(Req).get();
  ASSERT_EQ(Second.Outcome, rt::RunOutcome::Ok) << Second.Error;
  EXPECT_EQ(Second.ResultText, First.ResultText);
  EXPECT_EQ(Second.Heap.AllocWords, First.Heap.AllocWords);
  ServiceStats S1 = Svc.stats();
  EXPECT_GT(S1.Pool.AcquireHits, S0.Pool.AcquireHits);
  EXPECT_GT(S1.Pool.reuseRatio(), 0.0);
}

TEST(ServiceTest, PoolingCanBeDisabled) {
  ServiceConfig Cfg = config(1, 4, 4);
  Cfg.PagePoolPages = 0;
  Service Svc(Cfg);
  EXPECT_EQ(Svc.pagePool(), nullptr);

  Request Req;
  Req.Source = ComposeProgram;
  Req.EvalOpts.GcThresholdWords = 2048;
  Response R = Svc.submit(Req).get();
  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Pool.AcquireHits + S.Pool.AcquireMisses + S.Pool.Releases, 0u);
  EXPECT_EQ(S.Pool.Capacity, 0u);
}

//===----------------------------------------------------------------------===//
// Satellite: service-hardening regressions.
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ShutdownRejectionsAreCountedSeparately) {
  Service Svc(config(1, 4, 4));
  Svc.shutdown();

  Request Req;
  Req.Source = "1 + 1";
  // Both submission paths reject after shutdown, and each bump is
  // visible as shutdown_rejected — distinct from load-shed Rejected.
  Response R1 = Svc.submit(Req).get();
  EXPECT_EQ(R1.Status, RequestOutcome::Shutdown);
  std::atomic<int> CallbackSeen{0};
  EXPECT_TRUE(Svc.trySubmit(Req, [&](Response R2) {
    EXPECT_EQ(R2.Status, RequestOutcome::Shutdown);
    ++CallbackSeen;
  }));
  EXPECT_EQ(CallbackSeen.load(), 1);

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.ShutdownRejected, 2u);
  EXPECT_EQ(S.Rejected, 0u) << "shutdown is not a load-shed";
  EXPECT_EQ(S.Submitted, 0u);
  EXPECT_NE(S.json().find("\"shutdown_rejected\":2"), std::string::npos);
}

/// A pause sink that throws from inside the evaluator's GC hook —
/// stand-in for any faulty user-supplied callback.
class ThrowingPauseSink final : public TraceSink {
public:
  void record(const PhaseProfile &) override {}
  void recordGcPause(const GcPauseRecord &) override {
    throw std::runtime_error("pause sink exploded");
  }
};

TEST(ServiceTest, WorkerSurvivesAThrowingRequestHook) {
  // One worker: if it dies, nothing below completes.
  ServiceConfig Cfg = config(1, 4, 4);
  Cfg.PagePoolPages = 0; // keep the unwound heap away from the pool
  Service Svc(Cfg);

  ThrowingPauseSink Sink;
  Request Bad;
  Bad.Source = ComposeProgram;
  Bad.EvalOpts.GcThresholdWords = 2048; // guarantees a GC, hence a throw
  Bad.EvalOpts.PauseSink = &Sink;
  Response R = Svc.submit(Bad).get();
  EXPECT_EQ(R.Status, RequestOutcome::InternalError);
  EXPECT_FALSE(R.CompileOk);
  EXPECT_NE(R.Error.find("pause sink exploded"), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Diagnostics.find("internal error"), std::string::npos);

  // The lone worker is still alive and serving.
  Request Good;
  Good.Source = "20 + 22";
  Response R2 = Svc.submit(Good).get();
  EXPECT_EQ(R2.Status, RequestOutcome::Ok) << R2.Error;
  EXPECT_EQ(R2.ResultText, "42");

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.InternalErrors, 1u);
  EXPECT_EQ(S.CompileErrors, 0u) << "an escaped hook is not a compile error";
  EXPECT_EQ(S.Completed, 2u);
  EXPECT_NE(S.json().find("\"internal_errors\":1"), std::string::npos);
}

TEST(ServiceTest, ShadowedBindingWarnsButStillRuns) {
  // The duplicate top-level binding draws a shadowing warning from the
  // parse phase; the program still compiles and runs, and the
  // innermost (latest) binding wins at evaluation time.
  Service Svc(config(1, 4, 4));
  Request Req;
  Req.Source = "fun f x = x + 1\nfun f x = x + 2\n;f 1";
  Response R = Svc.submit(Req).get();
  EXPECT_EQ(R.Status, RequestOutcome::Ok) << R.Diagnostics;
  EXPECT_TRUE(R.CompileOk);
  EXPECT_EQ(R.ResultText, "3");
  EXPECT_NE(R.Diagnostics.find("shadows an earlier binding"),
            std::string::npos)
      << R.Diagnostics;
}

} // namespace
