//===- tests/scheduler_test.cpp - Dequeue-policy tests --------------------===//
//
// The Scheduler layer: policy objects in isolation (pop order,
// fair-share deficit accounting), the admission stamping contract
// (cost provider consulted exactly once), and end to end through the
// Service (completion order under a deterministically parked worker,
// drain under contention, tenant isolation under a flood). Labelled
// `service;sched` in ctest and expected to be clean under
// -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>

using namespace rml;
using namespace rml::service;

namespace {

//===----------------------------------------------------------------------===//
// Policy objects in isolation.
//===----------------------------------------------------------------------===//

/// A pre-stamped job tagged with \p Tag in Key.Hash, which no policy
/// reads, so a test can name the order jobs pop in.
ScheduledJob job(uint64_t CostKey, uint64_t Tag) {
  ScheduledJob J;
  J.CostKey = CostKey;
  J.Key.Hash = Tag;
  return J;
}

/// A tagged job carrying a tenant label and a cost, for the fair-share
/// units.
ScheduledJob tjob(const char *Tenant, uint64_t Cost, uint64_t Tag) {
  ScheduledJob J = job(Cost, Tag);
  J.Req.Tenant = Tenant;
  return J;
}

std::vector<uint64_t> popAllTags(Scheduler &S) {
  std::vector<uint64_t> Tags;
  while (!S.empty())
    Tags.push_back(S.pop().Key.Hash);
  return Tags;
}

TEST(SchedulerUnit, FifoPopsInSubmissionOrder) {
  auto S = makeScheduler(SchedPolicy::Fifo);
  EXPECT_STREQ(S->policyName(), "fifo");
  EXPECT_TRUE(S->empty());
  // Cost keys are deliberately shuffled: Fifo must ignore them.
  for (uint64_t Cost : {90u, 10u, 50u, 30u, 70u})
    S->push(job(Cost, S->size()));
  EXPECT_EQ(S->size(), 5u);
  EXPECT_EQ(popAllTags(*S), (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(SchedulerUnit, PolicyNamesRoundTrip) {
  EXPECT_STREQ(schedPolicyName(SchedPolicy::Fifo), "fifo");
  EXPECT_STREQ(schedPolicyName(SchedPolicy::FairShare), "fair");
  SchedPolicy P = SchedPolicy::Fifo;
  EXPECT_TRUE(parseSchedPolicy("fair", P));
  EXPECT_EQ(P, SchedPolicy::FairShare);
  EXPECT_TRUE(parseSchedPolicy("fifo", P));
  EXPECT_EQ(P, SchedPolicy::Fifo);
  P = SchedPolicy::FairShare;
  EXPECT_FALSE(parseSchedPolicy("sjf", P));
  EXPECT_FALSE(parseSchedPolicy("ljf", P));      // removed policy
  EXPECT_FALSE(parseSchedPolicy("deadline", P)); // removed policy
  EXPECT_EQ(P, SchedPolicy::FairShare); // unknown names leave Out untouched
  EXPECT_FALSE(parseSchedPolicy("", P));
}

TEST(SchedulerUnit, AdmitConsultsTheCostProviderExactlyOnce) {
  auto S = makeScheduler(SchedPolicy::Fifo);
  int Calls = 0;
  S->setCostProvider([&Calls](const CacheKey &K) {
    ++Calls;
    return static_cast<uint64_t>(1000 + K.Source.size());
  });
  ScheduledJob J;
  J.Req.Source = "abc";
  J.Key = CacheKey::of(J.Req.Source, J.Req.Opts);
  S->admit(std::move(J));
  EXPECT_EQ(Calls, 1);
  ScheduledJob Out = S->pop();
  EXPECT_EQ(Out.CostKey, 1003u);
  EXPECT_EQ(Calls, 1); // pop must not re-consult

  // A null provider restores the source-length fallback.
  S->setCostProvider(nullptr);
  ScheduledJob K;
  K.Req.Source = "abcd";
  K.Key = CacheKey::of(K.Req.Source, K.Req.Opts);
  S->admit(std::move(K));
  EXPECT_EQ(S->pop().CostKey, 4u);
  EXPECT_EQ(Calls, 1);
}

TEST(SchedulerUnit, FairShareSharesCostAcrossTenants) {
  // Two tenants, equal-cost jobs, quantum = one job's cost: after the
  // first top-up the ring alternates in two-job bursts (serve spends
  // the tenant's credit, the next top-up recredits both).
  auto S = makeScheduler(SchedPolicy::FairShare, /*FairShareQuantum=*/10);
  EXPECT_STREQ(S->policyName(), "fair");
  S->push(tjob("a", 10, 0));
  S->push(tjob("a", 10, 1));
  S->push(tjob("b", 10, 2));
  S->push(tjob("b", 10, 3));
  EXPECT_EQ(popAllTags(*S), (std::vector<uint64_t>{0, 2, 3, 1}));
}

TEST(SchedulerUnit, FairShareLetsCheapTenantThroughExpensiveFlood) {
  // The heavy tenant floods first with 4x-cost jobs; the light tenant's
  // whole queue still drains before the heavy tenant's first job,
  // because each DRR round credits both tenants equally and a cheap
  // head job is covered four rounds sooner.
  auto S = makeScheduler(SchedPolicy::FairShare, /*FairShareQuantum=*/1);
  for (uint64_t Tag = 0; Tag < 3; ++Tag)
    S->push(tjob("heavy", 4, Tag));
  for (uint64_t Tag = 3; Tag < 7; ++Tag)
    S->push(tjob("light", 1, Tag));
  EXPECT_EQ(popAllTags(*S), (std::vector<uint64_t>{3, 4, 5, 6, 0, 1, 2}));
}

TEST(SchedulerUnit, FairShareDrainedTenantForfeitsDeficit) {
  // Tenant a drains holding 2 units of unspent deficit. If that credit
  // banked across the idle gap, a's next job (cost 2) would be served
  // on the first scan, ahead of b; forfeiting it forces a fresh
  // top-up, where b's earlier ring slot wins.
  auto S = makeScheduler(SchedPolicy::FairShare, /*FairShareQuantum=*/3);
  S->push(tjob("a", 1, 0));
  EXPECT_EQ(S->pop().Key.Hash, 0u); // a spends 1 of a 3-unit round, drains
  S->push(tjob("b", 3, 1));
  S->push(tjob("a", 2, 2));
  EXPECT_EQ(S->pop().Key.Hash, 1u); // no banked credit: b is scanned first
  EXPECT_EQ(S->pop().Key.Hash, 2u);
  EXPECT_TRUE(S->empty());
}

TEST(SchedulerUnit, FairShareSingleTenantIsFifo) {
  auto S = makeScheduler(SchedPolicy::FairShare, /*FairShareQuantum=*/2);
  const uint64_t Costs[] = {5, 1, 9, 3};
  for (uint64_t Tag = 0; Tag < 4; ++Tag)
    S->push(tjob("", Costs[Tag], Tag)); // the anonymous tenant bucket
  EXPECT_EQ(popAllTags(*S), (std::vector<uint64_t>{0, 1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// Policies end to end through the Service.
//===----------------------------------------------------------------------===//

/// Parks the single worker inside the blocker job's callback so a batch
/// can be enqueued with nothing draining, then releases it and records
/// the order the remaining callbacks fire in. The park is deterministic:
/// the callback runs on the worker thread after it popped the blocker,
/// so every later submission sits in the scheduler until Release.
std::vector<int> completionOrderOf(ServiceConfig Cfg,
                                   const std::vector<Request> &Reqs) {
  Cfg.Workers = 1;
  Cfg.QueueCapacity = Reqs.size() + 1;
  Service Svc(Cfg);

  std::atomic<bool> Parked{false};
  std::atomic<bool> Release{false};
  Request Blocker;
  Blocker.Source = "0";
  Blocker.Run = false;
  EXPECT_TRUE(Svc.trySubmit(Blocker, [&](Response) {
    Parked.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
  }));
  while (!Parked.load(std::memory_order_acquire))
    std::this_thread::yield();

  std::mutex OrderMutex;
  std::vector<int> Order;
  std::atomic<size_t> Done{0};
  for (size_t I = 0; I < Reqs.size(); ++I) {
    Request Req = Reqs[I];
    Req.Run = false;
    EXPECT_TRUE(Svc.trySubmit(Req, [&, I](Response R) {
      EXPECT_TRUE(R.CompileOk) << R.Diagnostics;
      {
        std::lock_guard<std::mutex> Lock(OrderMutex);
        Order.push_back(static_cast<int>(I));
      }
      Done.fetch_add(1, std::memory_order_release);
    }));
  }
  Release.store(true, std::memory_order_release);
  while (Done.load(std::memory_order_acquire) < Reqs.size())
    std::this_thread::yield();
  return Order;
}

std::vector<int> completionOrder(SchedPolicy Policy,
                                 const std::vector<std::string> &Sources) {
  ServiceConfig Cfg;
  Cfg.Policy = Policy;
  std::vector<Request> Reqs;
  for (const std::string &S : Sources) {
    Request Req;
    Req.Source = S;
    Reqs.push_back(std::move(Req));
  }
  return completionOrderOf(std::move(Cfg), Reqs);
}

/// Distinct source lengths, submitted shortest first. (Each computes a
/// different value so responses are distinguishable.)
std::vector<std::string> gradedSources() {
  return {
      "1 + 1",
      "1 + 1 + 1",
      "1 + 1 + 1 + 1",
      "1 + 1 + 1 + 1 + 1",
      "1 + 1 + 1 + 1 + 1 + 1",
  };
}

TEST(SchedulerService, FifoCompletesInSubmissionOrder) {
  EXPECT_EQ(completionOrder(SchedPolicy::Fifo, gradedSources()),
            (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerService, FairShareBoundsLightTenantRankUnderFlood) {
  // A heavy tenant floods 24 equal-length sources, then a light tenant
  // submits 4. Under FIFO every light job waits for the whole flood;
  // under FairShare the DRR ring pulls the light queue forward. The
  // bound is on completion *rank*, which a single-core runner measures
  // deterministically (the worker is parked while the batch queues).
  std::vector<Request> Reqs;
  for (int I = 0; I < 24; ++I) {
    Request R;
    R.Source = "0 + " + std::to_string(100 + I); // all length 7
    R.Tenant = "heavy";
    Reqs.push_back(std::move(R));
  }
  for (int I = 0; I < 4; ++I) {
    Request R;
    R.Source = "0 + " + std::to_string(200 + I);
    R.Tenant = "light";
    Reqs.push_back(std::move(R));
  }

  auto WorstLightRank = [&](SchedPolicy Policy) {
    ServiceConfig Cfg;
    Cfg.Policy = Policy;
    Cfg.FairShareQuantum = 1;
    std::vector<int> Order = completionOrderOf(Cfg, Reqs);
    size_t Worst = 0;
    for (size_t Rank = 0; Rank < Order.size(); ++Rank)
      if (Order[Rank] >= 24)
        Worst = Rank;
    return Worst;
  };

  size_t Fair = WorstLightRank(SchedPolicy::FairShare);
  size_t Fifo = WorstLightRank(SchedPolicy::Fifo);
  // FIFO: the light tenant's last job is the last of 28. FairShare:
  // all four light jobs complete within the first 12 pops even though
  // they were submitted behind the entire flood.
  EXPECT_EQ(Fifo, 27u);
  EXPECT_LE(Fair, 12u);
}

TEST(SchedulerService, AllPoliciesDrainUnderEightWorkers) {
  for (SchedPolicy Policy : {SchedPolicy::Fifo, SchedPolicy::FairShare}) {
    ServiceConfig Cfg;
    Cfg.Workers = 8;
    Cfg.QueueCapacity = 64;
    Cfg.Policy = Policy;
    Service Svc(Cfg);

    // A mixed batch: every request computes its own index so responses
    // are checkable, with source lengths (the fallback cost key) spread
    // by multi-digit additions, and tenants spread across three buckets
    // so FairShare exercises its real data structures.
    constexpr int N = 48;
    std::vector<std::future<Response>> Futures;
    for (int I = 0; I < N; ++I) {
      Request Req;
      Req.Source = "0 + " + std::to_string(I * 111);
      Req.Run = true;
      Req.Tenant = "t" + std::to_string(I % 3);
      Futures.push_back(Svc.submit(std::move(Req)));
    }
    for (int I = 0; I < N; ++I) {
      Response R = Futures[static_cast<size_t>(I)].get();
      EXPECT_EQ(R.Status, RequestOutcome::Ok) << R.Diagnostics;
      EXPECT_EQ(R.ResultText, std::to_string(I * 111)) << "request " << I;
    }

    ServiceStats S = Svc.stats();
    EXPECT_EQ(S.Submitted, static_cast<uint64_t>(N)) << S.Policy;
    EXPECT_EQ(S.Completed, static_cast<uint64_t>(N)) << S.Policy;
    EXPECT_EQ(S.Policy, schedPolicyName(Policy));
    EXPECT_EQ(S.QueueDepth, 0u);
  }
}

} // namespace
