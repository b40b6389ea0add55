//===- service/Scheduler.cpp ----------------------------------------------===//

#include "service/Scheduler.h"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

using namespace rml;
using namespace rml::service;

Scheduler::~Scheduler() = default;

const char *rml::service::schedPolicyName(SchedPolicy P) {
  switch (P) {
  case SchedPolicy::Fifo:
    return "fifo";
  case SchedPolicy::FairShare:
    return "fair";
  }
  return "fifo";
}

bool rml::service::parseSchedPolicy(std::string_view Name, SchedPolicy &Out) {
  if (Name == "fifo") {
    Out = SchedPolicy::Fifo;
    return true;
  }
  if (Name == "fair") {
    Out = SchedPolicy::FairShare;
    return true;
  }
  return false;
}

namespace {

/// Strict submission order.
class FifoScheduler final : public Scheduler {
public:
  void push(ScheduledJob J) override { Jobs.push_back(std::move(J)); }

  ScheduledJob pop() override {
    ScheduledJob J = std::move(Jobs.front());
    Jobs.pop_front();
    return J;
  }

  size_t size() const override { return Jobs.size(); }
  const char *policyName() const override { return "fifo"; }

private:
  std::deque<ScheduledJob> Jobs;
};

/// Per-tenant deficit round-robin: each tenant keeps a FIFO of its own
/// jobs plus a deficit counter; serving a job charges its CostKey
/// against the deficit, and a tenant whose head job costs more than its
/// deficit waits for the round-robin to credit it another quantum. The
/// result: over time every active tenant gets an equal share of
/// *predicted cost*, so a tenant flooding expensive sources cannot
/// starve a tenant submitting cheap ones. A tenant that drains loses
/// its ring slot and its deficit (no banking credit while idle).
class FairShareScheduler final : public Scheduler {
public:
  explicit FairShareScheduler(uint64_t Quantum)
      : Quantum(std::max<uint64_t>(Quantum, 1)) {}

  void push(ScheduledJob J) override {
    TenantQueue &T = Tenants[J.Req.Tenant];
    if (!T.InRing) {
      T.InRing = true;
      Ring.push_back(J.Req.Tenant);
    }
    T.Jobs.push_back(std::move(J));
    ++Count;
  }

  ScheduledJob pop() override {
    // Two scans at most: one to find a tenant whose deficit already
    // covers its head job, and — when every tenant is short — one after
    // a bulk top-up of exactly the number of DRR rounds the nearest
    // head still needs (equivalent to spinning that many rounds, minus
    // the spinning).
    for (int Attempt = 0; Attempt < 2; ++Attempt) {
      uint64_t MinRounds = UINT64_MAX;
      for (size_t I = 0; I < Ring.size(); ++I) {
        size_t Idx = (RingPos + I) % Ring.size();
        TenantQueue &T = Tenants[Ring[Idx]];
        uint64_t Cost = T.Jobs.front().CostKey;
        if (T.Deficit >= Cost)
          return serve(Idx, T, Cost);
        uint64_t Rounds = (Cost - T.Deficit + Quantum - 1) / Quantum;
        MinRounds = std::min(MinRounds, Rounds);
      }
      for (const std::string &Name : Ring)
        Tenants[Name].Deficit += MinRounds * Quantum;
    }
    // Unreachable: the top-up guarantees the second scan serves.
    return serve(RingPos % Ring.size(), Tenants[Ring[RingPos % Ring.size()]],
                 0);
  }

  size_t size() const override { return Count; }
  const char *policyName() const override { return "fair"; }

private:
  struct TenantQueue {
    std::deque<ScheduledJob> Jobs;
    uint64_t Deficit = 0;
    bool InRing = false;
  };

  ScheduledJob serve(size_t Idx, TenantQueue &T, uint64_t Cost) {
    ScheduledJob J = std::move(T.Jobs.front());
    T.Jobs.pop_front();
    T.Deficit -= std::min(T.Deficit, Cost);
    --Count;
    if (T.Jobs.empty()) {
      // Drained: drop the ring slot and the unspent deficit.
      T.Deficit = 0;
      T.InRing = false;
      Ring.erase(Ring.begin() + static_cast<ptrdiff_t>(Idx));
      if (RingPos > Idx)
        --RingPos;
      if (Ring.empty())
        RingPos = 0;
      else
        RingPos %= Ring.size();
    } else {
      // Stay on this tenant so it can spend its remaining deficit
      // before the round-robin moves on.
      RingPos = Idx;
    }
    return J;
  }

  const uint64_t Quantum;
  std::unordered_map<std::string, TenantQueue> Tenants;
  /// Active tenants in round-robin order; RingPos is the next to serve.
  std::vector<std::string> Ring;
  size_t RingPos = 0;
  size_t Count = 0;
};

} // namespace

std::unique_ptr<Scheduler> rml::service::makeScheduler(SchedPolicy P,
                                                       uint64_t Quantum) {
  switch (P) {
  case SchedPolicy::Fifo:
    return std::make_unique<FifoScheduler>();
  case SchedPolicy::FairShare:
    return std::make_unique<FairShareScheduler>(Quantum);
  }
  return std::make_unique<FifoScheduler>();
}
