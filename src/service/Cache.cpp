//===- service/Cache.cpp --------------------------------------------------===//

#include "service/Cache.h"

#include "service/DiskCache.h"

#include <algorithm>

using namespace rml;
using namespace rml::service;

CachedCompileRef rml::service::compileShared(std::string_view Source,
                                             const CompileOptions &Opts,
                                             PhaseGovernor *Governor) {
  auto CC = std::make_shared<CachedCompile>();
  Compiler C;
  C.setPhaseGovernor(Governor);
  std::unique_ptr<CompiledUnit> Unit = C.compile(Source, Opts);
  CC->Ok = Unit != nullptr;
  CC->Diagnostics = C.diagnostics().str();
  if (Unit) {
    CC->Printed = C.printProgram(*Unit);
    CC->Schemes = C.topLevelSchemes(*Unit);
    CC->CaptureReport = C.captureReport(*Unit);
    // The flat form outlives the Compiler: it is what runs, and what
    // the disk tier persists so warm restarts run without recompiling.
    CC->Flat = Unit->Flat;
  }
  CC->Profiles = C.lastPhaseProfiles();
  CC->Cost = std::max<size_t>(1, C.arenaFootprint().total());
  return CC;
}

CompileCache::CompileCache(size_t Capacity, size_t CostCapacity,
                           DiskCache *DiskTier)
    : Cap(Capacity), CostCap(CostCapacity), Disk(DiskTier) {
  // Entry capacity rounds up so tiny aggregate caps still admit one
  // entry per shard; the cost budget divides evenly (tests pass
  // multiples of NumShards when they need the bound exact).
  ShardCap = Cap == 0 ? 0 : (Cap + NumShards - 1) / NumShards;
  ShardCostCap = CostCap == 0 ? 0 : std::max<size_t>(1, CostCap / NumShards);
}

CachedCompileRef CompileCache::lookup(const CacheKey &K) {
  Shard &S = Shards[shardOf(K)];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(K);
    if (It != S.Map.end()) {
      ++S.C.Hits;
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second); // refresh recency
      It->second->Stamp = RecencyClock.fetch_add(1) + 1;
      return It->second->Value;
    }
    ++S.C.Misses;
  }
  // Memory miss: consult the persistent tier outside the shard lock —
  // disk I/O under a striped lock would serialise the very workers the
  // shards exist to decouple.
  if (!Disk || Cap == 0)
    return nullptr;
  CachedCompileRef FromDisk = Disk->load(K);
  if (!FromDisk)
    return nullptr;
  // Promote without write-through (the bytes just came from that file).
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It != S.Map.end()) {
    // A racing worker populated the slot meanwhile; prefer its entry.
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    It->second->Stamp = RecencyClock.fetch_add(1) + 1;
    return It->second->Value;
  }
  insertLocked(S, K, FromDisk);
  return FromDisk;
}

void CompileCache::insert(const CacheKey &K, CachedCompileRef V) {
  if (Cap == 0)
    return;
  bool WriteThrough = Disk && V && !V->FromDisk;
  Shard &S = Shards[shardOf(K)];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    insertLocked(S, K, V);
  }
  if (WriteThrough)
    Disk->store(K, *V);
}

void CompileCache::insertLocked(Shard &S, const CacheKey &K,
                                CachedCompileRef V) {
  ++S.C.Insertions;
  size_t Cost = V ? V->Cost : 1;
  uint64_t Stamp = RecencyClock.fetch_add(1) + 1;
  auto It = S.Map.find(K);
  if (It != S.Map.end()) {
    // Lost a compile race: keep the freshest value, refresh recency.
    S.TotalCost -= It->second->Value ? It->second->Value->Cost : 1;
    S.TotalCost += Cost;
    It->second->Value = std::move(V);
    It->second->Stamp = Stamp;
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  } else {
    S.Lru.push_front(Node{K, std::move(V), Stamp});
    S.Map.emplace(S.Lru.front().Key, S.Lru.begin());
    S.TotalCost += Cost;
  }
  // Evict by count, then by summed arena footprint; the freshest entry
  // of the shard is never evicted (see the class comment).
  while (S.Map.size() > ShardCap ||
         (ShardCostCap != 0 && S.TotalCost > ShardCostCap &&
          S.Map.size() > 1)) {
    const Node &Victim = S.Lru.back();
    S.TotalCost -= Victim.Value ? Victim.Value->Cost : 1;
    S.Map.erase(Victim.Key);
    S.Lru.pop_back();
    ++S.C.Evictions;
  }
}

CompileCache::Counters CompileCache::counters() const {
  Counters Sum;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Sum.Hits += S.C.Hits;
    Sum.Misses += S.C.Misses;
    Sum.Insertions += S.C.Insertions;
    Sum.Evictions += S.C.Evictions;
  }
  return Sum;
}

size_t CompileCache::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    N += S.Map.size();
  }
  return N;
}

size_t CompileCache::totalCost() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    N += S.TotalCost;
  }
  return N;
}

std::vector<uint64_t> CompileCache::recencyHashes() const {
  // Shards are locked one at a time; with concurrent writers this is a
  // snapshot per shard, merged by the global recency stamps.
  std::vector<std::pair<uint64_t, uint64_t>> Stamped; // (Stamp, Hash)
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (const Node &N : S.Lru)
      Stamped.emplace_back(N.Stamp, N.Key.Hash);
  }
  std::sort(Stamped.begin(), Stamped.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  std::vector<uint64_t> Out;
  Out.reserve(Stamped.size());
  for (const auto &[Stamp, Hash] : Stamped)
    Out.push_back(Hash);
  return Out;
}
