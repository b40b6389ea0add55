//===- service/Cache.cpp --------------------------------------------------===//

#include "service/Cache.h"

#include "service/DiskCache.h"

using namespace rml;
using namespace rml::service;

namespace {

/// Renders \p C's compile of \p Unit (null when it failed) into an
/// entry; the Compiler dies with the caller's frame.
CachedCompileRef renderEntry(Compiler &C,
                             const std::unique_ptr<CompiledUnit> &Unit) {
  auto CC = std::make_shared<CachedCompile>();
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
  return CC;
}

} // namespace

CachedCompileRef rml::service::compileShared(std::string_view Source,
                                             const CompileOptions &Opts) {
  Compiler C;
  return renderEntry(C, C.compile(Source, Opts));
}

CachedCompileRef rml::service::compileShared(std::string_view Source,
                                             const CompileOptions &Opts,
                                             PrefixStore &Prefixes) {
  Compiler C;
  return renderEntry(C, C.compile(Source, Opts, Prefixes));
}

CompileCache::CompileCache(size_t Capacity, DiskCache *DiskTier)
    : Cap(Capacity), Disk(DiskTier) {}

CachedCompileRef CompileCache::lookup(const CacheKey &K) {
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Map.find(&K);
    if (It != Map.end()) {
      ++C.Hits;
      Lru.splice(Lru.begin(), Lru, It->second); // refresh recency
      return It->second->Value;
    }
    ++C.Misses;
  }
  // Memory miss: consult the persistent tier outside the lock, so one
  // worker's disk I/O never stalls another's memory hit.
  if (!Disk || Cap == 0)
    return nullptr;
  CachedCompileRef FromDisk = Disk->load(K);
  if (!FromDisk)
    return nullptr;
  // Promote without write-through (the bytes just came from that file).
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(&K);
  if (It != Map.end()) {
    // A racing worker populated the slot meanwhile; prefer its entry.
    Lru.splice(Lru.begin(), Lru, It->second);
    return It->second->Value;
  }
  insertLocked(K, FromDisk);
  return FromDisk;
}

void CompileCache::insert(const CacheKey &K, CachedCompileRef V) {
  if (Cap == 0)
    return;
  bool WriteThrough = Disk && V && !V->FromDisk;
  {
    std::lock_guard<std::mutex> Lock(M);
    insertLocked(K, V);
  }
  if (WriteThrough)
    Disk->store(K, *V);
}

void CompileCache::insertLocked(const CacheKey &K, CachedCompileRef V) {
  ++C.Insertions;
  auto It = Map.find(&K);
  if (It != Map.end()) {
    // Lost a compile race: keep the freshest value, refresh recency.
    It->second->Value = std::move(V);
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    Lru.push_front(Node{K, std::move(V)});
    Map.emplace(&Lru.front().Key, Lru.begin());
  }
  while (Map.size() > Cap) {
    Map.erase(&Lru.back().Key);
    Lru.pop_back();
    ++C.Evictions;
  }
}

CompileCache::Counters CompileCache::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return C;
}

size_t CompileCache::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Map.size();
}

std::vector<uint64_t> CompileCache::recencyHashes() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<uint64_t> Out;
  Out.reserve(Lru.size());
  for (const Node &N : Lru)
    Out.push_back(N.Key.Hash);
  return Out;
}
