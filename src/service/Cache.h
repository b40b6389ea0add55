//===- service/Cache.h - Sharded LRU compile cache --------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded LRU cache of compilations, content-addressed
/// by (source, Strategy, SpuriousMode, Check) — see service/Hash.h —
/// with an optional persistent second tier (service/DiskCache.h).
///
/// **One entry shape.** An entry holds only rendered products: the
/// verdict, diagnostics, printed program, schemes, capture report and
/// phase profiles, plus the program's flat form (flat::FlatUnit), which
/// is self-contained and directly executable. compileShared builds one
/// on a short-lived Compiler and destroys it before returning, so no
/// entry pins compiler arenas, and DiskCache::load produces exactly the
/// same shape from an entry file. Every field is immutable once the
/// entry is shared, and run() builds all mutable state (region heap,
/// evaluator stacks) per call, so any number of worker threads can run
/// the same entry concurrently — and a warm restart serves Run=true
/// requests entirely from disk.
///
/// **Sharding.** The map is split into NumShards key-hash-addressed
/// shards, each with its own mutex, LRU list and cost budget, so
/// workers contending on distinct keys proceed in parallel. The
/// cost-eviction invariant ("the freshest entry is never evicted")
/// holds per shard; the aggregate surface — counters(), size(),
/// totalCost(), recencyHashes() — merges the shards, the last in
/// global recency order via per-entry recency stamps.
///
/// Failed compilations are cached too (Ok false, no Flat, rendered
/// diagnostics): repeated ill-typed submissions are common in a serving
/// setting and re-diagnosing them is pure waste.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_CACHE_H
#define RML_SERVICE_CACHE_H

#include "service/Hash.h"

#include <array>
#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace rml::service {

class DiskCache;

/// One immutable compilation: the products that are cheaper to render
/// once than per request, and the runnable flat form.
struct CachedCompile {
  /// The flat, self-contained executable form (see flat/Flat.h); set
  /// exactly when Ok. Fresh entries share the compiled unit's; disk-tier
  /// entries decode it from the entry file.
  std::shared_ptr<const flat::FlatUnit> Flat;
  /// Whether the compile this entry records succeeded.
  bool Ok = false;
  /// Set on entries produced by DiskCache::load; they are never written
  /// back to disk.
  bool FromDisk = false;
  /// Rendered diagnostics (errors and warnings) of the compile.
  std::string Diagnostics;
  /// printProgram() output, rendered once at compile time.
  std::string Printed;
  /// The capture-tracking report (rinfer/Captures.h), rendered once at
  /// compile time when the unit was compiled with Options.Captures.
  /// Persisted by the disk tier, so capture queries are byte-identical
  /// across tiers and restarts. Empty when the phase did not run.
  std::string CaptureReport;
  /// Every top-level binding's rendered scheme, outermost first (the
  /// lookup order of Compiler::schemeOf). Persisted by the disk tier,
  /// so scheme queries are byte-identical across tiers and restarts.
  std::vector<std::pair<std::string, std::string>> Schemes;
  /// The static phase profiles of the one compile that built this
  /// entry (Compiler::lastPhaseProfiles(); partial when it failed).
  /// Cache hits report these names as skipped/zero — the work was
  /// reused, not redone.
  std::vector<PhaseProfile> Profiles;
  /// Eviction weight: the arena nodes the compile built
  /// (Compiler::arenaFootprint().total(), at least 1), a measure of the
  /// program's size. The cache bounds the sum of these, not the entry
  /// count, so one huge program cannot pin it.
  size_t Cost = 1;

  bool ok() const { return Ok; }

  /// Read-only run of the cached unit (ok() must hold). Safe
  /// concurrently from many threads.
  rt::RunResult run(rt::EvalOptions EvalOpts = {}) const {
    return Compiler::runFlat(*Flat, EvalOpts);
  }

  /// Scheme of the outermost top-level binding named \p Name, from the
  /// persisted table ("" if unknown). Identical bytes whether the entry
  /// is fresh or from disk.
  std::string schemeOf(std::string_view Name) const {
    for (const auto &[N, S] : Schemes)
      if (N == Name)
        return S;
    return std::string();
  }
};

/// Shared, immutable handle to a compilation. Entries stay alive while
/// any request still holds the handle, even after cache eviction.
using CachedCompileRef = std::shared_ptr<const CachedCompile>;

/// Compiles \p Source on a fresh Compiler, renders its products into a
/// shareable CachedCompile and destroys the Compiler. An optional
/// \p Governor is consulted at every phase boundary (per-phase
/// budgets). A governed cut-off looks like a failed compile here (not
/// Ok, partial Profiles); callers that care ask their governor.
CachedCompileRef compileShared(std::string_view Source,
                               const CompileOptions &Opts,
                               PhaseGovernor *Governor = nullptr);

/// Thread-safe sharded LRU cache: NumShards independent (mutex, LRU
/// list, map) triples addressed by key hash; front of each list is that
/// shard's most recently used entry. Capacity 0 disables caching (every
/// lookup misses, insert is a no-op).
///
/// The entry capacity and the optional CostCapacity are split across
/// shards (rounding the per-shard entry capacity up, so tiny caps still
/// admit one entry per shard). Eviction is cost-aware per shard: beyond
/// the entry count, the per-shard cost budget bounds the summed
/// CachedCompile::Cost, evicting from the LRU end until the bound holds
/// again. The most recently inserted entry of a shard always stays,
/// even when it alone exceeds the budget — a cache that rejects its
/// newest entry would re-compile it on every request.
///
/// With a DiskCache attached, a memory miss consults the disk tier
/// (outside any shard lock) and promotes a verified hit into the shard;
/// fresh inserts write through.
class CompileCache {
public:
  struct Counters {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
  };

  static constexpr size_t NumShards = 8;

  /// Shard index of \p K: the top bits of a Fibonacci-mixed hash, so
  /// consecutive FNV values spread instead of clustering. Exposed for
  /// tests that need same-shard key sets.
  static size_t shardOf(const CacheKey &K) {
    return static_cast<size_t>((K.Hash * 0x9E3779B97F4A7C15ull) >> 61);
  }

  explicit CompileCache(size_t Capacity, size_t CostCapacity = 0,
                        DiskCache *Disk = nullptr);

  /// Returns the cached compilation and refreshes its recency, or null.
  /// Counts a hit or a miss; a memory miss falls through to the disk
  /// tier when one is attached.
  CachedCompileRef lookup(const CacheKey &K);

  /// Inserts (or refreshes) \p K, evicting the least recently used
  /// entries of its shard beyond the per-shard budgets, and writes the
  /// entry through to the disk tier. Two workers racing to insert the
  /// same key is benign: the second insert wins the map slot, and the
  /// first result stays valid for whoever already holds its shared_ptr.
  void insert(const CacheKey &K, CachedCompileRef V);

  Counters counters() const;
  size_t size() const;
  size_t capacity() const { return Cap; }
  size_t costCapacity() const { return CostCap; }
  /// Summed Cost of the resident entries, across shards.
  size_t totalCost() const;

  /// Keys from most to least recently used, merged across shards by
  /// recency stamp (testing / introspection).
  std::vector<uint64_t> recencyHashes() const;

private:
  struct Node {
    CacheKey Key;
    CachedCompileRef Value;
    /// Global recency stamp (RecencyClock at last touch); merges the
    /// per-shard LRU orders into one global order.
    uint64_t Stamp = 0;
  };

  struct Shard {
    mutable std::mutex M;
    size_t TotalCost = 0;
    std::list<Node> Lru; // front = most recent
    std::unordered_map<CacheKey, std::list<Node>::iterator, CacheKeyHash> Map;
    Counters C;
  };

  /// Inserts into \p S under its lock. WriteThrough distinguishes fresh
  /// inserts (persist to disk) from disk-tier promotions (already
  /// persisted).
  void insertLocked(Shard &S, const CacheKey &K, CachedCompileRef V);

  size_t Cap;        // aggregate entry capacity (0 disables)
  size_t CostCap;    // aggregate cost capacity (0 = unbounded)
  size_t ShardCap;   // per-shard entry capacity
  size_t ShardCostCap; // per-shard cost capacity
  DiskCache *Disk;   // optional second tier (not owned)
  std::atomic<uint64_t> RecencyClock{0};
  std::array<Shard, NumShards> Shards;
};

} // namespace rml::service

#endif // RML_SERVICE_CACHE_H
