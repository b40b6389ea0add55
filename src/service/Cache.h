//===- service/Cache.h - LRU compile cache ----------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe LRU cache of compilations, content-addressed
/// by (source, CompileOptions) — see service/Hash.h —
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
/// **One LRU.** One mutex guards one recency list and its map, so the
/// capacity is exact and recencyHashes() is the list itself. The lock
/// covers only map and list updates; the disk tier's I/O always runs
/// outside it.
///
/// Failed compilations are cached too (Ok false, no Flat, rendered
/// diagnostics): repeated ill-typed submissions are common in a serving
/// setting and re-diagnosing them is pure waste.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_CACHE_H
#define RML_SERVICE_CACHE_H

#include "core/Pipeline.h"
#include "service/Hash.h"

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
/// shareable CachedCompile and destroys the Compiler. A failed compile
/// yields an entry that is not Ok, with its diagnostics and the
/// profiles of the phases that ran.
CachedCompileRef compileShared(std::string_view Source,
                               const CompileOptions &Opts);

/// Thread-safe LRU cache: one mutex-guarded recency list (front = most
/// recently used) and its key map. Capacity 0 disables caching (every
/// lookup misses, insert is a no-op); otherwise it never holds more than
/// Capacity entries, and an insert beyond it evicts the least recently
/// used entry.
///
/// With a DiskCache attached, a memory miss consults the disk tier
/// (outside the lock) and promotes a verified hit; fresh inserts write
/// through.
class CompileCache {
public:
  struct Counters {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
  };

  explicit CompileCache(size_t Capacity, DiskCache *Disk = nullptr);

  /// Returns the cached compilation and refreshes its recency, or null.
  /// Counts a hit or a miss; a memory miss falls through to the disk
  /// tier when one is attached.
  CachedCompileRef lookup(const CacheKey &K);

  /// Inserts (or refreshes) \p K, evicting the least recently used
  /// entry beyond the capacity, and writes the entry through to the
  /// disk tier. Two workers racing to insert the same key is benign: the
  /// second insert wins the map slot, and the first result stays valid
  /// for whoever already holds its shared_ptr.
  void insert(const CacheKey &K, CachedCompileRef V);

  Counters counters() const;
  size_t size() const;
  size_t capacity() const { return Cap; }

  /// Keys from most to least recently used (testing / introspection).
  std::vector<uint64_t> recencyHashes() const;

private:
  struct Node {
    CacheKey Key;
    CachedCompileRef Value;
  };
  /// The map is keyed by the address of a list node's key, so each
  /// entry stores its source once; hash and equality go through the
  /// pointee, and lookups pass the caller's key by address.
  struct KeyPtrHash {
    size_t operator()(const CacheKey *K) const {
      return static_cast<size_t>(K->Hash);
    }
  };
  struct KeyPtrEq {
    bool operator()(const CacheKey *A, const CacheKey *B) const {
      return *A == *B;
    }
  };

  /// Inserts (or refreshes) under M, then evicts beyond Cap. Shared by
  /// fresh inserts and disk-tier promotions; only insert() writes
  /// through.
  void insertLocked(const CacheKey &K, CachedCompileRef V);

  const size_t Cap; // entry capacity (0 disables)
  DiskCache *Disk;  // optional second tier (not owned)
  mutable std::mutex M;
  std::list<Node> Lru; // front = most recent
  std::unordered_map<const CacheKey *, std::list<Node>::iterator, KeyPtrHash,
                     KeyPtrEq>
      Map;
  Counters C;
};

} // namespace rml::service

#endif // RML_SERVICE_CACHE_H
