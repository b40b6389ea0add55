//===- service/DiskCache.h - Persistent compile-cache tier ------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk tier beneath the in-memory CompileCache. The static
/// pipeline is pure and deterministic per (source, CompileOptions) —
/// the premise service/Hash.h documents — so the *static* products of a
/// compilation (printed program, rendered diagnostics, the top-level
/// scheme table and phase names) are safe to persist
/// and reuse across process restarts: the same inputs can only ever
/// produce the same bytes.
///
/// One file per entry under the cache directory, named by the
/// 16-hex-digit content hash (`<hash>.rmlc`). Writes are atomic —
/// rendered into a private temp file and rename(2)d over the final
/// name — so concurrent writers (other workers, other processes
/// sharing the directory) either see a complete entry or none.
///
/// **Read, verify, view.** A load opens the entry with open(2), takes
/// its size from fstat and reads it with one sized read(2) (looping on
/// short reads and EINTR). The entry header is the magic, the format
/// version and a word-wise checksum (support/Checksum.h) over the whole
/// body; the checksum is verified before any field is parsed, so a
/// damaged byte anywhere — a scheme string, the printed program, the
/// capture report — is a counted rejection, never a served answer. The
/// nested flat unit is then decoded into a validated view (flat/Flat.h).
///
/// **Fail closed.** A load only succeeds when the versioned header
/// matches, the body checksum holds and the entry's embedded source and
/// option bytes equal the key exactly. FNV-1a collisions (two sources
/// with one hash), format drift (old/foreign files), truncation, a read
/// error, a file whose size changes while it is read and plain
/// corruption all degrade to a miss — the service recompiles; it never
/// serves a wrong answer. Only a missing file counts as a plain Miss;
/// rejections and write failures are counted, never thrown.
///
/// **Runnable entries.** The CompiledUnit itself — a web of arena
/// pointers — is never serialised; instead each successful entry embeds
/// the program's flat image (flat/Flat.h, its own magic, version and
/// checksum), which Compiler::runFlat executes directly. A warm
/// restart's first Run=true request therefore completes from disk with
/// zero compile phases. The flat section fails closed like everything
/// else: a damaged or undecodable flat unit, option bytes that differ
/// from the entry's, or a presence byte that disagrees with the entry's
/// ok byte rejects the whole entry to a miss (counted in LoadRejects).
/// A loaded entry therefore has exactly the shape of a fresh one.
///
/// **Bounded growth.** Left alone the directory grows one file per
/// distinct compile forever. A SweepConfig bounds it by total bytes
/// and/or entry age; a background sweeper thread (started by the
/// owning Service, or driven deterministically via sweepNow()) walks
/// the directory, drops entries past the age cut-off, then evicts
/// oldest-mtime-first until the byte watermark holds — LRU by the only
/// recency signal a shared directory offers. Sweeping is safe against
/// concurrent stores because publication is temp+rename: the sweeper
/// skips dot-prefixed temp files, and unlinking a just-published entry
/// merely costs the next load a recompile. It never serves, nor
/// destroys, a half-written entry.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_DISKCACHE_H
#define RML_SERVICE_DISKCACHE_H

#include "service/Hash.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace rml::service {

struct CachedCompile;
using CachedCompileRef = std::shared_ptr<const CachedCompile>;

/// The persistent tier: load/store of static compile products keyed by
/// CacheKey. Thread-safe (counters are atomics; the filesystem provides
/// the write atomicity) and safe to share between processes pointed at
/// the same directory.
class DiskCache {
public:
  struct Counters {
    /// Verified loads served from disk.
    uint64_t Hits = 0;
    /// Loads that found no entry file.
    uint64_t Misses = 0;
    /// Entries that failed to persist (unwritable directory, rename
    /// failure); the request proceeds, only the warm start is lost.
    uint64_t WriteErrors = 0;
    /// Entry files rejected at load: bad magic/version, a checksum
    /// mismatch, truncation, a read error, or a hash collision
    /// (embedded source/options differ from the key). All degrade to a
    /// miss.
    uint64_t LoadRejects = 0;
    /// Entry files the sweeper evicted (age cut-off or byte
    /// watermark), and their summed sizes.
    uint64_t SweptFiles = 0;
    uint64_t SweptBytes = 0;
    /// Sweeper passes that could not scan the directory, plus
    /// individual removals that failed (permissions, races lost in
    /// unexpected ways). The sweeper carries on; nothing throws.
    uint64_t SweepErrors = 0;
  };

  /// Retention policy for the sweeper. Zero fields impose no bound of
  /// that kind; an all-zero config makes every sweep a no-op.
  struct SweepConfig {
    /// Byte watermark over the summed entry sizes: the sweeper evicts
    /// oldest-mtime-first until the total fits.
    uint64_t MaxBytes = 0;
    /// Age cut-off: entries whose mtime is older than this many
    /// seconds are evicted regardless of the byte total.
    uint64_t MaxAgeSeconds = 0;
    /// Cadence of the background sweeper thread.
    uint64_t IntervalMillis = 5000;
  };

  /// Binds the cache to \p Dir, creating it (and parents) best-effort;
  /// a directory that cannot be created simply fails every store.
  explicit DiskCache(std::string Dir);

  /// Joins the sweeper if it is still running.
  ~DiskCache();

  /// Loads and verifies the entry for \p K; null on miss or rejection.
  /// A returned entry has FromDisk set and carries the persisted static
  /// products plus, for successful compiles, the decoded flat unit — so
  /// it is runnable without recompiling.
  CachedCompileRef load(const CacheKey &K) const;

  /// Persists \p V under \p K's hash, atomically. A no-op when the
  /// entry file already exists (determinism: the bytes would be
  /// identical) or when \p V itself came from disk. Best effort:
  /// failures count WriteErrors and are otherwise swallowed.
  void store(const CacheKey &K, const CachedCompile &V) const;

  Counters counters() const;
  const std::string &dir() const { return Dir; }

  /// Starts the background sweeper under \p Cfg. Idempotent per cache
  /// (a second call is ignored); an all-zero config starts nothing.
  /// The thread sweeps once immediately, then every IntervalMillis
  /// until stopSweeper() (or destruction) joins it.
  void startSweeper(const SweepConfig &Cfg);

  /// Stops and joins the sweeper thread. Safe to call when it was
  /// never started, and again after it stopped.
  void stopSweeper();

  /// One synchronous sweep pass under \p Cfg, independent of the
  /// background thread — the deterministic path tests and tools use.
  /// \returns files evicted by this pass.
  uint64_t sweepNow(const SweepConfig &Cfg) const;

  /// "<16 hex digits>.rmlc" — the entry file name for \p Hash.
  static std::string entryFileName(uint64_t Hash);

  /// Current serialisation version; bumped on any format change so old
  /// files fail closed to a miss instead of being misparsed. Version 2
  /// appended the embedded flat unit; version 3 added the Captures
  /// option byte and the persisted capture report; version 4 dropped
  /// the per-entry eviction cost; version 5 embeds flat v3 (slot-
  /// resolved 24-byte nodes); version 6 adds the body checksum and
  /// embeds flat v4 (the unit image); v1–v5 files are version-rejected.
  static constexpr uint32_t FormatVersion = 6;
  /// Entry layout: magic, u32 version, then the u64 word-wise checksum
  /// of every byte from BodyOffset on. All little-endian.
  static constexpr size_t ChecksumOffset = 12;
  static constexpr size_t BodyOffset = 20;
  /// First bytes of every entry file.
  static constexpr char Magic[8] = {'R', 'M', 'L', 'D', 'C', 'A', 'C', 'H'};

private:
  std::string Dir;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Misses{0};
  mutable std::atomic<uint64_t> WriteErrors{0};
  mutable std::atomic<uint64_t> LoadRejects{0};
  mutable std::atomic<uint64_t> SweptFiles{0};
  mutable std::atomic<uint64_t> SweptBytes{0};
  mutable std::atomic<uint64_t> SweepErrors{0};
  /// Distinguishes temp files of concurrent writers in one process.
  mutable std::atomic<uint64_t> TmpCounter{0};

  // Background sweeper state. The mutex/cv pair exists only to make
  // stopSweeper() wake a sleeping thread promptly; sweeping itself
  // takes no lock (the filesystem is the shared state).
  std::thread Sweeper;
  std::mutex SweepM;
  std::condition_variable SweepCv;
  bool SweepStop = false;
  void sweeperMain(SweepConfig Cfg);
};

} // namespace rml::service

#endif // RML_SERVICE_DISKCACHE_H
