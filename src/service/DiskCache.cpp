//===- service/DiskCache.cpp ----------------------------------------------===//

#include "service/DiskCache.h"

#include "service/Cache.h"

#include "flat/Flat.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

using namespace rml;
using namespace rml::service;

namespace fs = std::filesystem;

constexpr char DiskCache::Magic[8];

namespace {

//===----------------------------------------------------------------------===//
// Serialisation primitives: explicit little-endian fixed widths, so an
// entry written on any platform parses on any other (and format drift
// is caught by the version field, not by silent misreads).
//===----------------------------------------------------------------------===//

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putStr(std::string &Out, std::string_view S) {
  putU64(Out, S.size());
  Out.append(S.data(), S.size());
}

/// Bounds-checked reader over a loaded entry. Every get sets Ok = false
/// on underrun and returns a zero value; the caller checks Ok once at
/// the end (plus "cursor consumed everything"), so any truncation or
/// corruption anywhere in the file degrades to one rejection.
struct Reader {
  std::string_view Buf;
  size_t Pos = 0;
  bool Ok = true;

  bool take(size_t N) {
    if (!Ok || Buf.size() - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(static_cast<unsigned char>(Buf[Pos++]))
           << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(Buf[Pos++]))
           << (8 * I);
    return V;
  }
  uint8_t u8() {
    if (!take(1))
      return 0;
    return static_cast<unsigned char>(Buf[Pos++]);
  }
  std::string str() {
    uint64_t N = u64();
    if (!take(N))
      return std::string();
    std::string S(Buf.substr(Pos, N));
    Pos += N;
    return S;
  }
  bool done() const { return Ok && Pos == Buf.size(); }
};

} // namespace

DiskCache::DiskCache(std::string DirIn) : Dir(std::move(DirIn)) {
  // Best effort: a directory that cannot exist fails every store (each
  // counted), and every load misses — the service still serves.
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
}

DiskCache::~DiskCache() { stopSweeper(); }

std::string DiskCache::entryFileName(uint64_t Hash) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx.rmlc",
                static_cast<unsigned long long>(Hash));
  return Buf;
}

void DiskCache::store(const CacheKey &K, const CachedCompile &V) const {
  if (V.FromDisk)
    return; // round-tripping a loaded entry would rewrite its own bytes
  fs::path Final = fs::path(Dir) / entryFileName(K.Hash);
  std::error_code Ec;
  if (fs::exists(Final, Ec))
    return; // determinism: the resident bytes are already this entry

  std::string Buf;
  Buf.append(Magic, sizeof(Magic));
  putU32(Buf, FormatVersion);
  Buf.push_back(static_cast<char>(K.Strat));
  Buf.push_back(static_cast<char>(K.Spurious));
  Buf.push_back(K.Check ? 1 : 0);
  Buf.push_back(K.Captures ? 1 : 0);
  Buf.push_back(V.Ok ? 1 : 0);
  putU64(Buf, K.Hash);
  putStr(Buf, K.Source);
  putStr(Buf, V.Diagnostics);
  putStr(Buf, V.Printed);
  putStr(Buf, V.CaptureReport);
  putU64(Buf, V.Schemes.size());
  for (const auto &[Name, Scheme] : V.Schemes) {
    putStr(Buf, Name);
    putStr(Buf, Scheme);
  }
  putU64(Buf, V.Profiles.size());
  for (const PhaseProfile &P : V.Profiles)
    putStr(Buf, P.Name);
  putU64(Buf, V.Cost);
  // The runnable payload: the flat unit's own self-checking encoding
  // (magic, version, checksum) nested as one counted string. Successful
  // compiles always carry one; failed compiles persist presence 0.
  if (V.Flat) {
    Buf.push_back(1);
    putStr(Buf, flat::encodeFlat(*V.Flat));
  } else {
    Buf.push_back(0);
  }

  // Atomic publish: a private temp file in the same directory, then
  // rename over the final name. Readers (and racing writers, in this
  // process or another) see a complete entry or none.
  fs::path Tmp = fs::path(Dir) /
                 ("." + entryFileName(K.Hash) + ".tmp." +
                  std::to_string(TmpCounter.fetch_add(1)) + "." +
                  std::to_string(reinterpret_cast<uintptr_t>(this) & 0xffff));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out || !Out.write(Buf.data(), static_cast<std::streamsize>(Buf.size()))) {
      ++WriteErrors;
      fs::remove(Tmp, Ec);
      return;
    }
  }
  fs::rename(Tmp, Final, Ec);
  if (Ec) {
    ++WriteErrors;
    fs::remove(Tmp, Ec);
  }
}

CachedCompileRef DiskCache::load(const CacheKey &K) const {
  fs::path Path = fs::path(Dir) / entryFileName(K.Hash);
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    ++Misses;
    return nullptr;
  }
  std::string Buf((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  In.close();

  Reader R{Buf};
  char FileMagic[sizeof(Magic)];
  bool MagicOk = R.take(sizeof(Magic));
  if (MagicOk) {
    std::memcpy(FileMagic, Buf.data() + R.Pos, sizeof(Magic));
    R.Pos += sizeof(Magic);
    MagicOk = std::memcmp(FileMagic, Magic, sizeof(Magic)) == 0;
  }
  uint32_t Version = R.u32();
  uint8_t Strat = R.u8(), Spurious = R.u8(), Check = R.u8();
  uint8_t Captures = R.u8(), Ok = R.u8();
  uint64_t Hash = R.u64();
  std::string Source = R.str();
  auto CC = std::make_shared<CachedCompile>();
  CC->FromDisk = true;
  CC->Ok = Ok != 0;
  CC->Diagnostics = R.str();
  CC->Printed = R.str();
  CC->CaptureReport = R.str();
  uint64_t NumSchemes = R.u64();
  for (uint64_t I = 0; R.Ok && I < NumSchemes; ++I) {
    std::string Name = R.str();
    std::string Scheme = R.str();
    CC->Schemes.emplace_back(std::move(Name), std::move(Scheme));
  }
  uint64_t NumPhases = R.u64();
  for (uint64_t I = 0; R.Ok && I < NumPhases; ++I) {
    PhaseProfile P;
    P.Name = R.str();
    // The static work happened in some earlier process; this entry
    // reports the phase shape as reused, exactly like a memory hit.
    P.Skipped = true;
    CC->Profiles.push_back(std::move(P));
  }
  CC->Cost = std::max<uint64_t>(1, R.u64());
  uint8_t HasFlat = R.u8();
  std::string FlatBytes = HasFlat == 1 ? R.str() : std::string();

  // Fail closed: structural damage (truncation, trailing bytes, bad
  // magic/version, a flat-presence byte that disagrees with the ok
  // byte) and key mismatches — including a genuine FNV-1a collision,
  // where the hash matches but the embedded source or option bytes
  // differ — all reject to a miss. Never a wrong answer.
  if (!R.done() || !MagicOk || Version != FormatVersion ||
      HasFlat > 1 || Ok != HasFlat || Hash != K.Hash || Source != K.Source ||
      Strat != static_cast<uint8_t>(K.Strat) ||
      Spurious != static_cast<uint8_t>(K.Spurious) ||
      Check != (K.Check ? 1 : 0) || Captures != (K.Captures ? 1 : 0)) {
    ++LoadRejects;
    return nullptr;
  }
  if (HasFlat == 1) {
    // The flat payload carries its own magic/version/checksum and an
    // exhaustive index validation; any damage decodes to null and
    // rejects the whole entry — a "hit" whose run would recompile (or
    // worse, misbehave) is not a hit.
    CC->Flat = flat::decodeFlat(FlatBytes);
    if (!CC->Flat) {
      ++LoadRejects;
      return nullptr;
    }
  }
  ++Hits;
  return CC;
}

DiskCache::Counters DiskCache::counters() const {
  Counters C;
  C.Hits = Hits.load(std::memory_order_relaxed);
  C.Misses = Misses.load(std::memory_order_relaxed);
  C.WriteErrors = WriteErrors.load(std::memory_order_relaxed);
  C.LoadRejects = LoadRejects.load(std::memory_order_relaxed);
  C.SweptFiles = SweptFiles.load(std::memory_order_relaxed);
  C.SweptBytes = SweptBytes.load(std::memory_order_relaxed);
  C.SweepErrors = SweepErrors.load(std::memory_order_relaxed);
  return C;
}

//===----------------------------------------------------------------------===//
// Sweeper
//===----------------------------------------------------------------------===//

namespace {

/// Only published entry files ("<16 hex>.rmlc") are sweepable. Temp
/// files (dot-prefixed, mid-publication) and anything foreign the
/// operator parked in the directory are left alone.
bool isEntryFileName(const std::string &Name) {
  constexpr std::string_view Suffix = ".rmlc";
  if (Name.size() != 16 + Suffix.size())
    return false;
  if (std::string_view(Name).substr(16) != Suffix)
    return false;
  for (size_t I = 0; I < 16; ++I) {
    char C = Name[I];
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  }
  return true;
}

struct SweepCandidate {
  fs::path Path;
  uint64_t Bytes = 0;
  fs::file_time_type Mtime;
};

} // namespace

uint64_t DiskCache::sweepNow(const SweepConfig &Cfg) const {
  if (Cfg.MaxBytes == 0 && Cfg.MaxAgeSeconds == 0)
    return 0; // unbounded: nothing to enforce

  // Snapshot the directory first. Entries published after the scan are
  // simply next sweep's problem; entries removed under us (another
  // sweeper, an operator's rm) just make the removal below a no-op.
  std::vector<SweepCandidate> Entries;
  uint64_t TotalBytes = 0;
  {
    std::error_code Ec;
    fs::directory_iterator It(Dir, Ec), End;
    if (Ec) {
      ++SweepErrors;
      return 0;
    }
    for (; It != End; It.increment(Ec)) {
      if (Ec) {
        ++SweepErrors;
        return 0;
      }
      std::error_code FileEc;
      if (!It->is_regular_file(FileEc) || FileEc)
        continue;
      std::string Name = It->path().filename().string();
      if (!isEntryFileName(Name))
        continue; // dot-prefixed temp files and foreign files stay
      SweepCandidate C;
      C.Path = It->path();
      auto Sz = fs::file_size(C.Path, FileEc);
      if (FileEc)
        continue; // unlinked between iteration and stat: already gone
      C.Bytes = Sz;
      C.Mtime = fs::last_write_time(C.Path, FileEc);
      if (FileEc)
        continue;
      TotalBytes += C.Bytes;
      Entries.push_back(std::move(C));
    }
  }

  uint64_t Evicted = 0;
  auto evict = [&](const SweepCandidate &C) {
    std::error_code Ec;
    if (fs::remove(C.Path, Ec) && !Ec) {
      ++SweptFiles;
      SweptBytes.fetch_add(C.Bytes, std::memory_order_relaxed);
      TotalBytes -= std::min(TotalBytes, C.Bytes);
      ++Evicted;
    } else if (Ec) {
      ++SweepErrors;
    } else {
      // remove() returned false without error: the file vanished under
      // us (a racing sweeper won). Not an error, but the bytes are
      // gone from the directory either way.
      TotalBytes -= std::min(TotalBytes, C.Bytes);
    }
  };

  // Age pass: anything older than the cut-off goes, independent of the
  // byte total.
  if (Cfg.MaxAgeSeconds) {
    auto CutOff = fs::file_time_type::clock::now() -
                  std::chrono::seconds(Cfg.MaxAgeSeconds);
    std::vector<SweepCandidate> Kept;
    Kept.reserve(Entries.size());
    for (SweepCandidate &C : Entries) {
      if (C.Mtime < CutOff)
        evict(C);
      else
        Kept.push_back(std::move(C));
    }
    Entries = std::move(Kept);
  }

  // Size pass: oldest mtime first until the watermark holds. Mtime is
  // the only recency signal every process sharing the directory
  // updates, which makes this LRU-by-publication — good enough, since
  // a wrongly evicted entry costs one recompile, never a wrong answer.
  if (Cfg.MaxBytes && TotalBytes > Cfg.MaxBytes) {
    std::sort(Entries.begin(), Entries.end(),
              [](const SweepCandidate &A, const SweepCandidate &B) {
                return A.Mtime < B.Mtime;
              });
    for (const SweepCandidate &C : Entries) {
      if (TotalBytes <= Cfg.MaxBytes)
        break;
      evict(C);
    }
  }
  return Evicted;
}

void DiskCache::startSweeper(const SweepConfig &Cfg) {
  if (Sweeper.joinable())
    return; // already running
  if (Cfg.MaxBytes == 0 && Cfg.MaxAgeSeconds == 0)
    return; // nothing to enforce, no thread to pay for
  {
    std::lock_guard<std::mutex> Lock(SweepM);
    SweepStop = false;
  }
  Sweeper = std::thread([this, Cfg] { sweeperMain(Cfg); });
}

void DiskCache::stopSweeper() {
  if (!Sweeper.joinable())
    return;
  {
    std::lock_guard<std::mutex> Lock(SweepM);
    SweepStop = true;
  }
  SweepCv.notify_all();
  Sweeper.join();
}

void DiskCache::sweeperMain(SweepConfig Cfg) {
  const auto Interval =
      std::chrono::milliseconds(std::max<uint64_t>(1, Cfg.IntervalMillis));
  // Sweep immediately: a process started against an over-watermark
  // directory (say, after lowering --cache-max-bytes) should bound it
  // now, not one interval from now.
  sweepNow(Cfg);
  for (;;) {
    std::unique_lock<std::mutex> Lock(SweepM);
    if (SweepCv.wait_for(Lock, Interval, [this] { return SweepStop; }))
      return;
    Lock.unlock();
    sweepNow(Cfg);
  }
}
