//===- tests/disk_cache_test.cpp - Persistent compile-cache tier ----------===//
//
// The on-disk tier beneath the in-memory compile cache: round-trip
// fidelity of the persisted static products, fail-closed behaviour under
// every corruption we can manufacture (truncation, bad magic/version,
// trailing garbage, a flipped bit in any text section, forged hash
// collisions, unreadable entries, unwritable directories), and
// the service-level warm-restart story — a second process pointed at the
// same --cache-dir serves byte-identical answers from disk. Labelled
// `disk` in ctest and expected to be clean under -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "service/DiskCache.h"

#include "flat/Flat.h"
#include "service/Service.h"
#include "support/Checksum.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace rml;
using namespace rml::service;

namespace fs = std::filesystem;

namespace {

/// The polymorphic program the service tests use: two top-level
/// schemes, letregion placement, enough work to be a realistic entry.
const char *ComposeProgram = R"(
fun compose fg = fn x => #1 fg (#2 fg x)
fun iter n acc =
  if n = 0 then acc
  else let val h = compose (fn x => x + 1, fn x => x * 2)
       in iter (n - 1) acc + h n - h n end
;iter 600 21
)";

/// A fresh directory under the test binary's scratch space, removed on
/// destruction. GTest's TempDir() is per-run, so a per-test suffix
/// keeps concurrent test shards apart.
struct ScratchDir {
  fs::path Path;
  explicit ScratchDir(const std::string &Name) {
    Path = fs::path(::testing::TempDir()) / ("rml_disk_" + Name);
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

std::string readFileBytes(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const fs::path &P, const std::string &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

size_t entryCount(const fs::path &Dir) {
  size_t N = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".rmlc")
      ++N;
  return N;
}

TEST(DiskCacheTest, EntryFileNameIsSixteenHexDigits) {
  EXPECT_EQ(DiskCache::entryFileName(0x1234), "0000000000001234.rmlc");
  EXPECT_EQ(DiskCache::entryFileName(0xDEADBEEFCAFEF00Dull),
            "deadbeefcafef00d.rmlc");
}

TEST(DiskCacheTest, RoundTripIsByteIdentical) {
  ScratchDir Dir("roundtrip");
  DiskCache Disk(Dir.str());

  CompileOptions Opts;
  CacheKey K = CacheKey::of(ComposeProgram, Opts);
  CachedCompileRef Fresh = compileShared(ComposeProgram, Opts);
  ASSERT_TRUE(Fresh->ok());
  ASSERT_FALSE(Fresh->Schemes.empty());
  Disk.store(K, *Fresh);
  ASSERT_TRUE(fs::exists(Dir.Path / DiskCache::entryFileName(K.Hash)));

  CachedCompileRef Loaded = Disk.load(K);
  ASSERT_NE(Loaded, nullptr);
  EXPECT_TRUE(Loaded->FromDisk);
  EXPECT_TRUE(Loaded->ok());
  ASSERT_NE(Loaded->Flat, nullptr) << "the embedded flat unit runs directly";
  // The decoded flat unit re-encodes to exactly the bytes the fresh
  // compile's flat unit encodes to — the persisted runnable form is
  // byte-stable through a full store/load cycle.
  ASSERT_NE(Fresh->Flat, nullptr);
  EXPECT_EQ(flat::encodeFlat(*Loaded->Flat), flat::encodeFlat(*Fresh->Flat));
  // The static products are the same bytes, not merely equivalent.
  EXPECT_EQ(Loaded->Printed, Fresh->Printed);
  EXPECT_EQ(Loaded->Diagnostics, Fresh->Diagnostics);
  EXPECT_EQ(Loaded->Schemes, Fresh->Schemes);
  EXPECT_EQ(Loaded->schemeOf("compose"), Fresh->schemeOf("compose"));
  // Phase names survive (as skipped profiles — the work was not redone).
  ASSERT_EQ(Loaded->Profiles.size(), Fresh->Profiles.size());
  for (size_t I = 0; I < Loaded->Profiles.size(); ++I) {
    EXPECT_EQ(Loaded->Profiles[I].Name, Fresh->Profiles[I].Name);
    EXPECT_TRUE(Loaded->Profiles[I].Skipped);
  }

  DiskCache::Counters C = Disk.counters();
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Misses, 0u);
  EXPECT_EQ(C.LoadRejects, 0u);
  EXPECT_EQ(C.WriteErrors, 0u);
}

TEST(DiskCacheTest, FailedCompilePersistsItsDiagnostics) {
  ScratchDir Dir("failed");
  DiskCache Disk(Dir.str());

  CompileOptions Opts;
  const std::string Bad = "nosuchvar + 1";
  CacheKey K = CacheKey::of(Bad, Opts);
  CachedCompileRef Fresh = compileShared(Bad, Opts);
  ASSERT_FALSE(Fresh->ok());
  ASSERT_FALSE(Fresh->Diagnostics.empty());
  Disk.store(K, *Fresh);

  CachedCompileRef Loaded = Disk.load(K);
  ASSERT_NE(Loaded, nullptr);
  EXPECT_FALSE(Loaded->ok()) << "the persisted verdict is the failure";
  EXPECT_EQ(Loaded->Flat, nullptr);
  EXPECT_EQ(Loaded->Diagnostics, Fresh->Diagnostics);
}

TEST(DiskCacheTest, MissingEntryIsAMissNotAReject) {
  ScratchDir Dir("missing");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of("1 + 1", {});
  EXPECT_EQ(Disk.load(K), nullptr);
  DiskCache::Counters C = Disk.counters();
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.LoadRejects, 0u);
}

TEST(DiskCacheTest, StoreSkipsExistingAndDiskBornEntries) {
  ScratchDir Dir("idempotent");
  DiskCache Disk(Dir.str());

  CompileOptions Opts;
  CacheKey K = CacheKey::of("1 + 1", Opts);
  CachedCompileRef Fresh = compileShared("1 + 1", Opts);
  Disk.store(K, *Fresh);
  ASSERT_EQ(entryCount(Dir.Path), 1u);
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  auto FirstWrite = fs::last_write_time(File);

  // A second store is a no-op: determinism means the bytes would be
  // identical, so the existing file stands.
  Disk.store(K, *Fresh);
  EXPECT_EQ(entryCount(Dir.Path), 1u);
  EXPECT_EQ(fs::last_write_time(File), FirstWrite);

  // An entry that itself came from disk is never written back.
  CachedCompileRef Loaded = Disk.load(K);
  ASSERT_NE(Loaded, nullptr);
  fs::remove(File);
  Disk.store(K, *Loaded);
  EXPECT_EQ(entryCount(Dir.Path), 0u);
  EXPECT_EQ(Disk.counters().WriteErrors, 0u);
}

/// Stores ComposeProgram and returns (key, path-to-entry-file) so each
/// corruption test can damage it a different way.
fs::path storeComposeEntry(DiskCache &Disk, const fs::path &Dir,
                           CacheKey &KOut) {
  CompileOptions Opts;
  KOut = CacheKey::of(ComposeProgram, Opts);
  CachedCompileRef Fresh = compileShared(ComposeProgram, Opts);
  Disk.store(KOut, *Fresh);
  fs::path File = Dir / DiskCache::entryFileName(KOut.Hash);
  EXPECT_TRUE(fs::exists(File));
  return File;
}

TEST(DiskCacheTest, TruncatedEntryRejectsToAMiss) {
  ScratchDir Dir("truncated");
  DiskCache Disk(Dir.str());
  CacheKey K;
  fs::path File = storeComposeEntry(Disk, Dir.Path, K);

  fs::resize_file(File, fs::file_size(File) / 2);
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);

  // All the way down to an empty file.
  fs::resize_file(File, 0);
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 2u);
}

TEST(DiskCacheTest, BadMagicRejectsToAMiss) {
  ScratchDir Dir("badmagic");
  DiskCache Disk(Dir.str());
  CacheKey K;
  fs::path File = storeComposeEntry(Disk, Dir.Path, K);

  std::string Bytes = readFileBytes(File);
  ASSERT_GT(Bytes.size(), 8u);
  Bytes[0] ^= 0x20; // 'R' -> 'r'
  writeFileBytes(File, Bytes);
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
}

TEST(DiskCacheTest, ForeignVersionRejectsToAMiss) {
  ScratchDir Dir("badversion");
  DiskCache Disk(Dir.str());
  CacheKey K;
  fs::path File = storeComposeEntry(Disk, Dir.Path, K);

  // The format version is the little-endian u32 right after the magic;
  // pretend a future process wrote version+1.
  std::string Bytes = readFileBytes(File);
  ASSERT_GT(Bytes.size(), 12u);
  Bytes[8] = static_cast<char>(DiskCache::FormatVersion + 1);
  writeFileBytes(File, Bytes);
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
}

TEST(DiskCacheTest, TrailingGarbageRejectsToAMiss) {
  ScratchDir Dir("trailing");
  DiskCache Disk(Dir.str());
  CacheKey K;
  fs::path File = storeComposeEntry(Disk, Dir.Path, K);

  std::string Bytes = readFileBytes(File);
  writeFileBytes(File, Bytes + "extra");
  EXPECT_EQ(Disk.load(K), nullptr) << "a parse must consume every byte";
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
}

TEST(DiskCacheTest, HashCollisionFailsClosed) {
  ScratchDir Dir("collision");
  DiskCache Disk(Dir.str());
  CacheKey K;
  storeComposeEntry(Disk, Dir.Path, K);

  // Forge the collision FNV-1a cannot rule out: a different source
  // whose key claims the same 64-bit hash. The load finds the entry
  // file, sees the embedded source differ, and rejects — the service
  // recompiles rather than serving another program's products.
  CacheKey Forged = CacheKey::of("1 + 1", {});
  Forged.Hash = K.Hash;
  EXPECT_EQ(Disk.load(Forged), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);

  // Options are part of the identity too: same source, same hash,
  // different checker toggle must also fail closed.
  CacheKey OptForged = K;
  OptForged.Opts.Check = !OptForged.Opts.Check;
  EXPECT_EQ(Disk.load(OptForged), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 2u);
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putStr(std::string &Out, std::string_view S) {
  putU64(Out, S.size());
  Out.append(S.data(), S.size());
}

/// The bytes of an entry file for \p V under \p K, written field by
/// field. Version 3 carried a u64 eviction cost between the phase names
/// and the flat presence byte; version 4 dropped it; version 6 put the
/// body checksum after the version.
std::string entryBytes(uint32_t Version, const CacheKey &K,
                       const CachedCompile &V) {
  std::string Out(DiskCache::Magic, sizeof(DiskCache::Magic));
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((Version >> (8 * I)) & 0xff));
  if (Version >= 6)
    putU64(Out, 0); // the checksum, filled in below
  size_t Body = Out.size();
  for (uint8_t B : encodeOptions(K.Opts))
    Out.push_back(static_cast<char>(B));
  Out.push_back(V.Ok ? 1 : 0);
  putU64(Out, K.Hash);
  putStr(Out, K.Source);
  putStr(Out, V.Diagnostics);
  putStr(Out, V.Printed);
  putStr(Out, V.CaptureReport);
  putU64(Out, V.Schemes.size());
  for (const auto &[Name, Scheme] : V.Schemes) {
    putStr(Out, Name);
    putStr(Out, Scheme);
  }
  putU64(Out, V.Profiles.size());
  for (const PhaseProfile &P : V.Profiles)
    putStr(Out, P.Name);
  if (Version == 3)
    putU64(Out, 1234); // the eviction cost
  Out.push_back(V.Flat ? 1 : 0);
  if (V.Flat)
    putStr(Out, flat::encodeFlat(*V.Flat));
  if (Version >= 6) {
    uint64_t Sum = wordChecksum(std::string_view(Out).substr(Body));
    std::memcpy(Out.data() + DiskCache::ChecksumOffset, &Sum, sizeof(Sum));
  }
  return Out;
}

TEST(DiskCacheTest, WellFormedVersion3EntryIsACountedReject) {
  ScratchDir Dir("v3");
  DiskCache Disk(Dir.str());
  CacheKey K;
  fs::path File = storeComposeEntry(Disk, Dir.Path, K);
  CachedCompileRef Fresh = compileShared(ComposeProgram, K.Opts);

  // The field-by-field writer reproduces the current format exactly,
  // so its version-3 output is a well-formed entry of that version.
  ASSERT_EQ(readFileBytes(File),
            entryBytes(DiskCache::FormatVersion, K, *Fresh));
  writeFileBytes(File, entryBytes(3, K, *Fresh));
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
  EXPECT_EQ(Disk.counters().Hits, 0u);
}

TEST(DiskCacheTest, EveryOptionCombinationIsItsOwnEntry) {
  // 3 strategies x 2 spurious modes x check x captures.
  std::vector<CompileOptions> All;
  for (Strategy St : {Strategy::Rg, Strategy::RgMinus, Strategy::R})
    for (SpuriousMode Sp :
         {SpuriousMode::FreshSecondary, SpuriousMode::IdentifyWithFun})
      for (bool Check : {false, true})
        for (bool Captures : {false, true}) {
          CompileOptions O;
          O.Strat = St;
          O.Spurious = Sp;
          O.Check = Check;
          O.Captures = Captures;
          All.push_back(O);
        }
  ASSERT_EQ(All.size(), 24u);

  const char *Src = "let val f = fn x => x in f 1 end";
  std::vector<CacheKey> Keys;
  for (const CompileOptions &O : All)
    Keys.push_back(CacheKey::of(Src, O));
  for (size_t I = 0; I < Keys.size(); ++I)
    for (size_t J = I + 1; J < Keys.size(); ++J) {
      EXPECT_NE(Keys[I], Keys[J]) << I << " vs " << J;
      EXPECT_NE(Keys[I].Hash, Keys[J].Hash) << I << " vs " << J;
    }

  // Store under each combination, then present that entry to a load
  // under every other combination: the file sits at the other key's
  // name and claims its hash, so only the option bytes differ.
  ScratchDir Dir("options");
  DiskCache Disk(Dir.str());
  uint64_t Rejects = 0;
  for (size_t I = 0; I < Keys.size(); ++I) {
    CachedCompileRef CC = compileShared(Src, All[I]);
    Disk.store(Keys[I], *CC);
    ASSERT_NE(Disk.load(Keys[I]), nullptr) << I;
    for (size_t J = 0; J < Keys.size(); ++J) {
      if (J == I)
        continue;
      CacheKey Forged = Keys[I];
      Forged.Hash = Keys[J].Hash;
      fs::path Other = Dir.Path / DiskCache::entryFileName(Keys[J].Hash);
      writeFileBytes(Other, entryBytes(DiskCache::FormatVersion, Forged, *CC));
      EXPECT_EQ(Disk.load(Keys[J]), nullptr) << I << " loaded as " << J;
      EXPECT_EQ(Disk.counters().LoadRejects, ++Rejects);
      fs::remove(Other);
    }
  }
  EXPECT_EQ(Disk.counters().Hits, Keys.size());
}

/// A program whose entry fills every text section: the shadowed `pick`
/// draws a warning (diagnostics), closures fill the capture report
/// under Captures, and `pick`/`compose` have schemes.
const char *TextfulProgram = R"(
fun pick x = x
fun pick p = #1 p
fun compose fg = fn x => #1 fg (#2 fg x)
;pick (compose (fn x => x + 1, fn x => x * 2) 20, 0)
)";

CompileOptions textfulOptions() {
  CompileOptions Opts;
  Opts.Captures = true;
  return Opts;
}

/// The entry offset of the first byte of each text section, found by
/// walking the entry's fields.
std::vector<std::pair<std::string, size_t>>
textSections(const std::string &B) {
  size_t At = DiskCache::BodyOffset + 4 + 1 + 8; // options, ok, hash
  auto U64 = [&] {
    uint64_t V;
    std::memcpy(&V, B.data() + At, sizeof(V));
    At += sizeof(V);
    return V;
  };
  auto Str = [&] {
    uint64_t N = U64();
    size_t Begin = At;
    At += N;
    EXPECT_GT(N, 0u) << "an empty text section at " << Begin;
    return Begin;
  };
  std::vector<std::pair<std::string, size_t>> Out;
  Str(); // the source, which the key check already covers
  Out.emplace_back("diagnostics", Str());
  Out.emplace_back("printed program", Str());
  Out.emplace_back("capture report", Str());
  uint64_t Schemes = U64();
  EXPECT_GT(Schemes, 0u);
  Out.emplace_back("scheme name", Str());
  Out.emplace_back("scheme body", Str());
  for (uint64_t I = 1; I < Schemes; ++I) {
    Str();
    Str();
  }
  EXPECT_GT(U64(), 0u);
  Out.emplace_back("phase name", Str());
  return Out;
}

TEST(DiskCacheTest, EveryTextSectionBitFlipIsACountedLoadReject) {
  // Before the entry carried a body checksum, a flipped bit in a text
  // section loaded as a hit and served the damaged text.
  ScratchDir Dir("text_flips");
  DiskCache Disk(Dir.str());
  CompileOptions Opts = textfulOptions();
  CacheKey K = CacheKey::of(TextfulProgram, Opts);
  CachedCompileRef Fresh = compileShared(TextfulProgram, Opts);
  ASSERT_TRUE(Fresh->ok());
  ASSERT_FALSE(Fresh->Diagnostics.empty());
  ASSERT_FALSE(Fresh->CaptureReport.empty());
  Disk.store(K, *Fresh);
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  const std::string Good = readFileBytes(File);

  uint64_t Rejects = 0;
  for (const auto &[Name, Offset] : textSections(Good)) {
    SCOPED_TRACE(Name);
    std::string Bytes = Good;
    Bytes[Offset] = static_cast<char>(Bytes[Offset] ^ 0x01);
    writeFileBytes(File, Bytes);
    EXPECT_EQ(Disk.load(K), nullptr);
    EXPECT_EQ(Disk.counters().LoadRejects, ++Rejects);
  }
  EXPECT_EQ(Rejects, 6u);
  EXPECT_EQ(Disk.counters().Hits, 0u);
  writeFileBytes(File, Good);
  EXPECT_NE(Disk.load(K), nullptr) << "the undamaged entry still loads";
}

TEST(DiskCacheTest, UnreadableEntryIsACountedReject) {
  // Something sits at the entry's name but cannot be read as a file: a
  // read error, not a missing entry.
  ScratchDir Dir("unreadable");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of("1 + 1", {});
  fs::create_directories(Dir.Path / DiskCache::entryFileName(K.Hash));
  EXPECT_EQ(Disk.load(K), nullptr);
  DiskCache::Counters C = Disk.counters();
  EXPECT_EQ(C.LoadRejects, 1u);
  EXPECT_EQ(C.Misses, 0u);
}

TEST(DiskCacheTest, FlatImageUnderOtherOptionsIsACountedReject) {
  // A well-formed entry whose nested flat image was compiled under
  // other options: the image's own option bytes give it away.
  ScratchDir Dir("flat_options");
  DiskCache Disk(Dir.str());
  CompileOptions Opts, Other;
  Other.Check = false;
  CacheKey K = CacheKey::of(ComposeProgram, Opts);
  CachedCompile Mixed = *compileShared(ComposeProgram, Opts);
  Mixed.Flat = compileShared(ComposeProgram, Other)->Flat;
  ASSERT_NE(Mixed.Flat, nullptr);
  writeFileBytes(Dir.Path / DiskCache::entryFileName(K.Hash),
                 entryBytes(DiskCache::FormatVersion, K, Mixed));
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
}

TEST(DiskCacheTest, UnwritableDirectoryCountsWriteErrors) {
  ScratchDir Dir("unwritable");
  // A path nested under a regular *file* can never be created, even
  // running as root — mkdir fails with ENOTDIR.
  fs::path Blocker = Dir.Path / "blocker";
  writeFileBytes(Blocker, "not a directory");
  DiskCache Disk((Blocker / "sub").string());

  CompileOptions Opts;
  CacheKey K = CacheKey::of("1 + 1", Opts);
  CachedCompileRef Fresh = compileShared("1 + 1", Opts);
  Disk.store(K, *Fresh); // must not throw
  EXPECT_EQ(Disk.counters().WriteErrors, 1u);
  EXPECT_EQ(Disk.load(K), nullptr); // and loads just miss
  EXPECT_EQ(Disk.counters().Misses, 1u);
}

//===----------------------------------------------------------------------===//
// The two-tier story end to end: Service + CompileCache + DiskCache.
//===----------------------------------------------------------------------===//

ServiceConfig diskServiceConfig(const std::string &Dir, unsigned Workers) {
  ServiceConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.QueueCapacity = 32;
  Cfg.CacheCapacity = 32;
  Cfg.CacheDir = Dir;
  return Cfg;
}

TEST(DiskServiceTest, WarmRestartServesByteIdenticalAnswersFromDisk) {
  ScratchDir Dir("warm_restart");

  Request Req;
  Req.Source = ComposeProgram;
  Req.Run = false; // static products only — the disk tier's home turf
  Req.SchemeNames = {"compose", "iter"};

  // First service: cold, compiles, writes through.
  Response Cold;
  {
    Service Svc(diskServiceConfig(Dir.str(), 1));
    Cold = Svc.submit(Req).get();
    ASSERT_EQ(Cold.Status, RequestOutcome::Ok) << Cold.Diagnostics;
    ASSERT_TRUE(Cold.CompileOk);
    ASSERT_FALSE(Cold.CacheHit);
    ServiceStats S = Svc.stats();
    EXPECT_EQ(S.DiskMisses, 1u);
    EXPECT_EQ(S.DiskHits, 0u);
    EXPECT_EQ(S.DiskWriteErrors, 0u);
  }
  ASSERT_EQ(entryCount(Dir.Path), 1u) << "the entry must outlive the process";

  // Second service, same directory: the memory tier is empty, the disk
  // tier answers, and the bytes are identical to the cold compile.
  {
    Service Svc(diskServiceConfig(Dir.str(), 1));
    Response Warm = Svc.submit(Req).get();
    ASSERT_EQ(Warm.Status, RequestOutcome::Ok) << Warm.Diagnostics;
    EXPECT_TRUE(Warm.CacheHit) << "a verified disk hit is a cache hit";
    EXPECT_EQ(Warm.Printed, Cold.Printed);
    EXPECT_EQ(Warm.Diagnostics, Cold.Diagnostics);
    EXPECT_EQ(Warm.Schemes, Cold.Schemes);
    ServiceStats S = Svc.stats();
    EXPECT_EQ(S.DiskHits, 1u);
    EXPECT_EQ(S.DiskLoadRejects, 0u);
    std::string J = S.json();
    EXPECT_NE(J.find("\"disk_hits\":1"), std::string::npos) << J;
  }
}

TEST(DiskServiceTest, SchemeQueriesFromDiskHandleShadowedAndUnknownNames) {
  ScratchDir Dir("schemes");

  // `pick` is bound twice at top level. Compiler::schemeOf answers for
  // the outermost binding (later rebindings dropped), and the persisted
  // table must encode the same rule — a disk entry that kept both rows,
  // or the wrong one, would flip the answer on a warm restart.
  const char *Shadowed = R"(
fun pick x = x
fun pick p = #1 p
;pick (1, 2)
)";

  // Ground truth from a fresh compile, no caches anywhere.
  std::string FreshScheme;
  {
    Compiler C;
    auto Unit = C.compile(Shadowed);
    ASSERT_NE(Unit, nullptr);
    FreshScheme = C.schemeOf(*Unit, "pick");
    ASSERT_FALSE(FreshScheme.empty()) << "outermost pick is polymorphic";
    EXPECT_EQ(C.schemeOf(*Unit, "nosuch"), "");
  }

  Request Req;
  Req.Source = Shadowed;
  Req.Run = false;
  Req.SchemeNames = {"pick", "nosuch"};

  Response Cold;
  {
    Service Svc(diskServiceConfig(Dir.str(), 1));
    Cold = Svc.submit(Req).get();
    ASSERT_EQ(Cold.Status, RequestOutcome::Ok) << Cold.Diagnostics;
    ASSERT_EQ(Cold.Schemes.size(), 2u);
    EXPECT_EQ(Cold.Schemes[0].second, FreshScheme);
    EXPECT_EQ(Cold.Schemes[1].second, "");
  }

  // Warm restart: the table-based answers from the disk entry are the
  // bytes the fresh compile produced — shadowed and unknown alike.
  {
    Service Svc(diskServiceConfig(Dir.str(), 1));
    Response Warm = Svc.submit(Req).get();
    ASSERT_EQ(Warm.Status, RequestOutcome::Ok) << Warm.Diagnostics;
    EXPECT_TRUE(Warm.CacheHit);
    EXPECT_EQ(Svc.stats().DiskHits, 1u);
    ASSERT_EQ(Warm.Schemes.size(), 2u);
    EXPECT_EQ(Warm.Schemes[0].second, FreshScheme);
    EXPECT_EQ(Warm.Schemes[1].second, "");
    EXPECT_EQ(Warm.Schemes, Cold.Schemes);
  }
}

TEST(DiskServiceTest, RunRequestExecutesStraightFromADiskEntry) {
  ScratchDir Dir("disk_run");

  Request Static;
  Static.Source = ComposeProgram;
  Static.Run = false;
  {
    Service Svc(diskServiceConfig(Dir.str(), 1));
    ASSERT_EQ(Svc.submit(Static).get().Status, RequestOutcome::Ok);
  }

  Service Svc(diskServiceConfig(Dir.str(), 1));
  // A static request is served straight from disk...
  Response FromDisk = Svc.submit(Static).get();
  EXPECT_TRUE(FromDisk.CacheHit);
  ASSERT_EQ(Svc.stats().DiskHits, 1u);

  // ...and so is a Run request: the entry's embedded flat unit executes
  // directly — a cache hit with zero compile phases, not a recompile.
  Request Run;
  Run.Source = ComposeProgram;
  Run.EvalOpts.GcThresholdWords = 2048;
  Response First = Svc.submit(Run).get();
  EXPECT_EQ(First.Status, RequestOutcome::Ok) << First.Error;
  EXPECT_TRUE(First.CacheHit) << "disk entries are runnable as loaded";
  EXPECT_EQ(First.ResultText, "21");
  EXPECT_EQ(First.Printed, FromDisk.Printed);
  for (const PhaseProfile &P : First.Profiles) {
    if (P.Name != Compiler::RunPhaseName) {
      EXPECT_TRUE(P.Skipped) << P.Name << " ran on a disk hit";
    }
  }

  Response Second = Svc.submit(Run).get();
  EXPECT_EQ(Second.Status, RequestOutcome::Ok);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(Second.ResultText, First.ResultText);
}

TEST(DiskServiceTest, CorruptEntryDegradesToARecompileNeverAWrongAnswer) {
  ScratchDir Dir("degrade");

  Request Req;
  Req.Source = ComposeProgram;
  Req.Run = false;
  Response Cold;
  {
    Service Svc(diskServiceConfig(Dir.str(), 1));
    Cold = Svc.submit(Req).get();
    ASSERT_EQ(Cold.Status, RequestOutcome::Ok);
  }

  // Smash the entry: flip the magic of the one file in the directory.
  CacheKey K = CacheKey::of(Req.Source, Req.Opts);
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  ASSERT_FALSE(Bytes.empty());
  Bytes[0] ^= 0xFF;
  writeFileBytes(File, Bytes);

  Service Svc(diskServiceConfig(Dir.str(), 1));
  Response R = Svc.submit(Req).get();
  EXPECT_EQ(R.Status, RequestOutcome::Ok) << R.Diagnostics;
  EXPECT_FALSE(R.CacheHit) << "the reject fell through to a compile";
  EXPECT_EQ(R.Printed, Cold.Printed) << "recompiled, byte-identical";
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.DiskLoadRejects, 1u);
  EXPECT_EQ(S.DiskHits, 0u);
}

TEST(DiskServiceTest, TextSectionBitFlipRecompilesTheRightAnswer) {
  ScratchDir Dir("text_flip_service");
  Request Req;
  Req.Source = TextfulProgram;
  Req.Opts = textfulOptions();
  Req.SchemeNames = {"pick", "compose"};
  Response Cold;
  {
    Service Svc(diskServiceConfig(Dir.str(), 1));
    Cold = Svc.submit(Req).get();
    ASSERT_EQ(Cold.Status, RequestOutcome::Ok) << Cold.Diagnostics;
    EXPECT_EQ(Cold.ResultText, "41");
  }
  CacheKey K = CacheKey::of(Req.Source, Req.Opts);
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  const std::string Good = readFileBytes(File);

  for (const auto &[Name, Offset] : textSections(Good)) {
    SCOPED_TRACE(Name);
    std::string Bytes = Good;
    Bytes[Offset] = static_cast<char>(Bytes[Offset] ^ 0x01);
    writeFileBytes(File, Bytes);
    Service Svc(diskServiceConfig(Dir.str(), 1));
    Response R = Svc.submit(Req).get();
    EXPECT_EQ(R.Status, RequestOutcome::Ok) << R.Diagnostics;
    EXPECT_FALSE(R.CacheHit) << "the reject fell through to a compile";
    EXPECT_EQ(R.Diagnostics, Cold.Diagnostics);
    EXPECT_EQ(R.Printed, Cold.Printed);
    EXPECT_EQ(R.CaptureReport, Cold.CaptureReport);
    EXPECT_EQ(R.Schemes, Cold.Schemes);
    EXPECT_EQ(R.ResultText, Cold.ResultText);
    ServiceStats S = Svc.stats();
    EXPECT_EQ(S.DiskLoadRejects, 1u);
    EXPECT_EQ(S.DiskHits, 0u);
  }
}

TEST(DiskServiceTest, CacheDirWithoutMemoryTierStaysDisabled) {
  ScratchDir Dir("disabled");
  ServiceConfig Cfg = diskServiceConfig((Dir.Path / "sub").string(), 1);
  Cfg.CacheCapacity = 0; // no memory tier -> no disk tier either
  Service Svc(Cfg);

  Request Req;
  Req.Source = "1 + 1";
  EXPECT_EQ(Svc.submit(Req).get().Status, RequestOutcome::Ok);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.DiskHits + S.DiskMisses + S.DiskWriteErrors, 0u);
  EXPECT_FALSE(fs::exists(Dir.Path / "sub")) << "no directory is created";
}

TEST(DiskServiceTest, ConcurrentServicesShareOneDirectory) {
  // Two multi-worker services racing on one cache directory: atomic
  // temp+rename publication means every entry file is complete, every
  // response correct, and a third (cold) service warm-starts from what
  // they left behind. TSan-checked.
  ScratchDir Dir("shared");
  std::vector<std::string> Sources;
  for (int I = 0; I < 12; ++I)
    Sources.push_back("10 + " + std::to_string(I));

  {
    Service A(diskServiceConfig(Dir.str(), 4));
    Service B(diskServiceConfig(Dir.str(), 4));
    std::vector<std::future<Response>> Futures;
    for (const std::string &S : Sources) {
      Request Req;
      Req.Source = S;
      Req.Run = false;
      Futures.push_back(A.submit(Req));
      Futures.push_back(B.submit(Req));
    }
    for (auto &F : Futures) {
      Response R = F.get();
      EXPECT_EQ(R.Status, RequestOutcome::Ok) << R.Diagnostics;
      EXPECT_TRUE(R.CompileOk);
    }
    EXPECT_EQ(A.stats().DiskWriteErrors + B.stats().DiskWriteErrors, 0u);
  }
  EXPECT_EQ(entryCount(Dir.Path), Sources.size());

  Service C(diskServiceConfig(Dir.str(), 2));
  std::vector<std::future<Response>> Futures;
  for (const std::string &S : Sources) {
    Request Req;
    Req.Source = S;
    Req.Run = false;
    Futures.push_back(C.submit(Req));
  }
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().CacheHit);
  EXPECT_EQ(C.stats().DiskHits, Sources.size());
}

//===----------------------------------------------------------------------===//
// The sweeper: bounded growth.
//===----------------------------------------------------------------------===//

/// Stores \p N distinct tiny entries and returns their keys, oldest
/// mtime first: entry I's file is back-dated (N - I) minutes so the
/// LRU order under test is explicit, not a racy store-order artifact.
std::vector<CacheKey> storeGradedEntries(const DiskCache &Disk,
                                         const fs::path &Dir, size_t N) {
  std::vector<CacheKey> Keys;
  CompileOptions Opts;
  for (size_t I = 0; I < N; ++I) {
    std::string Src = ";1 + " + std::to_string(I) + "\n";
    CacheKey K = CacheKey::of(Src, Opts);
    CachedCompileRef V = compileShared(Src, Opts);
    Disk.store(K, *V);
    fs::path P = Dir / DiskCache::entryFileName(K.Hash);
    EXPECT_TRUE(fs::exists(P));
    fs::last_write_time(P, fs::file_time_type::clock::now() -
                               std::chrono::minutes((N - I) * 10));
    Keys.push_back(K);
  }
  return Keys;
}

uint64_t dirEntryBytes(const fs::path &Dir) {
  uint64_t Total = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".rmlc")
      Total += fs::file_size(E.path());
  return Total;
}

TEST(DiskCacheSweepTest, AllZeroConfigIsANoOp) {
  ScratchDir Dir("sweep_noop");
  DiskCache Disk(Dir.str());
  storeGradedEntries(Disk, Dir.Path, 3);
  EXPECT_EQ(Disk.sweepNow({}), 0u);
  EXPECT_EQ(entryCount(Dir.Path), 3u);
  EXPECT_EQ(Disk.counters().SweptFiles, 0u);
  // startSweeper with an all-zero config starts nothing; stop is a
  // no-op either way.
  Disk.startSweeper({});
  Disk.stopSweeper();
}

TEST(DiskCacheSweepTest, ByteWatermarkEvictsOldestFirst) {
  ScratchDir Dir("sweep_bytes");
  DiskCache Disk(Dir.str());
  std::vector<CacheKey> Keys = storeGradedEntries(Disk, Dir.Path, 4);
  uint64_t Total = dirEntryBytes(Dir.Path);
  uint64_t Oldest =
      fs::file_size(Dir.Path / DiskCache::entryFileName(Keys[0].Hash));

  // One byte under the total: exactly the oldest entry must go.
  DiskCache::SweepConfig Cfg;
  Cfg.MaxBytes = Total - 1;
  EXPECT_EQ(Disk.sweepNow(Cfg), 1u);
  EXPECT_FALSE(fs::exists(Dir.Path / DiskCache::entryFileName(Keys[0].Hash)));
  for (size_t I = 1; I < Keys.size(); ++I)
    EXPECT_TRUE(fs::exists(Dir.Path / DiskCache::entryFileName(Keys[I].Hash)))
        << "entry " << I << " should have survived";
  EXPECT_LE(dirEntryBytes(Dir.Path), Cfg.MaxBytes);

  DiskCache::Counters C = Disk.counters();
  EXPECT_EQ(C.SweptFiles, 1u);
  EXPECT_EQ(C.SweptBytes, Oldest);
  EXPECT_EQ(C.SweepErrors, 0u);

  // Tighten to one byte: everything sweepable goes.
  Cfg.MaxBytes = 1;
  EXPECT_EQ(Disk.sweepNow(Cfg), 3u);
  EXPECT_EQ(entryCount(Dir.Path), 0u);
  EXPECT_EQ(Disk.counters().SweptBytes, Total);
}

TEST(DiskCacheSweepTest, AgeCutOffEvictsStaleEntriesOnly) {
  ScratchDir Dir("sweep_age");
  DiskCache Disk(Dir.str());
  // Entries are back-dated 30/20/10 minutes old (oldest first).
  std::vector<CacheKey> Keys = storeGradedEntries(Disk, Dir.Path, 3);

  DiskCache::SweepConfig Cfg;
  Cfg.MaxAgeSeconds = 15 * 60; // the 30- and 20-minute entries are stale
  EXPECT_EQ(Disk.sweepNow(Cfg), 2u);
  EXPECT_FALSE(fs::exists(Dir.Path / DiskCache::entryFileName(Keys[0].Hash)));
  EXPECT_FALSE(fs::exists(Dir.Path / DiskCache::entryFileName(Keys[1].Hash)));
  EXPECT_TRUE(fs::exists(Dir.Path / DiskCache::entryFileName(Keys[2].Hash)));
  // A second pass finds nothing new to do.
  EXPECT_EQ(Disk.sweepNow(Cfg), 0u);
}

TEST(DiskCacheSweepTest, ForeignAndTempFilesAreNeverSwept) {
  ScratchDir Dir("sweep_foreign");
  DiskCache Disk(Dir.str());
  storeGradedEntries(Disk, Dir.Path, 2);
  // An operator note, a mid-publication temp file, and an almost-entry
  // with the wrong name shape: none of these are the sweeper's to take.
  writeFileBytes(Dir.Path / "README.txt", "operator notes");
  writeFileBytes(Dir.Path / ".0123456789abcdef.rmlc.tmp.1.2", "half-written");
  writeFileBytes(Dir.Path / "short.rmlc", "not a hash name");

  DiskCache::SweepConfig Cfg;
  Cfg.MaxBytes = 1; // evict every real entry
  EXPECT_EQ(Disk.sweepNow(Cfg), 2u);
  EXPECT_TRUE(fs::exists(Dir.Path / "README.txt"));
  EXPECT_TRUE(fs::exists(Dir.Path / ".0123456789abcdef.rmlc.tmp.1.2"));
  EXPECT_TRUE(fs::exists(Dir.Path / "short.rmlc"));
  EXPECT_EQ(Disk.counters().SweepErrors, 0u);
}

TEST(DiskCacheSweepTest, SweptEntryDegradesToAMissAndCanBeRestored) {
  ScratchDir Dir("sweep_miss");
  DiskCache Disk(Dir.str());
  CompileOptions Opts;
  CacheKey K = CacheKey::of(ComposeProgram, Opts);
  CachedCompileRef V = compileShared(ComposeProgram, Opts);
  Disk.store(K, *V);
  ASSERT_NE(Disk.load(K), nullptr);

  DiskCache::SweepConfig Cfg;
  Cfg.MaxBytes = 1;
  EXPECT_EQ(Disk.sweepNow(Cfg), 1u);
  // The eviction costs exactly one recompile, never a wrong answer.
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_GE(Disk.counters().Misses, 1u);
  Disk.store(K, *V);
  CachedCompileRef Back = Disk.load(K);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->Printed, V->Printed);
}

TEST(DiskCacheSweepTest, MissingDirectoryCountsASweepError) {
  ScratchDir Dir("sweep_err");
  DiskCache Disk(Dir.str());
  fs::remove_all(Dir.Path);
  DiskCache::SweepConfig Cfg;
  Cfg.MaxBytes = 1;
  EXPECT_EQ(Disk.sweepNow(Cfg), 0u);
  EXPECT_EQ(Disk.counters().SweepErrors, 1u);
}

TEST(DiskCacheSweepTest, BackgroundSweeperBoundsTheDirectory) {
  ScratchDir Dir("sweep_bg");
  DiskCache Disk(Dir.str());
  std::vector<CacheKey> Keys = storeGradedEntries(Disk, Dir.Path, 4);

  DiskCache::SweepConfig Cfg;
  Cfg.MaxBytes = 1;
  Cfg.IntervalMillis = 5;
  Disk.startSweeper(Cfg);
  Disk.startSweeper(Cfg); // idempotent: the second call is ignored
  // The thread sweeps once immediately; poll until it has.
  for (int I = 0; I < 1000 && entryCount(Dir.Path) > 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(entryCount(Dir.Path), 0u);
  EXPECT_EQ(Disk.counters().SweptFiles, Keys.size());
  Disk.stopSweeper();
  Disk.stopSweeper(); // safe again after it stopped
}

TEST(DiskCacheSweepTest, SweepRacesStoresAndLoadsSafely) {
  ScratchDir Dir("sweep_race");
  DiskCache Disk(Dir.str());
  // A watermark of one byte keeps the sweeper permanently hungry while
  // writers republish and readers load the same keys: every load must
  // be a verified hit or a clean miss — a torn read would reject
  // (LoadRejects) and fail the test.
  DiskCache::SweepConfig Cfg;
  Cfg.MaxBytes = 1;
  Cfg.IntervalMillis = 1;
  Disk.startSweeper(Cfg);

  CompileOptions Opts;
  std::vector<std::string> Sources;
  std::vector<CacheKey> Keys;
  std::vector<CachedCompileRef> Values;
  for (int I = 0; I < 3; ++I) {
    Sources.push_back(";2 * " + std::to_string(I) + "\n");
    Keys.push_back(CacheKey::of(Sources.back(), Opts));
    Values.push_back(compileShared(Sources.back(), Opts));
  }

  // Workers run at least 200 rounds each and keep going until the
  // sweeper has swept at least once, so the race this test names always
  // happens; a sweeper that never sweeps fails at the deadline.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::atomic<bool> TimedOut{false};
  std::vector<std::thread> Workers;
  for (int T = 0; T < 3; ++T)
    Workers.emplace_back([&, T] {
      for (int I = 0; I < 200 || Disk.counters().SweptFiles == 0; ++I) {
        if (std::chrono::steady_clock::now() > Deadline) {
          TimedOut = true;
          break;
        }
        size_t K = static_cast<size_t>((T + I) % 3);
        Disk.store(Keys[K], *Values[K]);
        CachedCompileRef L = Disk.load(Keys[K]);
        if (L) { // a hit must be the genuine article
          EXPECT_EQ(L->Printed, Values[K]->Printed);
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();
  Disk.stopSweeper();

  EXPECT_FALSE(TimedOut) << "the sweeper never swept while workers ran";
  DiskCache::Counters C = Disk.counters();
  EXPECT_EQ(C.LoadRejects, 0u) << "a sweep exposed a torn entry";
  EXPECT_GT(C.SweptFiles, 0u);
}

} // namespace
