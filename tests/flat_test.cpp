//===- tests/flat_test.cpp - Flat runnable IR -----------------------------===//
//
// The flat, offset-based compiled form (src/flat) and its execution
// path: serialisation round trips are byte-identical, every manufactured
// corruption — truncation at each prefix, every single-bit flip, random
// garbage, out-of-range indices — fails closed to a null decode, the
// disk tier counts a damaged flat section as a load rejection, a warm
// service restart executes Run=true straight from disk with zero compile
// phases, and the runs match the runtime golden file. Labelled `flat` in
// ctest and expected to be clean under -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "flat/Flat.h"

#include "core/Pipeline.h"
#include "runtime_golden.h"
#include "service/DiskCache.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace rml;
using namespace rml::service;

namespace fs = std::filesystem;

namespace {

/// A program that exercises every node kind worth serialising: region
/// polymorphism through compose, lists and pattern matching, strings,
/// refs with a write barrier, exceptions raised and handled, and print.
const char *RichProgram = R"(
exception Overflow of int
fun compose fg = fn x => #1 fg (#2 fg x)
fun len xs = case xs of nil => 0 | h :: t => 1 + len t
fun rev xs acc = case xs of nil => acc | h :: t => rev t (h :: acc)
fun guard n = if n > 20 then raise Overflow n else n
;let val cell = ref 7
     val words = "oh" :: "no" :: "ok" :: nil
     val h = compose (fn x => x + 1, fn x => x * 2)
     val r = (print ("len=" ^ itos (len (rev words nil)));
              cell := h 9; !cell + len words)
 in (guard r handle Overflow n => n - 1) + size "abc" end
)";

/// Ends in an uncaught exception.
const char *UncaughtProgram =
    "exception Boom of int\n;if 1 < 2 then raise Boom 9 else 0";

/// Small and fast: the subject of the exhaustive bit-flip sweep.
const char *SmallProgram = "fun id x = x\n;id 1 + id 2";

struct ScratchDir {
  fs::path Path;
  explicit ScratchDir(const std::string &Name) {
    Path = fs::path(::testing::TempDir()) / ("rml_flat_" + Name);
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

/// Compiles \p Src under \p Strat and returns the unit's encoded flat
/// bytes (asserting the compile worked).
std::string flatBytesOf(const char *Src, Strategy Strat = Strategy::Rg) {
  Compiler C;
  CompileOptions Opts;
  Opts.Strat = Strat;
  auto Unit = C.compile(Src, Opts);
  EXPECT_NE(Unit, nullptr) << C.diagnostics().str();
  if (!Unit)
    return std::string();
  EXPECT_NE(Unit->Flat, nullptr);
  return flat::encodeFlat(*Unit->Flat);
}

//===----------------------------------------------------------------------===//
// Round trips and determinism
//===----------------------------------------------------------------------===//

TEST(FlatEncoding, RoundTripIsByteIdentical) {
  for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    SCOPED_TRACE(strategyName(Strat));
    std::string Bytes = flatBytesOf(RichProgram, Strat);
    ASSERT_FALSE(Bytes.empty());
    std::shared_ptr<const flat::FlatUnit> Decoded = flat::decodeFlat(Bytes);
    ASSERT_NE(Decoded, nullptr);
    // decode . encode is the identity on bytes — the invariant that
    // makes the persisted form trustworthy across processes.
    EXPECT_EQ(flat::encodeFlat(*Decoded), Bytes);
    // And once more through the cycle, for fixpoint paranoia.
    std::shared_ptr<const flat::FlatUnit> Again =
        flat::decodeFlat(flat::encodeFlat(*Decoded));
    ASSERT_NE(Again, nullptr);
    EXPECT_EQ(flat::encodeFlat(*Again), Bytes);
  }
}

TEST(FlatEncoding, IndependentCompilersEncodeIdentically) {
  // Byte-determinism across Compiler instances is what lets the disk
  // tier treat "file already exists" as "already this entry".
  EXPECT_EQ(flatBytesOf(RichProgram), flatBytesOf(RichProgram));
  EXPECT_EQ(flatBytesOf(SmallProgram, Strategy::R),
            flatBytesOf(SmallProgram, Strategy::R));
}

TEST(FlatEncoding, StrategiesEncodeDifferently) {
  // The strategy is part of the unit (it gates GC at run time), so the
  // three strategies must not alias one another's bytes.
  EXPECT_NE(flatBytesOf(RichProgram, Strategy::Rg),
            flatBytesOf(RichProgram, Strategy::RgMinus));
}

TEST(FlatEncoding, DecodedUnitRunsLikeTheTree) {
  for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    SCOPED_TRACE(strategyName(Strat));
    std::shared_ptr<const flat::FlatUnit> Decoded =
        flat::decodeFlat(flatBytesOf(RichProgram, Strat));
    ASSERT_NE(Decoded, nullptr);
    rt::EvalOptions E;
    E.GcThresholdWords = 512;
    rt::RunResult R = Compiler::runFlat(*Decoded, E);
    EXPECT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
    golden::expectMatchesGolden(std::string("flat/rich/") +
                                    strategyName(Strat),
                                RichProgram, R);
    EXPECT_EQ(R.Phase.Name, Compiler::RunPhaseName);
    EXPECT_EQ(R.Phase.GcCount, R.Heap.GcCount);
  }
}

TEST(FlatEncoding, UncaughtExceptionAgreesBetweenTreeAndFlat) {
  std::shared_ptr<const flat::FlatUnit> Decoded = flat::decodeFlat(
      flatBytesOf(UncaughtProgram));
  ASSERT_NE(Decoded, nullptr);
  rt::RunResult R = Compiler::runFlat(*Decoded);
  EXPECT_EQ(R.Outcome, rt::RunOutcome::UncaughtException);
  // Exception names survive the trip.
  golden::expectMatchesGolden("flat/uncaught", UncaughtProgram, R);
}

//===----------------------------------------------------------------------===//
// Corruption: every damage fails closed to a null decode
//===----------------------------------------------------------------------===//

TEST(FlatCorruption, EveryTruncationDecodesToNull) {
  std::string Bytes = flatBytesOf(RichProgram);
  ASSERT_FALSE(Bytes.empty());
  for (size_t Len = 0; Len < Bytes.size(); ++Len)
    ASSERT_EQ(flat::decodeFlat(std::string_view(Bytes.data(), Len)), nullptr)
        << "prefix of " << Len << " bytes decoded";
}

TEST(FlatCorruption, EverySingleBitFlipDecodesToNull) {
  // The checksum covers the whole body and the header is matched
  // exactly, so no single-bit flip anywhere may survive. Exhaustive
  // over a small program; the sampled sweep below covers a large one.
  std::string Bytes = flatBytesOf(SmallProgram);
  ASSERT_FALSE(Bytes.empty());
  for (size_t I = 0; I < Bytes.size(); ++I)
    for (int B = 0; B < 8; ++B) {
      std::string Mut = Bytes;
      Mut[I] = static_cast<char>(Mut[I] ^ (1 << B));
      ASSERT_EQ(flat::decodeFlat(Mut), nullptr)
          << "bit " << B << " of byte " << I << " flipped and decoded";
    }
}

TEST(FlatCorruption, SampledBitFlipsOnALargeUnitDecodeToNull) {
  std::string Bytes = flatBytesOf(RichProgram);
  ASSERT_FALSE(Bytes.empty());
  std::mt19937 Rng(0xF1A7);
  for (int I = 0; I < 2000; ++I) {
    std::string Mut = Bytes;
    size_t Byte = Rng() % Mut.size();
    Mut[Byte] = static_cast<char>(Mut[Byte] ^ (1 << (Rng() % 8)));
    ASSERT_EQ(flat::decodeFlat(Mut), nullptr)
        << "flip in byte " << Byte << " decoded";
  }
}

TEST(FlatCorruption, RandomGarbageNeverCrashes) {
  std::mt19937 Rng(0xBADF00D);
  std::string Bytes = flatBytesOf(SmallProgram);
  for (int I = 0; I < 500; ++I) {
    size_t Len = Rng() % 512;
    std::string Garbage(Len, '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rng());
    // Half the probes wear the real magic so they get past the header
    // and into the structural validation.
    if (Len >= 8 && (Rng() & 1))
      Garbage.replace(0, 8, Bytes.substr(0, 8));
    EXPECT_EQ(flat::decodeFlat(Garbage), nullptr);
  }
  // Shuffled tails of a genuine encoding: valid header bytes, scrambled
  // body — the checksum must throw all of them out.
  for (int I = 0; I < 200; ++I) {
    std::string Mut = Bytes;
    size_t From = 20 + Rng() % (Mut.size() - 20);
    std::shuffle(Mut.begin() + From, Mut.end(), Rng);
    if (Mut == Bytes)
      continue;
    EXPECT_EQ(flat::decodeFlat(Mut), nullptr);
  }
}

TEST(FlatCorruption, StructurallyInvalidUnitsRejectAtDecode) {
  // encodeFlat does not validate, so a hand-corrupted FlatUnit probes
  // the decoder's index validation with a correct checksum — the layer
  // a checksum alone cannot defend.
  Compiler C;
  auto Unit = C.compile(RichProgram);
  ASSERT_NE(Unit, nullptr);
  const flat::FlatUnit &Good = *Unit->Flat;

  {
    flat::FlatUnit Bad = Good; // root out of the node table
    Bad.Root = static_cast<uint32_t>(Bad.Nodes.size());
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // root type out of the mu table
    Bad.RootMu = static_cast<uint32_t>(Bad.Mus.size()) + 5;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // strategy beyond the enum
    Bad.Strat = 9;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // node kind beyond the enum
    Bad.Nodes[Bad.Root].Kind = 0xFF;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // child index out of the node table
    Bad.Nodes[Bad.Root].A = static_cast<uint32_t>(Bad.Nodes.size()) + 7;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // aux span overruns its section
    ASSERT_FALSE(Bad.Fns.empty());
    Bad.Fns[0].CapturesCount = static_cast<uint32_t>(Bad.Aux.size()) + 1;
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  {
    flat::FlatUnit Bad = Good; // string id out of the string table
    ASSERT_FALSE(Bad.ExnNames.empty());
    Bad.ExnNames[0] = static_cast<uint32_t>(Bad.StringSpans.size());
    EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Bad)), nullptr);
  }
  // The uncorrupted original still decodes — the probes above failed
  // for the planted reason, not some latent one.
  EXPECT_NE(flat::decodeFlat(flat::encodeFlat(Good)), nullptr);
}

//===----------------------------------------------------------------------===//
// The disk tier: damaged flat sections are counted misses
//===----------------------------------------------------------------------===//

CachedCompileRef storeOne(DiskCache &Disk, const CacheKey &K,
                          const char *Src) {
  CachedCompileRef Fresh = compileShared(Src, CompileOptions{});
  EXPECT_TRUE(Fresh->ok());
  Disk.store(K, *Fresh);
  return Fresh;
}

TEST(FlatDisk, CorruptFlatSectionIsACountedLoadReject) {
  ScratchDir Dir("corrupt_section");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(RichProgram, CompileOptions{});
  storeOne(Disk, K, RichProgram);

  // The flat payload is the final section of the entry, so the last
  // byte is inside it: flipping it keeps the outer entry structurally
  // whole and leaves the nested flat checksum to catch the damage.
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  ASSERT_FALSE(Bytes.empty());
  Bytes.back() = static_cast<char>(Bytes.back() ^ 0x10);
  writeFileBytes(File, Bytes);

  EXPECT_EQ(Disk.load(K), nullptr) << "a damaged runnable form is no hit";
  DiskCache::Counters C = Disk.counters();
  EXPECT_EQ(C.LoadRejects, 1u);
  EXPECT_EQ(C.Hits, 0u);
}

TEST(FlatDisk, TruncatedEntryIsACountedLoadReject) {
  ScratchDir Dir("truncated");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(RichProgram, CompileOptions{});
  storeOne(Disk, K, RichProgram);

  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  ASSERT_GT(Bytes.size(), 40u);
  writeFileBytes(File, Bytes.substr(0, Bytes.size() - 33));

  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
}

TEST(FlatDisk, ForgedPresenceByteIsACountedLoadReject) {
  ScratchDir Dir("presence");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(SmallProgram, CompileOptions{});
  CachedCompileRef Fresh = storeOne(Disk, K, SmallProgram);
  ASSERT_NE(Fresh->Flat, nullptr);

  // Rewrite the presence byte (which sits right before the nested flat
  // string) to an undefined value; the loader accepts exactly 0 or 1.
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  std::string FlatBytes = flat::encodeFlat(*Fresh->Flat);
  size_t PresencePos = Bytes.size() - FlatBytes.size() - 8 - 1;
  ASSERT_EQ(static_cast<unsigned char>(Bytes[PresencePos]), 1u);
  Bytes[PresencePos] = 2;
  writeFileBytes(File, Bytes);

  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);
}

TEST(FlatDisk, OkEntryWithoutItsFlatSectionIsACountedLoadReject) {
  ScratchDir Dir("no_flat");
  DiskCache Disk(Dir.str());
  CacheKey K = CacheKey::of(SmallProgram, CompileOptions{});
  CachedCompileRef Fresh = storeOne(Disk, K, SmallProgram);
  ASSERT_NE(Fresh->Flat, nullptr);
  fs::path File = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::string Bytes = readFileBytes(File);
  std::string FlatBytes = flat::encodeFlat(*Fresh->Flat);
  size_t PresencePos = Bytes.size() - FlatBytes.size() - 8 - 1;

  // An ok entry that claims no runnable form: cut the nested flat
  // string and write presence 0. No writer produces this shape, so it
  // loads as damage, not as a hit that cannot run.
  writeFileBytes(File, Bytes.substr(0, PresencePos) + std::string(1, '\0'));
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 1u);

  // And the converse: a failed compile carrying a flat section. The ok
  // byte follows the 8-byte magic, the u32 version and four option bytes.
  const size_t OkPos = 8 + 4 + 4;
  ASSERT_EQ(Bytes[OkPos], 1);
  Bytes[OkPos] = 0;
  writeFileBytes(File, Bytes);
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, 2u);
  EXPECT_EQ(Disk.counters().Hits, 0u);
}

//===----------------------------------------------------------------------===//
// Warm restart: Run=true served from disk with zero compile phases
//===----------------------------------------------------------------------===//

ServiceConfig flatServiceConfig(std::string Dir) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 8;
  Cfg.CacheCapacity = 8;
  Cfg.CacheDir = std::move(Dir);
  return Cfg;
}

TEST(FlatService, WarmRestartRunsFromDiskWithZeroCompilePhases) {
  ScratchDir Dir("warm_restart");

  Request Run;
  Run.Source = RichProgram;
  Run.EvalOpts.GcThresholdWords = 1024;

  std::string ColdResult, ColdOutput;
  {
    Service Svc(flatServiceConfig(Dir.str()));
    Response Cold = Svc.submit(Run).get();
    ASSERT_EQ(Cold.Status, RequestOutcome::Ok) << Cold.Error;
    EXPECT_FALSE(Cold.CacheHit);
    ColdResult = Cold.ResultText;
    ColdOutput = Cold.Output;
  }

  // The restarted process has an empty memory tier; its first Run=true
  // must complete as a pure disk hit — no compile phases executed.
  Service Svc(flatServiceConfig(Dir.str()));
  Response Warm = Svc.submit(Run).get();
  ASSERT_EQ(Warm.Status, RequestOutcome::Ok) << Warm.Error;
  EXPECT_TRUE(Warm.CacheHit) << "the disk entry is runnable as loaded";
  EXPECT_EQ(Warm.ResultText, ColdResult);
  EXPECT_EQ(Warm.Output, ColdOutput);
  ASSERT_FALSE(Warm.Profiles.empty());
  for (const PhaseProfile &P : Warm.Profiles) {
    if (P.Name == Compiler::RunPhaseName)
      continue;
    EXPECT_TRUE(P.Skipped) << "phase '" << P.Name << "' ran on a disk hit";
    EXPECT_EQ(P.WallNanos, 0u) << P.Name;
  }
  EXPECT_EQ(Warm.Profiles.back().Name, Compiler::RunPhaseName)
      << "the run itself is fresh";

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.DiskLoadRejects, 0u);
  EXPECT_EQ(S.CacheMisses, 1u) << "one memory miss, promoted from disk";
}

TEST(FlatService, WarmRestartRunsUnderEveryStrategy) {
  ScratchDir Dir("warm_strategies");
  for (Strategy Strat : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    SCOPED_TRACE(strategyName(Strat));
    Request Run;
    Run.Source = RichProgram;
    Run.Opts.Strat = Strat;

    std::string ColdResult;
    {
      Service Svc(flatServiceConfig(Dir.str()));
      Response Cold = Svc.submit(Run).get();
      ASSERT_EQ(Cold.Status, RequestOutcome::Ok) << Cold.Error;
      ColdResult = Cold.ResultText;
    }
    Service Svc(flatServiceConfig(Dir.str()));
    Response Warm = Svc.submit(Run).get();
    ASSERT_EQ(Warm.Status, RequestOutcome::Ok) << Warm.Error;
    EXPECT_TRUE(Warm.CacheHit);
    EXPECT_EQ(Warm.ResultText, ColdResult);
  }
}

} // namespace
