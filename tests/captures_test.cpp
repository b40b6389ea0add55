//===- tests/captures_test.cpp - Capture-tracking analysis mode -----------===//
//
// The capture-tracking analysis end-to-end: the per-closure value vs
// latent-effect split, the rendered report's byte-stability across the
// tree and flat forms, the compile-cache key separation of the Captures
// option, persistence through the disk tier (including the version-3
// fail-closed rules), the CaptureQuery wire kind, and the service-level
// differential — a capture query answered from a warm --cache-dir
// restart is byte-identical to the cold compile with every static phase
// reported Skipped. Labelled `capture` in ctest and expected to be
// clean under -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "rinfer/Captures.h"

#include "flat/Flat.h"
#include "net/Protocol.h"
#include "service/DiskCache.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace rml;
using namespace rml::service;

namespace fs = std::filesystem;

namespace {

/// A polymorphic program whose inner lambda captures a boxed pair, so
/// the capture sets are non-trivial under every strategy.
const char *CaptureProgram = R"(
fun compose fg = fn x => #1 fg (#2 fg x)
fun make p = fn x => #1 p + x
;let val h = compose (fn a => a + 1, fn b => b * 2)
 in make (3, 4) (h 5) end
)";

struct ScratchDir {
  fs::path Path;
  explicit ScratchDir(const std::string &Name) {
    Path = fs::path(::testing::TempDir()) / ("rml_capture_" + Name);
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

std::unique_ptr<CompiledUnit> compileCaptures(Compiler &C,
                                              std::string_view Source,
                                              Strategy S = Strategy::Rg) {
  CompileOptions Opts;
  Opts.Strat = S;
  Opts.Captures = true;
  return C.compile(Source, Opts);
}

//===----------------------------------------------------------------------===//
// The analysis
//===----------------------------------------------------------------------===//

TEST(CapturesTest, AnalysisSplitsValueAndLatentCapture) {
  Compiler C;
  auto Unit = compileCaptures(C, CaptureProgram);
  ASSERT_NE(Unit, nullptr);
  ASSERT_TRUE(Unit->Captures.has_value());

  // One entry per closure, in the flattener's function pre-order —
  // the table is parallel to the flat unit's Fns table.
  ASSERT_NE(Unit->Flat, nullptr);
  ASSERT_EQ(Unit->Captures->Closures.size(), Unit->Flat->Fns.size());

  // The lambda `fn x => #1 p + x` value-captures p, whose pair type
  // lives in some region — at least one closure has a non-empty
  // value-capture set.
  bool SawValueCapture = false;
  for (const ClosureCapture &CC : Unit->Captures->Closures) {
    SawValueCapture |= !CC.ViaValue.empty();
    // Sets are sorted, deduplicated, and never contain the global
    // region (id 0).
    EXPECT_TRUE(std::is_sorted(CC.ViaValue.begin(), CC.ViaValue.end()));
    EXPECT_TRUE(std::is_sorted(CC.ViaEffect.begin(), CC.ViaEffect.end()));
    EXPECT_EQ(std::count(CC.ViaValue.begin(), CC.ViaValue.end(), 0u), 0);
    EXPECT_EQ(std::count(CC.ViaEffect.begin(), CC.ViaEffect.end(), 0u), 0);
  }
  EXPECT_TRUE(SawValueCapture);
}

TEST(CapturesTest, EscapedColumnFlagsTheFigure1DanglingRegion) {
  // The paper's Figure 1: `fn v => x` holds the string x in its closure
  // record (value capture) but applying it touches no region, so the
  // latent effect is empty — the string's region is kept alive by
  // containment alone. The escaped column must flag exactly that
  // closure: under rg containment pins the region outside the
  // closure's lifetime, under rg- this is the region the run dies
  // tracing into.
  const char *Figure1 = R"(
fun compose fg = fn x => #1 fg (#2 fg x)
fun run u =
  let val h = compose (let val x = "oh" ^ "no"
                       in (fn _ => (), fn v => x) end)
      val w = work 20000
  in h () end
;run ()
)";
  for (Strategy S : {Strategy::Rg, Strategy::RgMinus}) {
    Compiler C;
    auto Unit = compileCaptures(C, Figure1, S);
    ASSERT_NE(Unit, nullptr);
    size_t EscapedClosures = 0;
    for (const ClosureCapture &CC : Unit->Captures->Closures) {
      std::vector<uint32_t> Residue;
      std::set_difference(CC.ViaValue.begin(), CC.ViaValue.end(),
                          CC.ViaEffect.begin(), CC.ViaEffect.end(),
                          std::back_inserter(Residue));
      if (!Residue.empty()) {
        ++EscapedClosures;
        // It is the string-returning lambda: captures by value, applies
        // effect-free.
        EXPECT_FALSE(CC.IsFun);
        EXPECT_TRUE(CC.ViaEffect.empty());
      }
    }
    EXPECT_EQ(EscapedClosures, 1u) << "strategy " << strategyName(S);
    std::string Report = C.captureReport(*Unit);
    EXPECT_NE(Report.find(" escaped={"), std::string::npos) << Report;
    EXPECT_NE(Report.find("escaped=1\n"), std::string::npos) << Report;
  }
}

TEST(CapturesTest, ReportShapeAndDeterminism) {
  Compiler C;
  auto Unit = compileCaptures(C, CaptureProgram);
  ASSERT_NE(Unit, nullptr);
  std::string Report = C.captureReport(*Unit);
  EXPECT_EQ(Report.rfind("captures v1 strategy=rg closures=", 0), 0u)
      << Report;
  EXPECT_NE(Report.find("\ntotal closures="), std::string::npos) << Report;
  EXPECT_NE(Report.find("fun compose(fg)"), std::string::npos) << Report;
  EXPECT_NE(Report.find("lam(x)"), std::string::npos) << Report;

  // Deterministic: a second independent compile renders the same bytes.
  Compiler C2;
  auto Unit2 = compileCaptures(C2, CaptureProgram);
  ASSERT_NE(Unit2, nullptr);
  EXPECT_EQ(C2.captureReport(*Unit2), Report);

  // A closure-free program still reports (header + totals, no rows).
  Compiler C3;
  auto Unit3 = compileCaptures(C3, "1 + 2");
  ASSERT_NE(Unit3, nullptr);
  EXPECT_EQ(C3.captureReport(*Unit3),
            "captures v1 strategy=rg closures=0\n"
            "total closures=0 regions=0 escaped=0\n");
}

TEST(CapturesTest, PhaseIsOptInAndSkippedByDefault) {
  Compiler C;
  auto Unit = C.compile(CaptureProgram);
  ASSERT_NE(Unit, nullptr);
  EXPECT_FALSE(Unit->Captures.has_value());
  EXPECT_EQ(C.captureReport(*Unit), "");
  bool SawCaptures = false;
  for (const PhaseProfile &P : Unit->Profiles)
    if (P.Name == "captures") {
      SawCaptures = true;
      EXPECT_TRUE(P.Skipped);
      EXPECT_EQ(P.WallNanos, 0u);
    }
  EXPECT_TRUE(SawCaptures);
}

//===----------------------------------------------------------------------===//
// Flat form: embedding, rendering, fail-closed decode
//===----------------------------------------------------------------------===//

TEST(CapturesTest, TreeAndFlatReportsAreByteIdentical) {
  for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
    Compiler C;
    auto Unit = compileCaptures(C, CaptureProgram, S);
    ASSERT_NE(Unit, nullptr);
    std::string Tree = C.captureReport(*Unit);
    ASSERT_FALSE(Tree.empty());

    ASSERT_NE(Unit->Flat, nullptr);
    EXPECT_TRUE(Unit->Flat->hasCaptures());
    EXPECT_EQ(flat::renderCaptureReport(*Unit->Flat), Tree);

    // ... and through a full encode/decode round trip: the report a
    // disk-tier process renders is the same bytes the compiler printed.
    auto Decoded = flat::decodeFlat(flat::encodeFlat(*Unit->Flat));
    ASSERT_NE(Decoded, nullptr);
    EXPECT_EQ(flat::renderCaptureReport(*Decoded), Tree);
  }
}

TEST(CapturesTest, FlatWithoutCapturesRendersEmpty) {
  Compiler C;
  auto Unit = C.compile(CaptureProgram);
  ASSERT_NE(Unit, nullptr);
  ASSERT_NE(Unit->Flat, nullptr);
  EXPECT_FALSE(Unit->Flat->hasCaptures());
  EXPECT_TRUE(Unit->Flat->Caps.empty());
  EXPECT_EQ(flat::renderCaptureReport(*Unit->Flat), "");
}

TEST(CapturesTest, FlatCaptureTableFailsClosed) {
  Compiler C;
  auto Unit = compileCaptures(C, CaptureProgram);
  ASSERT_NE(Unit, nullptr);
  ASSERT_NE(Unit->Flat, nullptr);
  ASSERT_FALSE(Unit->Flat->Caps.empty());

  // An inconsistent option/table pair never decodes: the captures
  // option byte says "no captures" while the table is non-empty.
  flat::FlatBuilder Inconsistent(*Unit->Flat);
  Inconsistent.Options[3] = 0;
  EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(Inconsistent.freeze())),
            nullptr);

  // A capture span pointing past the Aux pool never decodes either.
  flat::FlatBuilder BadSpan(*Unit->Flat);
  BadSpan.Caps[0].ValueBegin =
      static_cast<uint32_t>(BadSpan.Aux.size());
  BadSpan.Caps[0].ValueCount = 4;
  EXPECT_EQ(flat::decodeFlat(flat::encodeFlat(BadSpan.freeze())), nullptr);
}

//===----------------------------------------------------------------------===//
// Cache key and memory tier
//===----------------------------------------------------------------------===//

TEST(CapturesTest, CacheKeySeparatesTheCapturesBit) {
  CompileOptions Plain, WithCaps;
  WithCaps.Captures = true;
  EXPECT_NE(hashCompileInputs(CaptureProgram, Plain),
            hashCompileInputs(CaptureProgram, WithCaps));
  EXPECT_FALSE(CacheKey::of(CaptureProgram, Plain) ==
               CacheKey::of(CaptureProgram, WithCaps));

  // The memory tier never serves a plain entry to a captures request.
  CompileCache Cache(/*Capacity=*/8);
  Cache.insert(CacheKey::of(CaptureProgram, Plain),
               compileShared(CaptureProgram, Plain));
  EXPECT_EQ(Cache.lookup(CacheKey::of(CaptureProgram, WithCaps)), nullptr);
  EXPECT_NE(Cache.lookup(CacheKey::of(CaptureProgram, Plain)), nullptr);
}

TEST(CapturesTest, CompileSharedRendersTheReportOnce) {
  CompileOptions WithCaps;
  WithCaps.Captures = true;
  CachedCompileRef CC = compileShared(CaptureProgram, WithCaps);
  ASSERT_TRUE(CC->ok());
  EXPECT_EQ(CC->CaptureReport.rfind("captures v1 ", 0), 0u);

  CompileOptions Plain;
  EXPECT_EQ(compileShared(CaptureProgram, Plain)->CaptureReport, "");
}

//===----------------------------------------------------------------------===//
// Disk tier
//===----------------------------------------------------------------------===//

TEST(CapturesTest, DiskTierPersistsTheReportByteIdentically) {
  ScratchDir Dir("disk");
  DiskCache Disk(Dir.str());
  CompileOptions Opts;
  Opts.Captures = true;
  CacheKey K = CacheKey::of(CaptureProgram, Opts);
  CachedCompileRef Fresh = compileShared(CaptureProgram, Opts);
  ASSERT_TRUE(Fresh->ok());
  ASSERT_FALSE(Fresh->CaptureReport.empty());
  Disk.store(K, *Fresh);

  CachedCompileRef Loaded = Disk.load(K);
  ASSERT_NE(Loaded, nullptr);
  EXPECT_EQ(Loaded->CaptureReport, Fresh->CaptureReport);

  // A key differing only in the Captures bit rejects the file (option
  // mismatch), it does not misserve it.
  CompileOptions Plain;
  CacheKey PlainK = CacheKey::of(CaptureProgram, Plain);
  ASSERT_NE(PlainK.Hash, K.Hash);
  EXPECT_EQ(Disk.load(PlainK), nullptr);
}

TEST(CapturesTest, PreCaptureFormatVersionsAreRejected) {
  ScratchDir Dir("version");
  DiskCache Disk(Dir.str());
  CompileOptions Opts;
  Opts.Captures = true;
  CacheKey K = CacheKey::of(CaptureProgram, Opts);
  Disk.store(K, *compileShared(CaptureProgram, Opts));

  // Forge a v2 file: same bytes, version field (after the 8-byte magic)
  // patched down. A pre-captures reader's byte layout differs from v3's
  // — the load must version-reject, not misparse.
  fs::path Entry = Dir.Path / DiskCache::entryFileName(K.Hash);
  std::ifstream In(Entry, std::ios::binary);
  std::string Bytes{std::istreambuf_iterator<char>(In),
                    std::istreambuf_iterator<char>()};
  In.close();
  ASSERT_GT(Bytes.size(), 12u);
  Bytes[8] = 2; // little-endian u32 version = 2
  std::ofstream Out(Entry, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.close();

  uint64_t RejectsBefore = Disk.counters().LoadRejects;
  EXPECT_EQ(Disk.load(K), nullptr);
  EXPECT_EQ(Disk.counters().LoadRejects, RejectsBefore + 1);
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(CapturesTest, CaptureQueryKindRoundTripsOnTheWire) {
  net::WireRequest Req;
  Req.Id = 77;
  Req.Kind = net::MsgKind::CaptureQuery;
  Req.Source = CaptureProgram;
  std::string Frame;
  net::encodeRequest(Req, Frame);

  net::WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  ASSERT_EQ(net::decodeRequest(Frame, Consumed, Out, Err), net::Decode::Frame)
      << Err;
  EXPECT_EQ(Consumed, Frame.size());
  EXPECT_EQ(Out.Kind, net::MsgKind::CaptureQuery);
  EXPECT_EQ(Out.Id, 77u);
  EXPECT_EQ(Out.Source, CaptureProgram);
}

TEST(CapturesTest, UnknownKindPastCaptureQueryFailsClosed) {
  net::WireRequest Req;
  Req.Kind = net::MsgKind::CaptureQuery;
  Req.Source = "1 + 1";
  std::string Frame;
  net::encodeRequest(Req, Frame);
  // The kind byte sits after the 4-byte length prefix and the u64 id.
  ASSERT_EQ(Frame[4 + 8],
            static_cast<char>(net::MsgKind::CaptureQuery));
  Frame[4 + 8] = 4; // one past the newest kind: a future dialect
  net::WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  EXPECT_EQ(net::decodeRequest(Frame, Consumed, Out, Err), net::Decode::Bad);
  EXPECT_EQ(Consumed, 0u);
  EXPECT_NE(Err.find("unknown request kind"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Service differential: cache tiers, pool on/off, warm restart
//===----------------------------------------------------------------------===//

Request captureRequest() {
  Request Req;
  Req.Source = CaptureProgram;
  Req.Opts.Captures = true;
  Req.Run = false;
  return Req;
}

TEST(CapturesTest, ReportIsByteIdenticalAcrossCacheTiersAndPoolModes) {
  ScratchDir Dir("tiers");

  std::string ColdReport;
  {
    ServiceConfig Cfg;
    Cfg.Workers = 1;
    Cfg.CacheDir = Dir.str();
    Service Svc(Cfg);

    Response Cold = Svc.submit(captureRequest()).get();
    ASSERT_EQ(Cold.Status, RequestOutcome::Ok);
    ASSERT_FALSE(Cold.CacheHit);
    ASSERT_FALSE(Cold.CaptureReport.empty());
    ColdReport = Cold.CaptureReport;

    // Memory-tier hit: same bytes, every static phase Skipped.
    Response Hit = Svc.submit(captureRequest()).get();
    ASSERT_TRUE(Hit.CacheHit);
    EXPECT_EQ(Hit.CaptureReport, ColdReport);
    for (const PhaseProfile &P : Hit.Profiles)
      EXPECT_TRUE(P.Skipped) << P.Name;
  }

  // Warm restart: a second service on the same --cache-dir answers the
  // capture query from disk — byte-identical report, zero compile
  // phases executed.
  {
    ServiceConfig Cfg;
    Cfg.Workers = 1;
    Cfg.CacheDir = Dir.str();
    Service Svc(Cfg);
    Response Warm = Svc.submit(captureRequest()).get();
    ASSERT_EQ(Warm.Status, RequestOutcome::Ok);
    EXPECT_TRUE(Warm.CacheHit);
    EXPECT_EQ(Warm.CaptureReport, ColdReport);
    for (const PhaseProfile &P : Warm.Profiles) {
      EXPECT_TRUE(P.Skipped) << P.Name << " ran on a warm restart";
      EXPECT_EQ(P.WallNanos, 0u) << P.Name;
    }
    ServiceStats S = Svc.stats();
    EXPECT_EQ(S.DiskHits, 1u);
    for (const ServiceStats::PhaseAggregate &A : S.Phases)
      EXPECT_EQ(A.Count, 0u) << A.Name << " executed on a warm restart";
  }

  // The report is a static product: pooling on or off cannot change a
  // byte of it.
  {
    ServiceConfig Cfg;
    Cfg.Workers = 1;
    Cfg.PagePoolPages = 0;
    Service Svc(Cfg);
    Response R = Svc.submit(captureRequest()).get();
    ASSERT_EQ(R.Status, RequestOutcome::Ok);
    EXPECT_EQ(R.CaptureReport, ColdReport);
  }
}

} // namespace
