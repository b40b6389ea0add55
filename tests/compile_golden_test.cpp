//===- tests/compile_golden_test.cpp - Recorded compile outputs -----------===//
//
// The static pipeline's golden file, tests/golden/compile.txt: one line
// per case, where a case is a program (every benchmark-suite program,
// the Figure 1, Figure 8 and Section 4.4 programs, and every
// examples/programs file) under one strategy (rg, rg-, r) with the
// capture analysis on or off. A line holds the case key, the source
// hash, FNV-1a hashes of every rendered output of the compile — the
// printed program, the capture report, the top-level schemes and the
// flat image — and the arena node count of a fresh Compiler.
//
// The lines pin the compile path byte for byte: a change that only
// makes compiling cheaper must leave every one of them as recorded. A
// mismatch fails with the recorded and the current line side by side.
//
//===----------------------------------------------------------------------===//

#include "bench/Programs.h"
#include "core/Pipeline.h"
#include "service/Hash.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace rml;

namespace {

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string fnv(std::string_view S) {
  return hex(service::Fnv1a().bytes(S).value());
}

/// The golden line of one compile of \p Source under \p Opts.
std::string compileLine(std::string_view Key, std::string_view Source,
                        const CompileOptions &Opts) {
  Compiler C;
  auto Unit = C.compile(Source, Opts);
  std::string L = std::string(Key) + "\tsrc=" + fnv(Source);
  if (!Unit)
    return L + "\tfailed=" + fnv(C.diagnostics().str());
  std::string Schemes;
  for (const auto &[Name, Scheme] : C.topLevelSchemes(*Unit))
    Schemes += Name + "\t" + Scheme + "\n";
  L += "\tprogram=" + fnv(C.printProgram(*Unit));
  L += "\tcaptures=" + fnv(C.captureReport(*Unit));
  L += "\tschemes=" + fnv(Schemes);
  L += "\tflat=" + fnv(flat::encodeFlat(*Unit->Flat));
  L += "\tnodes=" + std::to_string(C.arenaFootprint().total());
  return L;
}

/// Key -> recorded line.
std::map<std::string, std::string> goldenLines() {
  std::map<std::string, std::string> M;
  std::ifstream In(std::string(RML_SOURCE_DIR) + "/tests/golden/compile.txt");
  EXPECT_TRUE(In.good()) << "cannot open tests/golden/compile.txt";
  for (std::string Line; std::getline(In, Line);) {
    std::string Key = Line.substr(0, Line.find('\t'));
    EXPECT_TRUE(M.emplace(Key, Line).second) << "duplicate key " << Key;
  }
  return M;
}

/// Every golden program as (name, source), in key order of no concern.
std::vector<std::pair<std::string, std::string>> goldenPrograms() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const bench::BenchProgram &P : bench::benchmarkSuite())
    Out.emplace_back("corpus/" + P.Name, P.Source);
  Out.emplace_back("figure1", bench::danglingPointerProgram());
  Out.emplace_back("figure8", bench::spuriousChainProgram());
  Out.emplace_back("sec4.4", bench::exnDanglingProgram());
  std::filesystem::path Dir =
      std::filesystem::path(RML_SOURCE_DIR) / "examples" / "programs";
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".mml")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Text;
    Text << In.rdbuf();
    Out.emplace_back("examples/" + Entry.path().filename().string(),
                     Text.str());
  }
  return Out;
}

TEST(CompileGolden, EveryProgramStrategyAndCaptureModeMatchesItsLine) {
  std::map<std::string, std::string> Lines = goldenLines();
  size_t Cases = 0;
  for (const auto &[Name, Source] : goldenPrograms()) {
    for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
      for (bool Caps : {false, true}) {
        CompileOptions Opts;
        Opts.Strat = S;
        Opts.Captures = Caps;
        std::string Key = Name + "/" + strategyName(S) +
                          (Caps ? "/captures" : "/plain");
        std::string Now = compileLine(Key, Source, Opts);
        ++Cases;
        auto It = Lines.find(Key);
        if (It == Lines.end()) {
          ADD_FAILURE() << "no golden line for " << Key
                        << "; this compile's line:\n"
                        << Now;
          continue;
        }
        EXPECT_EQ(Now, It->second) << "compile golden mismatch for " << Key
                                   << "\n  recorded: " << It->second
                                   << "\n  now:      " << Now;
      }
    }
  }
  // Every recorded line has a case: a program dropped from the corpus
  // must take its lines with it.
  EXPECT_EQ(Cases, Lines.size());
}

} // namespace
