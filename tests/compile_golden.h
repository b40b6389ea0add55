//===- tests/compile_golden.h - Recorded compile outputs --------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static pipeline's golden file, tests/golden/compile.txt: one line
/// per case, where a case is a program (every benchmark-suite program,
/// the Figure 1, Figure 8 and Section 4.4 programs, and every
/// examples/programs file) under one strategy (rg, rg-, r) with the
/// capture analysis on or off. A line holds the case key, the source
/// hash, FNV-1a hashes of every rendered output of the compile — the
/// printed program, the capture report, the top-level schemes and the
/// flat image — and the arena node count of a fresh Compiler.
///
/// The golden test pins cold compiles to it; the prefix-store test pins
/// compiles that resume after a declaration prefix to it.
///
//===----------------------------------------------------------------------===//

#ifndef RML_TESTS_COMPILE_GOLDEN_H
#define RML_TESTS_COMPILE_GOLDEN_H

#include "bench/Programs.h"
#include "core/Pipeline.h"
#include "support/Checksum.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace rml::golden {

inline std::string fnv(std::string_view S) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a().bytes(S).value()));
  return Buf;
}

/// The golden line of \p C's compile of \p Source into \p Unit (null
/// when it failed).
inline std::string compileLine(std::string_view Key, std::string_view Source,
                               Compiler &C, const CompiledUnit *Unit) {
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
inline std::map<std::string, std::string> goldenLines() {
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
inline std::vector<std::pair<std::string, std::string>> goldenPrograms() {
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

/// The case key of \p Name under \p Opts.
inline std::string caseKey(const std::string &Name, const CompileOptions &Opts) {
  return Name + "/" + strategyName(Opts.Strat) +
         (Opts.Captures ? "/captures" : "/plain");
}

} // namespace rml::golden

#endif // RML_TESTS_COMPILE_GOLDEN_H
