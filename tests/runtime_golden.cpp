//===- tests/runtime_golden.cpp -------------------------------------------===//

#include "runtime_golden.h"

#include "service/Hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

using namespace rml;
using namespace rml::rt;

namespace {

/// Escapes everything that would break the one-line, tab-separated form.
std::string escaped(std::string_view S) {
  std::string Out;
  for (unsigned char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (C < 0x20 || C >= 0x7f) {
      char Buf[5];
      std::snprintf(Buf, sizeof(Buf), "\\x%02x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out;
}

const char *outcomeName(rt::RunOutcome O) {
  switch (O) {
  case rt::RunOutcome::Ok:
    return "ok";
  case rt::RunOutcome::UncaughtException:
    return "uncaught";
  case rt::RunOutcome::DanglingPointer:
    return "dangling";
  case rt::RunOutcome::RuntimeError:
    return "runtime_error";
  }
  return "?";
}

/// Key -> recorded line, read once per process.
const std::map<std::string, std::string> &goldenLines() {
  static const std::map<std::string, std::string> Lines = [] {
    std::map<std::string, std::string> M;
    std::ifstream In(std::string(RML_SOURCE_DIR) + "/tests/golden/runtime.txt");
    EXPECT_TRUE(In.good()) << "cannot open tests/golden/runtime.txt";
    for (std::string Line; std::getline(In, Line);) {
      std::string Key = Line.substr(0, Line.find('\t'));
      EXPECT_TRUE(M.emplace(Key, Line).second) << "duplicate key " << Key;
    }
    return M;
  }();
  return Lines;
}

} // namespace

std::string golden::runLine(std::string_view Key, std::string_view Source,
                            const rt::RunResult &R,
                            const rt::EvalOptions &Opts) {
  auto U = [](uint64_t V) { return std::to_string(V); };
  char Hash[17];
  std::snprintf(Hash, sizeof(Hash), "%016llx",
                static_cast<unsigned long long>(
                    service::Fnv1a().bytes(Source).value()));
  const HeapStats &H = R.Heap;
  std::string L = std::string(Key) + "\tsrc=" + Hash +
                  "\toutcome=" + outcomeName(R.Outcome) +
                  "\terror=" + escaped(R.Error) +
                  "\toutput=" + escaped(R.Output) +
                  "\tresult=" + escaped(R.ResultText) +
                  "\tsteps=" + U(R.Steps);
  L += "\theap=" + U(H.AllocWords) + "," + U(H.CurrentHeapWords) + "," +
       U(H.PeakHeapWords) + "," + U(H.GcCount) + "," + U(H.MinorGcCount) +
       "," + U(H.MajorGcCount) + "," + U(H.CopiedWords) + "," +
       U(H.RegionsCreated) + "," + U(H.FiniteRegionsCreated) + "," +
       U(H.PagesAllocated) + "," + U(H.PagesFromSharedPool);
  // Each pause as <m|M><copied words>/<live regions>.
  L += "\tpauses=" + U(R.GcPauses.size()) + ":";
  for (const GcPauseRecord &P : R.GcPauses)
    L += std::string(P.Minor ? "m" : "M") + U(P.CopiedWords) + "/" +
         U(P.LiveRegions) + ",";
  // Each region as <static id>:<kind>:<instances>:<words>[:f], by id
  // (the runtime orders by allocation, and its sort is not stable).
  std::vector<RegionProfile> Regions = R.Regions;
  std::sort(Regions.begin(), Regions.end(),
            [](const RegionProfile &A, const RegionProfile &B) {
              return A.StaticId < B.StaticId;
            });
  L += "\tregions=";
  for (const RegionProfile &P : Regions)
    L += U(P.StaticId) + ":" + regionKindName(P.Kind) + ":" + U(P.Instances) +
         ":" + U(P.AllocWords) + (P.Finite ? ":f" : "") + ",";
  // The static trigger, in the column layout the lines were recorded
  // with.
  L += "\tpolicy=static,0,0,0,0,0,0," +
       U(std::max<uint64_t>(1, Opts.GcThresholdWords)) + "," +
       U(std::max(1u, Opts.MinorsPerMajor));
  return L;
}

void golden::expectMatchesGolden(std::string_view Key, std::string_view Source,
                                 const rt::RunResult &R,
                                 const rt::EvalOptions &Opts) {
  std::string Now = runLine(Key, Source, R, Opts);
  auto It = goldenLines().find(std::string(Key));
  if (It == goldenLines().end()) {
    ADD_FAILURE() << "no golden line for " << Key << "; this run's line:\n"
                  << Now;
    return;
  }
  if (Now != It->second)
    ADD_FAILURE() << "runtime golden mismatch for " << Key
                  << "\n  recorded: " << It->second
                  << "\n  now:      " << Now;
}
