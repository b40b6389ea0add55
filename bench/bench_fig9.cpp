//===- bench/bench_fig9.cpp - The Figure 9 table ---------------------------===//
//
// Regenerates the paper's evaluation table (Figure 9): for every
// benchmark, lines of code, spurious functions / total functions,
// spurious boxed instantiations / total instantiations, whether the
// spurious treatment changed the generated program (diff), and execution
// time / resident memory / collection counts under the rg, rg- and r
// strategies.
//
// Absolute numbers differ from the paper (interpreter vs native MLKit
// code); the *shape* — rg ~ rg-, r faster but sometimes much larger
// memory, spurious functions rare, diff only with spurious functions —
// is the reproduced claim. See EXPERIMENTS.md.
//
// A second table follows (not in --csv mode): per program, the closures
// the capture analysis found, their distinct captured region variables,
// and the escaped residue under rg and rg-.
//
// Usage: bench_fig9 [--reps N] [--bench NAME] [--csv]
//
//===----------------------------------------------------------------------===//

#include "bench/Programs.h"
#include "core/Pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <vector>

using namespace rml;

namespace {

/// A structural signature of the generated program that ignores effect
/// annotations: preorder (kind, at-region, bound-region). Two strategies
/// "differ" (the paper's diff column) when region placement differs.
void signature(const RExpr *E, std::string &Out) {
  if (!E)
    return;
  Out += static_cast<char>('A' + static_cast<int>(E->K));
  if (E->AtRho.isValid()) {
    Out += 'r';
    Out += std::to_string(E->AtRho.Id);
  }
  if (E->BoundRho.isValid()) {
    Out += 'L';
    Out += std::to_string(E->BoundRho.Id);
  }
  signature(E->A, Out);
  signature(E->B, Out);
  signature(E->C, Out);
  for (const RExpr *Item : E->Items)
    signature(Item, Out);
}

struct Measurement {
  double MeanMs = 0;
  double RelStddev = 0; // percent
  uint64_t PeakBytes = 0;
  uint64_t GcCount = 0;
  bool Ok = false;
  std::string Error;
};

Measurement measure(const std::string &Source, Strategy S, unsigned Reps) {
  Measurement M;
  Compiler C;
  CompileOptions Opts;
  Opts.Strat = S;
  auto Unit = C.compile(Source, Opts);
  if (!Unit) {
    M.Error = "compile failed";
    return M;
  }
  std::vector<double> Times;
  for (unsigned I = 0; I < Reps; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    rt::RunResult R = C.run(*Unit);
    auto T1 = std::chrono::steady_clock::now();
    if (R.Outcome != rt::RunOutcome::Ok) {
      M.Error = R.Error;
      return M;
    }
    Times.push_back(
        std::chrono::duration<double, std::milli>(T1 - T0).count());
    M.PeakBytes = R.Heap.peakBytes();
    M.GcCount = R.Heap.GcCount;
  }
  double Sum = 0;
  for (double T : Times)
    Sum += T;
  M.MeanMs = Sum / Times.size();
  double Var = 0;
  for (double T : Times)
    Var += (T - M.MeanMs) * (T - M.MeanMs);
  M.RelStddev = Times.size() > 1 && M.MeanMs > 0
                    ? 100.0 * std::sqrt(Var / (Times.size() - 1)) / M.MeanMs
                    : 0;
  M.Ok = true;
  return M;
}

/// Figure-9-style capture-tracking counts per corpus program: closure
/// count, distinct captured region variables, and the escaped residue
/// (value-captured regions missing from the latent effect) under rg and
/// rg-. The capture sets are a static product of the shared region
/// inference, so the two strategy columns agree — what differs is what
/// the number means: rg's containment side conditions pin every escaped
/// region's letregion outside the closure's lifetime, while under rg-
/// the same (closure, region) pairs are exactly the dangling-pointer
/// window the paper closes (the figure1 demo dies tracing into one).
void captureTable(const std::string &Only) {
  struct Counts {
    size_t Closures = 0, Regions = 0, Escaped = 0;
  };
  auto countsOf = [](const std::string &Source, Strategy S) {
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = S;
    Opts.Captures = true;
    auto Unit = C.compile(Source, Opts);
    Counts N;
    if (!Unit || !Unit->Captures)
      return N;
    std::set<uint32_t> Distinct;
    for (const ClosureCapture &CC : Unit->Captures->Closures) {
      ++N.Closures;
      Distinct.insert(CC.ViaValue.begin(), CC.ViaValue.end());
      Distinct.insert(CC.ViaEffect.begin(), CC.ViaEffect.end());
      std::vector<uint32_t> Residue;
      std::set_difference(CC.ViaValue.begin(), CC.ViaValue.end(),
                          CC.ViaEffect.begin(), CC.ViaEffect.end(),
                          std::back_inserter(Residue));
      N.Escaped += Residue.size();
    }
    N.Regions = Distinct.size();
    return N;
  };

  std::printf("\ncapture tracking (closures, captured region variables, "
              "escaped = value \\ latent)\n");
  std::printf("%-12s %9s %12s %12s %12s\n", "program", "closures",
              "regions(rg)", "escaped(rg)", "escaped(rg-)");
  for (const bench::BenchProgram &P : bench::benchmarkSuite()) {
    if (!Only.empty() && P.Name != Only)
      continue;
    Counts Rg = countsOf(P.Source, Strategy::Rg);
    Counts RgMinus = countsOf(P.Source, Strategy::RgMinus);
    std::printf("%-12s %9zu %12zu %12zu %12zu\n", P.Name.c_str(),
                Rg.Closures, Rg.Regions, Rg.Escaped, RgMinus.Escaped);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 5;
  std::string Only;
  bool Csv = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--reps") && I + 1 < Argc)
      Reps = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--bench") && I + 1 < Argc)
      Only = Argv[++I];
    else if (!std::strcmp(Argv[I], "--csv"))
      Csv = true;
  }

  if (Csv)
    std::printf("program,loc,spurious_fcns,total_fcns,spurious_boxed_insts,"
                "total_insts,diff,rg_ms,rgminus_ms,r_ms,rg_rss_kb,"
                "rgminus_rss_kb,r_rss_kb,rg_gc,rgminus_gc\n");
  else
    std::printf("Figure 9 — benchmark programs under rg / rg- / r\n");
  if (!Csv) {
    std::printf("(times in ms with relative stddev; rss = peak region-heap "
                "bytes; %u reps)\n\n",
                Reps);
    std::printf(
        "%-8s %4s %7s %9s %4s | %13s %13s %13s | %9s %9s %9s | %6s %6s\n",
        "program", "loc", "fcns", "inst", "diff", "rg time", "rg- time",
        "r time", "rg rss", "rg- rss", "r rss", "rg gc", "rg- gc");
  }

  for (const bench::BenchProgram &P : bench::benchmarkSuite()) {
    if (!Only.empty() && P.Name != Only)
      continue;

    // Static columns from the rg compilation.
    Compiler Crg, Crgm;
    CompileOptions ORg, ORgm;
    ORg.Strat = Strategy::Rg;
    ORgm.Strat = Strategy::RgMinus;
    auto URg = Crg.compile(P.Source, ORg);
    auto URgm = Crgm.compile(P.Source, ORgm);
    if (!URg || !URgm) {
      std::printf("%-8s compile failed\n%s%s\n", P.Name.c_str(),
                  Crg.diagnostics().str().c_str(),
                  Crgm.diagnostics().str().c_str());
      return 1;
    }
    std::string SigRg, SigRgm;
    signature(URg->program().Root, SigRg);
    signature(URgm->program().Root, SigRgm);
    bool Diff = SigRg != SigRgm;

    char Fcns[32], Inst[32];
    std::snprintf(Fcns, sizeof(Fcns), "%u/%u",
                  URg->Spurious.SpuriousFunctions,
                  URg->Spurious.TotalFunctions);
    std::snprintf(Inst, sizeof(Inst), "%u/%u",
                  URg->Spurious.SpuriousBoxedInsts, URg->Spurious.TotalInsts);

    Measurement MRg = measure(P.Source, Strategy::Rg, Reps);
    Measurement MRgm = measure(P.Source, Strategy::RgMinus, Reps);
    Measurement MR = measure(P.Source, Strategy::R, Reps);
    for (const Measurement *M : {&MRg, &MRgm, &MR}) {
      if (!M->Ok) {
        std::printf("%-8s RUN FAILED: %s\n", P.Name.c_str(),
                    M->Error.c_str());
        return 1;
      }
    }

    auto Fmt = [](const Measurement &M) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%7.2f±%2.0f%%", M.MeanMs,
                    M.RelStddev);
      return std::string(Buf);
    };
    auto Kb = [](uint64_t Bytes) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%7lluKb",
                    static_cast<unsigned long long>(Bytes / 1024));
      return std::string(Buf);
    };

    if (Csv) {
      std::printf("%s,%u,%u,%u,%u,%u,%d,%.3f,%.3f,%.3f,%llu,%llu,%llu,"
                  "%llu,%llu\n",
                  P.Name.c_str(), P.Loc, URg->Spurious.SpuriousFunctions,
                  URg->Spurious.TotalFunctions,
                  URg->Spurious.SpuriousBoxedInsts,
                  URg->Spurious.TotalInsts, Diff ? 1 : 0, MRg.MeanMs,
                  MRgm.MeanMs, MR.MeanMs,
                  static_cast<unsigned long long>(MRg.PeakBytes / 1024),
                  static_cast<unsigned long long>(MRgm.PeakBytes / 1024),
                  static_cast<unsigned long long>(MR.PeakBytes / 1024),
                  static_cast<unsigned long long>(MRg.GcCount),
                  static_cast<unsigned long long>(MRgm.GcCount));
      continue;
    }
    std::printf(
        "%-8s %4u %7s %9s %4s | %13s %13s %13s | %9s %9s %9s | %6llu %6llu\n",
        P.Name.c_str(), P.Loc, Fcns, Inst, Diff ? "y" : "", Fmt(MRg).c_str(),
        Fmt(MRgm).c_str(), Fmt(MR).c_str(), Kb(MRg.PeakBytes).c_str(),
        Kb(MRgm.PeakBytes).c_str(), Kb(MR.PeakBytes).c_str(),
        static_cast<unsigned long long>(MRg.GcCount),
        static_cast<unsigned long long>(MRgm.GcCount));
  }
  if (!Csv)
    captureTable(Only);
  return 0;
}
