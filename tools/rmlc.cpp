//===- tools/rmlc.cpp - The RegionML command-line driver ------------------===//
//
// Compile and run MiniML programs from the command line:
//
//   rmlc prog.mml                      compile (rg) and run
//   rmlc --strategy rg-|r prog.mml     the paper's other strategies
//   rmlc --print-program prog.mml      show the region-annotated program
//   rmlc --print-scheme f prog.mml     show f's region type scheme
//   rmlc --captures prog.mml           per-closure captured-region report
//   rmlc --stats prog.mml              heap/GC statistics after the run
//   rmlc --no-run prog.mml             static pipeline only
//   rmlc --spurious identify           scheme (3) instead of scheme (2)
//   rmlc --gc-threshold N              collection trigger (words)
//   rmlc --no-tagfree --no-finite      representation knobs
//   rmlc -e 'expr'                     compile a one-liner
//   rmlc --serve-batch D --jobs 4      compile+run every .mml under D
//                                      through the concurrent service
//   rmlc --time-phases prog.mml        per-phase wall-time table
//   rmlc --trace out.json prog.mml     Chrome trace-event dump
//
//===----------------------------------------------------------------------===//

#include "ServiceFlags.h"

#include "core/Pipeline.h"
#include "service/Service.h"
#include "smallstep/Step.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

using namespace rml;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: rmlc [options] <file.mml | -e 'program'>\n"
      "  --strategy rg|rg-|r    compilation strategy (default rg)\n"
      "  --spurious fresh|identify\n"
      "                         scheme (2) or scheme (3) for spurious\n"
      "                         type variables (default fresh)\n"
      "  --print-program        print the region-annotated program\n"
      "  --print-scheme NAME    print NAME's region type scheme\n"
      "  --captures             print the per-closure captured-region\n"
      "                         report (value vs latent-effect capture;\n"
      "                         the escaped residue marks regions only\n"
      "                         containment keeps alive — the rg-\n"
      "                         dangling-pointer window)\n"
      "  --stats                print heap/GC statistics\n"
      "  --profile              print region-representation decisions\n"
      "  --no-run               stop after the static pipeline\n"
      "  --smallstep            cross-check the result against the\n"
      "                         paper's formal semantics (pure programs)\n"
      "  --no-check             skip the Figure 4 region type checker\n"
      "  --gc-threshold WORDS   collection trigger (default 32768)\n"
      "  --retain-pages         exact dangling-pointer diagnostics\n"
      "  --generational         minor/major collections ([16,17])\n"
      "  --no-tagfree           disable the tag-free representation\n"
      "  --no-finite            disable finite (exact-size) regions\n"
      "  --serve-batch PATHS    compile+run every .mml program named by\n"
      "                         PATHS (comma-separated files and/or\n"
      "                         directories) through the concurrent\n"
      "                         service; prints a per-program line and a\n"
      "                         stats summary\n"
      "  --jobs N               service worker threads (default: one per\n"
      "                         hardware thread)\n"
      "  --cache N              service compile-cache entries "
      "(default 128)\n"
      "  --cache-dir DIR        persistent compile-cache directory: the\n"
      "                         static products of every compile are\n"
      "                         written there (one content-hash-named\n"
      "                         file each) and reused across process\n"
      "                         restarts; safe to share between\n"
      "                         processes (--serve-batch only)\n"
      "  --cache-max-bytes N    disk-cache byte watermark: a background\n"
      "                         sweeper evicts oldest entries until the\n"
      "                         directory fits (0 = unbounded;\n"
      "                         --serve-batch only)\n"
      "  --cache-max-age SECS   disk-cache entry age cut-off (0 = no\n"
      "                         limit; --serve-batch only)\n"
      "  --cache-sweep-ms MS    sweep cadence (default 5000;\n"
      "                         --serve-batch only)\n"
      "  --page-pool N          standard pages the cross-request page\n"
      "                         pool may hold; 0 disables pooling\n"
      "                         (default 1024; --serve-batch only)\n"
      "  --sched fifo|fair      service dequeue policy: submission order\n"
      "                         or per-tenant fair share\n"
      "                         (default fifo; --serve-batch only)\n"
      "  --time-phases          print a per-phase wall-time table (per\n"
      "                         request, or aggregated in --serve-batch)\n"
      "  --trace FILE           write a Chrome trace-event JSON of every\n"
      "                         pipeline phase to FILE\n");
}

std::optional<std::string> readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Expands the --serve-batch argument: a comma-separated mix of .mml
/// files and directories (scanned non-recursively for *.mml, sorted).
std::vector<std::string> collectBatchPaths(const std::string &Spec) {
  namespace fs = std::filesystem;
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Piece = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() + 1 : Comma + 1;
    if (Piece.empty())
      continue;
    std::error_code Ec;
    if (fs::is_directory(Piece, Ec)) {
      std::vector<std::string> Dir;
      for (const fs::directory_entry &E : fs::directory_iterator(Piece, Ec))
        if (E.is_regular_file() && E.path().extension() == ".mml")
          Dir.push_back(E.path().string());
      std::sort(Dir.begin(), Dir.end());
      Out.insert(Out.end(), Dir.begin(), Dir.end());
    } else {
      Out.push_back(Piece);
    }
  }
  return Out;
}

/// One row per phase; the total row is the sum of the rows above it,
/// i.e. the whole compile+run wall time as the phase manager saw it.
void printPhaseTable(const std::vector<PhaseProfile> &Profiles) {
  std::printf("%-14s %12s %8s %14s\n", "phase", "time (ms)", "diags",
              "arena nodes");
  uint64_t TotalNanos = 0;
  for (const PhaseProfile &P : Profiles) {
    TotalNanos += P.WallNanos;
    if (P.Skipped) {
      std::printf("%-14s %12s %8s %14s\n", P.Name.c_str(), "skipped", "-",
                  "-");
      continue;
    }
    std::printf("%-14s %12.3f %8llu %14llu", P.Name.c_str(),
                P.WallNanos / 1e6,
                static_cast<unsigned long long>(P.DiagnosticsEmitted),
                static_cast<unsigned long long>(P.ArenaNodeDelta));
    if (P.Name == Compiler::RunPhaseName)
      std::printf("   (%llu gc, %llu words alloc)",
                  static_cast<unsigned long long>(P.GcCount),
                  static_cast<unsigned long long>(P.AllocWords));
    std::printf("\n");
  }
  std::printf("%-14s %12.3f\n", "total", TotalNanos / 1e6);
}

/// The --serve-batch variant: per-phase aggregates over the whole run.
void printPhaseAggregates(const service::ServiceStats &S) {
  std::printf("%-14s %12s %12s %8s\n", "phase", "total (ms)", "max (ms)",
              "count");
  uint64_t TotalNanos = 0;
  for (const service::ServiceStats::PhaseAggregate &A : S.Phases) {
    TotalNanos += A.SumNanos;
    std::printf("%-14s %12.3f %12.3f %8llu\n", A.Name.c_str(),
                A.SumNanos / 1e6, A.MaxNanos / 1e6,
                static_cast<unsigned long long>(A.Count));
  }
  std::printf("%-14s %12.3f\n", "total", TotalNanos / 1e6);
}

/// Writes the collected trace; non-fatal on failure (the run already
/// happened).
void finishTrace(const ChromeTraceSink &Sink, const std::string &Path) {
  if (Sink.writeFile(Path))
    std::fprintf(stderr, "[trace: %zu event(s) written to %s]\n",
                 Sink.eventCount(), Path.c_str());
  else
    std::fprintf(stderr, "rmlc: cannot write trace to '%s'\n", Path.c_str());
}

/// The --serve-batch driver: every program goes through the concurrent
/// service; results print in submission order.
int serveBatch(const std::string &Spec, service::ServiceConfig Cfg,
               const CompileOptions &Opts, const rt::EvalOptions &EvalOpts,
               bool Stats, bool TimePhases, const std::string &TracePath) {
  std::vector<std::string> Paths = collectBatchPaths(Spec);
  if (Paths.empty()) {
    std::fprintf(stderr, "rmlc: --serve-batch '%s' names no .mml programs\n",
                 Spec.c_str());
    return 2;
  }

  ChromeTraceSink Trace;
  if (!TracePath.empty())
    Cfg.Trace = &Trace;
  service::Service Svc(Cfg);

  std::vector<std::pair<std::string, std::future<service::Response>>> Futures;
  Futures.reserve(Paths.size());
  for (const std::string &P : Paths) {
    std::optional<std::string> Text = readFile(P.c_str());
    if (!Text) {
      std::fprintf(stderr, "rmlc: cannot read '%s'\n", P.c_str());
      return 2;
    }
    service::Request Req;
    Req.Source = std::move(*Text);
    Req.Opts = Opts;
    Req.EvalOpts = EvalOpts;
    Futures.emplace_back(P, Svc.submit(std::move(Req)));
  }

  int Failures = 0;
  for (auto &[Path, Fut] : Futures) {
    service::Response R = Fut.get();
    const char *Status;
    std::string Detail;
    if (!R.CompileOk) {
      Status = "compile error";
      Detail = R.Diagnostics;
      ++Failures;
    } else if (R.Outcome == rt::RunOutcome::Ok) {
      Status = "ok";
      Detail = "val it = " + R.ResultText;
    } else {
      Status = R.Outcome == rt::RunOutcome::DanglingPointer ? "gc failure"
                                                            : "run error";
      Detail = R.Error;
      ++Failures;
    }
    while (!Detail.empty() && Detail.back() == '\n')
      Detail.pop_back();
    std::printf("%-40s %-13s %s%s\n", Path.c_str(), Status,
                R.CacheHit ? "[cached] " : "", Detail.c_str());
  }

  // Every future has resolved, but a worker decrements the in-flight
  // gauge only after completing the hand-off; join them so the final
  // snapshot reads settled (in_flight 0, not a transient 1).
  Svc.shutdown();
  service::ServiceStats S = Svc.stats();
  if (!Cfg.CacheDir.empty()) {
    std::printf("[disk cache '%s': %llu hit(s), %llu miss(es), %llu "
                "reject(s), %llu write error(s)]\n",
                Cfg.CacheDir.c_str(), static_cast<unsigned long long>(S.DiskHits),
                static_cast<unsigned long long>(S.DiskMisses),
                static_cast<unsigned long long>(S.DiskLoadRejects),
                static_cast<unsigned long long>(S.DiskWriteErrors));
    if (S.SweptFiles || S.SweepErrors)
      std::printf("[disk sweeper: %llu file(s) evicted, %llu byte(s), "
                  "%llu error(s)]\n",
                  static_cast<unsigned long long>(S.SweptFiles),
                  static_cast<unsigned long long>(S.SweptBytes),
                  static_cast<unsigned long long>(S.SweepErrors));
  }
  std::printf("%zu program(s), %d failure(s); %llu cache hit(s), "
              "%llu miss(es); queue high-water %llu; %.0f%% worker "
              "utilization; %llu gc run(s), %llu words allocated; "
              "%.0f%% page reuse (%llu pooled page(s) held)\n",
              Paths.size(), Failures,
              static_cast<unsigned long long>(S.CacheHits),
              static_cast<unsigned long long>(S.CacheMisses),
              static_cast<unsigned long long>(S.QueueHighWater),
              100.0 * S.utilization(),
              static_cast<unsigned long long>(S.TotalGcCount),
              static_cast<unsigned long long>(S.TotalAllocWords),
              100.0 * S.Pool.reuseRatio(),
              static_cast<unsigned long long>(S.Pool.FreePages));
  if (TimePhases)
    printPhaseAggregates(S);
  if (Stats)
    std::printf("%s\n", S.json().c_str());
  if (!TracePath.empty())
    finishTrace(Trace, TracePath);
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  CompileOptions Opts;
  rt::EvalOptions EvalOpts;
  bool PrintProgram = false, Stats = false, Profile = false, Run = true;
  bool CrossCheck = false;
  std::string SchemeName, Source;
  bool HaveSource = false;
  std::string BatchSpec;
  service::ServiceConfig SvcCfg;
  bool TimePhases = false;
  std::string TracePath;

  for (ArgCursor Args("rmlc", Argc, Argv); Args.next();) {
    if (parseServiceFlag(Args, SvcCfg))
      continue;
    const char *A = Args.arg();
    if (Args.is("--strategy")) {
      const char *S = Args.value();
      if (!std::strcmp(S, "rg"))
        Opts.Strat = Strategy::Rg;
      else if (!std::strcmp(S, "rg-"))
        Opts.Strat = Strategy::RgMinus;
      else if (!std::strcmp(S, "r"))
        Opts.Strat = Strategy::R;
      else
        Args.fail(std::string("unknown strategy '") + S + "'");
    } else if (Args.is("--spurious")) {
      const char *S = Args.value();
      Opts.Spurious = !std::strcmp(S, "identify")
                          ? SpuriousMode::IdentifyWithFun
                          : SpuriousMode::FreshSecondary;
    } else if (Args.is("--print-program")) {
      PrintProgram = true;
    } else if (Args.is("--print-scheme")) {
      SchemeName = Args.value();
    } else if (Args.is("--captures")) {
      Opts.Captures = true;
    } else if (Args.is("--stats")) {
      Stats = true;
    } else if (Args.is("--profile")) {
      Profile = true;
    } else if (Args.is("--smallstep")) {
      CrossCheck = true;
    } else if (Args.is("--no-run")) {
      Run = false;
    } else if (Args.is("--no-check")) {
      Opts.Check = false;
    } else if (Args.is("--gc-threshold")) {
      EvalOpts.GcThresholdWords = Args.number(UINT64_MAX);
    } else if (Args.is("--retain-pages")) {
      EvalOpts.RetainReleasedPages = true;
    } else if (Args.is("--generational")) {
      EvalOpts.Generational = true;
    } else if (Args.is("--no-tagfree")) {
      EvalOpts.TagFreePairs = false;
    } else if (Args.is("--no-finite")) {
      EvalOpts.UseFiniteRegions = false;
    } else if (Args.is("--serve-batch")) {
      BatchSpec = Args.value();
    } else if (Args.is("--time-phases")) {
      TimePhases = true;
    } else if (Args.is("--trace")) {
      TracePath = Args.value();
    } else if (Args.is("-e")) {
      Source = Args.value();
      HaveSource = true;
    } else if (Args.is("--help") || Args.is("-h")) {
      usage();
      return 0;
    } else if (A[0] == '-') {
      std::fprintf(stderr, "rmlc: unknown option '%s'\n", A);
      usage();
      return 2;
    } else {
      std::optional<std::string> Text = readFile(A);
      if (!Text) {
        std::fprintf(stderr, "rmlc: cannot read '%s'\n", A);
        return 2;
      }
      Source = std::move(*Text);
      HaveSource = true;
    }
  }
  if (!BatchSpec.empty())
    return serveBatch(BatchSpec, SvcCfg, Opts, EvalOpts, Stats, TimePhases,
                      TracePath);
  if (!HaveSource) {
    usage();
    return 2;
  }

  ChromeTraceSink Trace;
  Compiler C;
  if (!TracePath.empty())
    C.setTraceSink(&Trace);
  auto Unit = C.compile(Source, Opts);
  if (!Unit) {
    std::fprintf(stderr, "%s", C.diagnostics().str().c_str());
    if (TimePhases)
      printPhaseTable(C.lastPhaseProfiles());
    if (!TracePath.empty())
      finishTrace(Trace, TracePath);
    return 1;
  }

  if (!SchemeName.empty()) {
    std::string S = C.schemeOf(*Unit, SchemeName);
    if (S.empty()) {
      std::fprintf(stderr, "rmlc: no scheme for '%s'\n", SchemeName.c_str());
      return 1;
    }
    std::printf("%s : %s\n", SchemeName.c_str(), S.c_str());
  }
  if (PrintProgram)
    std::printf("%s\n", C.printProgram(*Unit).c_str());
  if (Opts.Captures)
    std::fputs(C.captureReport(*Unit).c_str(), stdout);
  if (Profile) {
    std::printf("strategy %s: %u schemes, %u letregions, %u finite "
                "regions, %u tag-free regions, %u/%u dropped formals, "
                "%u/%u spurious functions\n",
                strategyName(Opts.Strat), Unit->Inferred.NumSchemes,
                Unit->Inferred.NumLetRegions, Unit->Mult.finiteCount(),
                Unit->Kinds.tagFreeCount(), Unit->Drops.DroppedFormals,
                Unit->Drops.TotalFormals, Unit->Spurious.SpuriousFunctions,
                Unit->Spurious.TotalFunctions);
  }
  if (!Run) {
    if (TimePhases)
      printPhaseTable(C.lastPhaseProfiles());
    if (!TracePath.empty())
      finishTrace(Trace, TracePath);
    return 0;
  }

  rt::RunResult R = C.run(*Unit, EvalOpts);
  if (!R.Output.empty())
    std::fputs(R.Output.c_str(), stdout);
  int RunExit = 0;
  switch (R.Outcome) {
  case rt::RunOutcome::Ok:
    std::printf("val it = %s\n", R.ResultText.c_str());
    break;
  case rt::RunOutcome::UncaughtException:
    std::fprintf(stderr, "rmlc: %s\n", R.Error.c_str());
    RunExit = 1;
    break;
  case rt::RunOutcome::DanglingPointer:
    std::fprintf(stderr, "rmlc: GC failure: %s\n", R.Error.c_str());
    RunExit = 1;
    break;
  case rt::RunOutcome::RuntimeError:
    std::fprintf(stderr, "rmlc: runtime error: %s\n", R.Error.c_str());
    RunExit = 1;
    break;
  }
  if (TimePhases) {
    // Static phases then the runtime phase: one row per phase, summing
    // to the whole compile+run wall time.
    std::vector<PhaseProfile> All = C.lastPhaseProfiles();
    All.push_back(R.Phase);
    printPhaseTable(All);
  }
  if (!TracePath.empty())
    finishTrace(Trace, TracePath);
  if (RunExit)
    return RunExit;
  if (Profile) {
    std::fprintf(stderr, "top allocating regions:\n");
    unsigned Shown = 0;
    for (const rt::RegionProfile &P : R.Regions) {
      if (P.AllocWords == 0 || Shown++ >= 8)
        break;
      std::fprintf(stderr,
                   "  r%-5u %-8s %8llu words over %llu instance(s)%s\n",
                   P.StaticId, regionKindName(P.Kind),
                   static_cast<unsigned long long>(P.AllocWords),
                   static_cast<unsigned long long>(P.Instances),
                   P.Finite ? " [finite]" : "");
    }
  }
  if (Stats)
    std::fprintf(stderr,
                 "[%llu steps, %llu words allocated, peak %llu Kb, "
                 "%llu collections (%llu words copied), %llu regions "
                 "(%llu finite)]\n",
                 static_cast<unsigned long long>(R.Steps),
                 static_cast<unsigned long long>(R.Heap.AllocWords),
                 static_cast<unsigned long long>(R.Heap.peakBytes() / 1024),
                 static_cast<unsigned long long>(R.Heap.GcCount),
                 static_cast<unsigned long long>(R.Heap.CopiedWords),
                 static_cast<unsigned long long>(R.Heap.RegionsCreated),
                 static_cast<unsigned long long>(
                     R.Heap.FiniteRegionsCreated));
  if (CrossCheck) {
    RExprArena Arena;
    SmallStep Machine(Arena, C.names());
    Effect Phi{AtomicEffect(RegionVar::global())};
    SmallStep::RunResult SR =
        Machine.run(Unit->program().Root, Phi, 10'000'000);
    if (!SR.Finished) {
      std::fprintf(stderr,
                   "rmlc: small-step cross-check inconclusive: %s\n",
                   SR.Why.c_str());
      return 1;
    }
    std::string Formal = printRExpr(SR.Final, C.names());
    std::fprintf(stderr, "[small-step semantics agrees: %s]\n",
                 Formal.c_str());
  }
  return 0;
}
