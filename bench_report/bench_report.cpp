//===- bench_report/bench_report.cpp - The benchmark of record ------------===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
//
// One benchmark, four named workloads, every metric by name and unit:
//
//   bench_report --workload fig9|compile-cold|serve-hot|serve-disk|all
//                --seed N --seconds S --trace 0|1 [--json OUT]
//                [--work-dir DIR]
//
// An untraced run (--trace 0) measures the end-to-end metrics; a traced
// run (--trace 1) repeats the untraced measurement, then replays the
// workload through each layer's public functions inside spans and
// reports the per-layer metrics. The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; every answer the program
// gives is checked, and a wrong one makes the exit code nonzero.
//
// Why these workloads (README.md has the full map):
//   fig9          the paper's table; the runtime (evaluator, GC, regions)
//                 does ~95% of the work, no service or network.
//   compile-cold  every request misses both cache tiers: the static
//                 pipeline and the caches' write side; no runs.
//   serve-hot     every request hits the memory cache and most run: the
//                 runtime and the shared page pool under 2 workers.
//   serve-disk    the working set is far larger than the memory tier:
//                 disk loads and flat decodes, tiny service times, so the
//                 network layer has its largest share.
//
//===----------------------------------------------------------------------===//

#include "Client.h"
#include "Corpus.h"
#include "Metrics.h"
#include "Spans.h"
#include "Workload.h"

#include "core/Pipeline.h"
#include "flat/Flat.h"
#include "net/Latency.h"
#include "net/Server.h"
#include "service/Cache.h"
#include "service/DiskCache.h"
#include "service/Hash.h"
#include "service/Scheduler.h"
#include "service/Service.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace rml;
using namespace rml::benchreport;
namespace fs = std::filesystem;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string JsonOut;
  /// Root of the disk tiers' temporary directories and of traces/.
  std::string WorkDir = ".bench_build/work";
};

/// Set-ups per run; setup_s is their median.
constexpr unsigned Setups = 5;

/// Share of --seconds the daemon workloads spend in open loops; the rest
/// is closed loops. The measurement alternates Cycles of each.
constexpr double OpenShare = 0.6;
constexpr unsigned Cycles = 8;
/// The quantile of a repeated operation's samples that stands for its
/// time. The operations are deterministic, and interference from the
/// rest of a shared machine only ever adds time, so a low quantile is
/// the figure that repeats from run to run.
constexpr double LowQuantile = 0.1;
/// Requests the closed loop keeps outstanding (2 per connection).
constexpr unsigned ClosedOutstanding = 4;
constexpr unsigned Connections = 2;
constexpr unsigned Workers = 2;
/// Deep enough that a stall of the machine of up to a second at 5000
/// req/s queues instead of shedding: the workloads measure serving, not
/// admission control, and no request of theirs may fail.
constexpr size_t QueueCapacity = 8192;
/// Runs of every Figure 9 cell per compile.
constexpr unsigned Fig9Runs = 3;
/// Comment variants per program in serve-disk's working set.
constexpr uint32_t DiskVariants = 16;

double secondsSince(uint64_t T0) {
  return static_cast<double>(traceNowNanos() - T0) / 1e9;
}

template <class F>
uint64_t timed(SpanRecorder *Tr, const char *Name, Layer L, F &&Body) {
  if (Tr)
    return Tr->span(Name, L, Body);
  uint64_t T0 = traceNowNanos();
  Body();
  return traceNowNanos() - T0;
}

unsigned strategyIndex(Strategy S) {
  return S == Strategy::Rg ? 0 : S == Strategy::RgMinus ? 1 : 2;
}

//===----------------------------------------------------------------------===//
// Per-layer accumulation shared by the traced fig9 round and the replay
//===----------------------------------------------------------------------===//

/// Runtime figures of one strategy, per run.
struct RtStats {
  uint64_t Runs = 0;
  double RunNs = 0, PauseNs = 0;
  std::vector<double> Pauses;
  double GcCount = 0, Alloc = 0, Copied = 0, Peak = 0, Steps = 0;

  void add(const rt::RunResult &R, uint64_t WallNs) {
    ++Runs;
    RunNs += static_cast<double>(WallNs);
    for (const GcPauseRecord &G : R.GcPauses) {
      PauseNs += static_cast<double>(G.WallNanos);
      Pauses.push_back(static_cast<double>(G.WallNanos));
    }
    GcCount += static_cast<double>(R.Heap.GcCount);
    Alloc += static_cast<double>(R.Heap.AllocWords);
    Copied += static_cast<double>(R.Heap.CopiedWords);
    Peak += static_cast<double>(R.Heap.PeakHeapWords);
    Steps += static_cast<double>(R.Steps);
  }

  void report(Report &Rep, const std::string &Sfx) const {
    if (!Runs)
      return;
    double N = static_cast<double>(Runs);
    Rep.set("rt.run_ns" + Sfx, RunNs / N);
    Rep.set("rt.mutator_ns" + Sfx, (RunNs - PauseNs) / N);
    Rep.set("rt.gc_pause_ns" + Sfx, PauseNs / N);
    Rep.set("rt.gc_pause_p99_ns" + Sfx, quantile(Pauses, 0.99));
    Rep.set("rt.gc_count" + Sfx, GcCount / N);
    Rep.set("rt.alloc_words" + Sfx, Alloc / N);
    Rep.set("rt.copied_words" + Sfx, Copied / N);
    Rep.set("rt.peak_heap_words" + Sfx, Peak / N);
    Rep.set("rt.steps" + Sfx, Steps / N);
  }
};

struct LayerTotals {
  RtStats Rt[3];
  uint64_t Compiles = 0, ArenaNodes = 0;
  std::set<uint64_t> Units; ///< hashCompileInputs of each unit timed
  uint64_t UnitBytes = 0;
  std::set<uint64_t> Entries;
  uint64_t EntryBytes = 0;
  uint64_t Requests = 0, RequestBytes = 0, ResponseBytes = 0;
};

/// A finished compile's phases become child spans of the open span.
void recordPhases(SpanRecorder &Tr, const std::vector<PhaseProfile> &Profiles,
                  LayerTotals &T) {
  ++T.Compiles;
  for (const PhaseProfile &P : Profiles) {
    T.ArenaNodes += P.ArenaNodeDelta;
    if (!P.Skipped) {
      Layer L = layerOfPhase(P.Name);
      Tr.child(std::string(layerName(L)) + "." + P.Name, L, P.StartNanos,
               P.WallNanos);
    }
  }
}

void recordPauses(SpanRecorder &Tr, const rt::RunResult &R) {
  for (const GcPauseRecord &G : R.GcPauses)
    Tr.child(G.Minor ? "rt.gc_minor" : "rt.gc_major", Layer::Rt, G.StartNanos,
             G.WallNanos);
}

/// Times encodeFlat and decodeFlat once per distinct unit, identified by
/// the hash of its compile inputs.
void recordFlat(SpanRecorder &Tr, const flat::FlatUnit *U, uint64_t Key,
                LayerTotals &T, Report &Rep) {
  if (!U || !T.Units.insert(Key).second)
    return;
  std::string Bytes;
  Tr.span("flat.encode", Layer::Flat, [&] { Bytes = flat::encodeFlat(*U); });
  std::shared_ptr<const flat::FlatUnit> Back;
  Tr.span("flat.decode", Layer::Flat, [&] { Back = flat::decodeFlat(Bytes); });
  if (!Back)
    Rep.fail("flat: a freshly encoded unit failed to decode");
  T.UnitBytes += Bytes.size();
}

/// Sets every span-derived per-layer metric. A metric "<stem>_ns" is the
/// mean of the spans named "<stem>"; self times are per operation.
void reportLayers(const SpanRecorder &Tr, const LayerTotals &T, uint64_t Ops,
                  Report &Rep) {
  auto EndsWith = [](const std::string &S, const char *Sfx) {
    size_t N = std::strlen(Sfx);
    return S.size() >= N && S.compare(S.size() - N, N, Sfx) == 0;
  };
  for (const MetricDef &D : layerMetrics())
    if (EndsWith(D.Name, "_ns") && !EndsWith(D.Name, ".self_ns"))
      Rep.set(D.Name, Tr.meanNanos(D.Name.substr(0, D.Name.size() - 3)));
  double PerOp = Ops ? 1.0 / static_cast<double>(Ops) : 0.0;
  for (size_t L = 0; L < NumLayers; ++L)
    if (static_cast<Layer>(L) != Layer::Bench)
      Rep.set(std::string(layerName(static_cast<Layer>(L))) + ".self_ns",
              static_cast<double>(Tr.selfNanos(static_cast<Layer>(L))) *
                  PerOp);
  auto Mean = [](uint64_t Sum, uint64_t N) {
    return N ? static_cast<double>(Sum) / static_cast<double>(N) : 0.0;
  };
  Rep.set("core.arena_nodes", Mean(T.ArenaNodes, T.Compiles));
  Rep.set("flat.unit_bytes", Mean(T.UnitBytes, T.Units.size()));
  Rep.set("service.disk.entry_bytes", Mean(T.EntryBytes, T.Entries.size()));
  Rep.set("net.request_bytes", Mean(T.RequestBytes, T.Requests));
  Rep.set("net.response_bytes", Mean(T.ResponseBytes, T.Requests));
  for (unsigned S = 0; S < 3; ++S)
    T.Rt[S].report(Rep, std::string(".") + Strategies[S]);
}

bool writeTrace(const SpanRecorder &Tr, const Options &O, const char *Name,
                Report &Rep) {
  std::error_code EC;
  std::string Dir = O.WorkDir + "/traces";
  fs::create_directories(Dir, EC);
  std::string Path = Dir + "/trace_" + Name + ".json";
  if (!Tr.writeTrace(Path)) {
    Rep.fail("cannot write " + Path);
    return false;
  }
  std::printf("  trace written to %s\n", Path.c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// fig9: the paper's table, in process
//===----------------------------------------------------------------------===//

struct Cell {
  const CorpusProgram *P = nullptr;
  Strategy S = Strategy::Rg;
};

/// The Figure 1, Figure 8 and Section 4.4 programs end Ok under rg and
/// trace a dangling pointer under rg- (exact detection on).
void checkUnsoundPrograms(Report &Rep) {
  for (const auto &[Name, Source] : unsoundPrograms())
    for (Strategy S : {Strategy::Rg, Strategy::RgMinus}) {
      Compiler C;
      CompileOptions Opts;
      Opts.Strat = S;
      auto Unit = C.compile(Source, Opts);
      rt::EvalOptions E;
      E.RetainReleasedPages = true;
      rt::RunOutcome Want = S == Strategy::Rg ? rt::RunOutcome::Ok
                                              : rt::RunOutcome::DanglingPointer;
      if (!Unit || C.run(*Unit, E).Outcome != Want)
        Rep.fail(std::string("fig9: ") + Name + " under " +
                 (S == Strategy::Rg ? "rg" : "rg-") + " did not end " +
                 (S == Strategy::Rg ? "Ok" : "with a dangling pointer"));
    }
}

/// The cells, each checked to compile, and the soundness preconditions.
std::vector<Cell> setUpFig9(Report &Rep) {
  std::vector<Cell> Cells;
  for (const CorpusProgram &P : corpus())
    for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
      Compiler C;
      CompileOptions Opts;
      Opts.Strat = S;
      if (!C.compile(P.Source, Opts))
        Rep.fail("fig9: " + P.Name + " failed to compile");
      Cells.push_back({&P, S});
    }
  checkUnsoundPrograms(Rep);
  return Cells;
}

/// One Figure 9 cell: a fresh Compiler compiles the program, then runs it
/// Fig9Runs times with default options and no shared pool. Returns the
/// cell's time, its compile plus its mean run, in ms (0 if it failed to
/// compile).
double runCell(const Cell &C, Report &Rep, std::vector<double> &CompileNs,
               std::vector<double> &RunNs, SpanRecorder *Tr, LayerTotals *T) {
  Compiler Comp;
  CompileOptions Opts;
  Opts.Strat = C.S;
  std::unique_ptr<CompiledUnit> Unit;
  ++Rep.Attempted;
  CompileNs.push_back(static_cast<double>(
      timed(Tr, "core.compile", Layer::Core, [&] {
        Unit = Comp.compile(C.P->Source, Opts);
        if (Tr)
          recordPhases(*Tr, Comp.lastPhaseProfiles(), *T);
      })));
  if (!Unit) {
    ++Rep.Failed;
    Rep.fail("fig9: " + C.P->Name + " failed to compile");
    return 0.0;
  }
  if (Tr)
    recordFlat(*Tr, Unit->Flat.get(),
               service::hashCompileInputs(C.P->Source, Opts), *T, Rep);
  double RunTotal = 0;
  for (unsigned I = 0; I < Fig9Runs; ++I) {
    ++Rep.Attempted;
    rt::RunResult R;
    uint64_t Wall = timed(Tr, "rt.run", Layer::Rt, [&] {
      R = Comp.run(*Unit);
      if (Tr)
        recordPauses(*Tr, R);
    });
    RunNs.push_back(static_cast<double>(Wall));
    RunTotal += static_cast<double>(Wall);
    if (T)
      T->Rt[strategyIndex(C.S)].add(R, Wall);
    if (R.Outcome != rt::RunOutcome::Ok) {
      ++Rep.Failed;
      Rep.fail("fig9: " + C.P->Name + " run failed: " + R.Error);
    } else if (R.ResultText != C.P->Expected) {
      Rep.fail("fig9: " + C.P->Name + " printed " + R.ResultText +
               ", expected " + C.P->Expected);
    }
  }
  return (CompileNs.back() + RunTotal / Fig9Runs) / 1e6;
}

/// Per cell, the low quantile of its compiles plus that of its runs, in
/// ms.
std::vector<double> cellMs(const std::vector<std::vector<double>> &CompileNs,
                           const std::vector<std::vector<double>> &RunNs) {
  std::vector<double> Ms;
  for (size_t I = 0; I < CompileNs.size(); ++I)
    if (!CompileNs[I].empty() && !RunNs[I].empty())
      Ms.push_back((quantile(CompileNs[I], LowQuantile) +
                    quantile(RunNs[I], LowQuantile)) /
                   1e6);
  return Ms;
}

double sumOfMedians(const std::vector<std::vector<double>> &V) {
  double S = 0;
  for (const std::vector<double> &X : V)
    S += median(X);
  return S;
}

Report runFig9(const Options &O) {
  Report Rep("fig9");
  std::vector<Cell> Cells;
  std::vector<double> SetupSecs;
  for (unsigned K = 0; K < Setups; ++K) {
    uint64_t T0 = traceNowNanos();
    Cells = setUpFig9(Rep);
    SetupSecs.push_back(secondsSince(T0));
  }
  Rep.set("setup_s", median(SetupSecs));

  size_t N = Cells.size();
  std::vector<std::vector<double>> CompileNs(N), RunNs(N);
  std::vector<double> AllMs; ///< every cell execution's time
  uint64_t Deadline = traceNowNanos() + static_cast<uint64_t>(O.Seconds * 1e9);
  for (uint64_t Round = 0;; ++Round) {
    // The first round always completes, so every cell has a sample.
    if (Round > 0 && traceNowNanos() >= Deadline)
      break;
    for (uint32_t I :
         blockPermutation(O.Seed, 4, Round, static_cast<uint32_t>(N))) {
      if (Round > 0 && traceNowNanos() >= Deadline)
        break;
      AllMs.push_back(
          runCell(Cells[I], Rep, CompileNs[I], RunNs[I], nullptr, nullptr));
    }
  }
  std::vector<double> Ms = cellMs(CompileNs, RunNs);
  double TotalMs = 0;
  for (double M : Ms)
    TotalMs += M;
  Rep.set("p50_ms", quantile(AllMs, 0.5));
  Rep.set("class_p50_ms", quantile(Ms, 0.5));
  Rep.set("class_p90_ms", quantile(Ms, 0.9));
  Rep.set("ops_per_s", TotalMs > 0 ? 1e3 * static_cast<double>(Ms.size()) /
                                         TotalMs
                                   : 0.0);
  Rep.set("bench.p90_ms", quantile(AllMs, 0.9));
  Rep.set("bench.p99_ms", quantile(AllMs, 0.99));
  Rep.set("bench.max_ms", quantile(AllMs, 1.0));

  if (!O.Trace)
    return Rep;
  // One traced round: identical calls, each inside spans.
  SpanRecorder Tr;
  LayerTotals T;
  std::vector<std::vector<double>> TracedCompile(N), TracedRun(N);
  for (uint32_t I : blockPermutation(O.Seed, 5, 0, static_cast<uint32_t>(N)))
    Tr.span("fig9.cell", Layer::Bench, [&] {
      runCell(Cells[I], Rep, TracedCompile[I], TracedRun[I], &Tr, &T);
    });
  reportLayers(Tr, T, N, Rep);
  double Untraced = sumOfMedians(RunNs);
  Rep.set("bench.trace_overhead",
          Untraced > 0 ? sumOfMedians(TracedRun) / Untraced : 0.0);
  writeTrace(Tr, O, "fig9", Rep);
  return Rep;
}

//===----------------------------------------------------------------------===//
// The daemon workloads: an in-process rmld over loopback
//===----------------------------------------------------------------------===//

enum class Sources { Cold, Hot, Disk };

struct DaemonSpec {
  const char *Name;
  KindMix Mix;
  Sources Src;
  double OpenRate;      ///< open-loop arrivals per second
  size_t CacheCapacity; ///< memory-tier entries
  bool DiskTier;
  uint32_t Replay; ///< requests the traced run replays
};

// Open-loop rates keep each worker under ~40% busy, where latency is
// mostly service time rather than queueing.
const DaemonSpec DaemonSpecs[] = {
    // 80% Compile, 10% SchemeQuery, 10% CaptureQuery, every one salted.
    {"compile-cold", {8, 0, 1, 1}, Sources::Cold, 200, 128, true, 190},
    // 90% CompileRun, 10% SchemeQuery over the warmed corpus. Runs take
    // 1-70 ms, so a request queues behind a long one more often than on
    // the other workloads; at ~20% busy few do, and a slower machine
    // inflates the median latency less.
    {"serve-hot", {0, 9, 1, 0}, Sources::Hot, 20, 128, false, 95},
    // 60% Compile, 20% SchemeQuery, 20% CaptureQuery over 608 entries
    // on disk beneath a 16-entry memory tier.
    {"serve-disk", {6, 0, 2, 2}, Sources::Disk, 5000, 16, true, 950},
};

/// The answers every daemon response is checked against, from one
/// set-up compile per program (plain and with captures) and the
/// hand-written result table.
struct Reference {
  std::vector<const CorpusProgram *> Programs;
  std::vector<service::CachedCompileRef> Plain, Captures;
  std::vector<std::vector<std::string>> SchemeNames;
  std::vector<std::vector<std::pair<std::string, std::string>>> Schemes;
};

Reference buildReference(Report &Rep) {
  Reference C;
  CompileOptions Plain, Caps;
  Caps.Captures = true;
  for (const CorpusProgram &P : corpus()) {
    C.Programs.push_back(&P);
    C.Plain.push_back(service::compileShared(P.Source, Plain));
    C.Captures.push_back(service::compileShared(P.Source, Caps));
    if (!C.Plain.back()->ok() || !C.Captures.back()->ok() ||
        C.Plain.back()->Schemes.empty()) {
      Rep.fail("set-up: " + P.Name + " failed to compile");
      C.SchemeNames.emplace_back();
      C.Schemes.emplace_back();
    } else {
      // Two basis functions and the program's own last binding.
      C.SchemeNames.push_back(
          {"compose", "map", C.Plain.back()->Schemes.back().first});
      C.Schemes.emplace_back();
      for (const std::string &Name : C.SchemeNames.back())
        C.Schemes.back().emplace_back(Name, C.Plain.back()->schemeOf(Name));
    }
  }
  return C;
}

net::WireRequest makeRequest(const DaemonSpec &S, const RequestStream &Stream,
                             const Reference &C, uint64_t Seed, uint64_t Id) {
  RequestSpec R = Stream.at(Id);
  net::WireRequest W;
  W.Id = Id;
  W.Kind = R.Kind;
  const std::string &Src = C.Programs[R.Program]->Source;
  switch (S.Src) {
  case Sources::Cold:
    W.Source = coldSource(Src, Seed, Id);
    break;
  case Sources::Hot:
    W.Source = Src;
    break;
  case Sources::Disk:
    W.Source = variantSource(Src, Seed, R.Variant);
    break;
  }
  if (R.Kind == net::MsgKind::SchemeQuery)
    W.SchemeNames = C.SchemeNames[R.Program];
  return W;
}

/// True when an Ok response carries exactly the expected answer.
bool checkResponse(const RequestStream &Stream, const Reference &C,
                   const net::WireResponse &W) {
  RequestSpec R = Stream.at(W.Id);
  switch (R.Kind) {
  case net::MsgKind::Compile:
    return W.CompileOk && W.Result.empty();
  case net::MsgKind::CompileRun:
    return W.CompileOk && W.Ran && W.Result == C.Programs[R.Program]->Expected;
  case net::MsgKind::SchemeQuery:
    return W.CompileOk && W.Schemes == C.Schemes[R.Program];
  case net::MsgKind::CaptureQuery:
    return W.CompileOk && !W.Result.empty() &&
           W.Result == C.Captures[R.Program]->CaptureReport;
  }
  return false;
}

/// A fresh directory under the work root, removed on destruction.
class TempDir {
public:
  TempDir(const std::string &Root, const std::string &Tag) {
    std::error_code EC;
    fs::create_directories(Root, EC);
    std::string Pattern = Root + "/" + Tag + "-XXXXXX";
    std::vector<char> Buf(Pattern.begin(), Pattern.end());
    Buf.push_back('\0');
    if (::mkdtemp(Buf.data()))
      Path = Buf.data();
  }
  ~TempDir() {
    std::error_code EC;
    if (!Path.empty())
      fs::remove_all(Path, EC);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  bool ok() const { return !Path.empty(); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// rmld in process: a Service with its own network front door, the
/// event loop on a thread of its own.
class Daemon {
public:
  explicit Daemon(service::ServiceConfig Cfg)
      : Svc(std::move(Cfg)), Srv(Svc) {
    if (Srv.ok())
      Loop = std::thread([this] { Srv.run(); });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Drains the front door, then the service. Idempotent.
  void stop() {
    if (Loop.joinable()) {
      Srv.requestDrain();
      Loop.join();
    }
    Svc.shutdown();
  }

  service::Service Svc;
  net::Server Srv;

private:
  std::thread Loop;
};

/// Everything one set-up builds; members are torn down in reverse order
/// (client, daemon, then the directory the daemon wrote to).
struct Session {
  Reference C;
  std::unique_ptr<TempDir> Dir;
  std::unique_ptr<Daemon> D;
  std::unique_ptr<LoadClient> Client;
};

/// Submits \p Reqs to the service directly and checks each response.
void submitAll(service::Service &Svc, std::vector<service::Request> Reqs,
               const std::vector<std::string> &Want, Report &Rep,
               const char *What) {
  std::vector<std::future<service::Response>> Futures;
  for (service::Request &R : Reqs)
    Futures.push_back(Svc.submit(std::move(R)));
  for (size_t I = 0; I < Futures.size(); ++I) {
    service::Response R = Futures[I].get();
    if (R.Status != service::RequestOutcome::Ok ||
        (!Want.empty() && R.ResultText != Want[I]))
      Rep.fail(std::string("set-up: ") + What + " request " +
               std::to_string(I) + " failed: " +
               service::requestOutcomeName(R.Status) + " " + R.ResultText);
  }
}

std::unique_ptr<Session> setUpDaemon(const DaemonSpec &S, const Options &O,
                                     const RequestStream &Stream,
                                     Report &Rep) {
  auto Ses = std::make_unique<Session>();
  Ses->C = buildReference(Rep);
  service::ServiceConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.QueueCapacity = QueueCapacity;
  Cfg.CacheCapacity = S.CacheCapacity;
  if (S.DiskTier) {
    Ses->Dir = std::make_unique<TempDir>(O.WorkDir, S.Name);
    if (!Ses->Dir->ok()) {
      Rep.fail("set-up: cannot create a directory under " + O.WorkDir);
      return Ses;
    }
    Cfg.CacheDir = Ses->Dir->path();
  }
  Ses->D = std::make_unique<Daemon>(Cfg);
  if (!Ses->D->Srv.ok()) {
    Rep.fail("set-up: server: " + Ses->D->Srv.error());
    return Ses;
  }
  const Reference &C = Ses->C;
  if (S.Src == Sources::Hot) {
    // Warm the memory tier: one compile and run per program.
    std::vector<service::Request> Reqs(C.Programs.size());
    std::vector<std::string> Want;
    for (size_t P = 0; P < Reqs.size(); ++P) {
      Reqs[P].Source = C.Programs[P]->Source;
      Want.push_back(C.Programs[P]->Expected);
    }
    submitAll(Ses->D->Svc, std::move(Reqs), Want, Rep, "warm");
  } else if (S.Src == Sources::Disk) {
    // Write every (program, variant) pair, plain and with captures.
    std::vector<service::Request> Reqs;
    for (size_t P = 0; P < C.Programs.size(); ++P)
      for (uint32_t V = 0; V < DiskVariants; ++V)
        for (bool Caps : {false, true}) {
          service::Request R;
          R.Source = variantSource(C.Programs[P]->Source, O.Seed, V);
          R.Run = false;
          R.Opts.Captures = Caps;
          Reqs.push_back(std::move(R));
        }
    submitAll(Ses->D->Svc, std::move(Reqs), {}, Rep, "populate");
  }
  const Reference *CP = &Ses->C;
  Ses->Client = std::make_unique<LoadClient>(
      Ses->D->Srv.port(), Connections,
      [&Stream, CP](const net::WireResponse &W) {
        return checkResponse(Stream, *CP, W);
      });
  if (!Ses->Client->ok())
    Rep.fail("set-up: client: " + Ses->Client->error());
  return Ses;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

void replay(const DaemonSpec &S, const Options &O, const Session &Ses,
            const RequestStream &Stream, double BusyPerReq, Report &Rep);

Report runDaemon(const DaemonSpec &S, const Options &O) {
  Report Rep(S.Name);
  RequestStream Stream(O.Seed, S.Mix,
                       static_cast<uint32_t>(corpus().size()),
                       S.Src == Sources::Disk ? DiskVariants : 1);
  std::unique_ptr<Session> Ses;
  std::vector<double> SetupSecs;
  for (unsigned K = 0; K < Setups; ++K) {
    Ses.reset(); // the previous set-up's teardown is not timed
    uint64_t T0 = traceNowNanos();
    Ses = setUpDaemon(S, O, Stream, Rep);
    SetupSecs.push_back(secondsSince(T0));
  }
  Rep.set("setup_s", median(SetupSecs));
  if (!Rep.Correct)
    return Rep;

  service::Service &Svc = Ses->D->Svc;
  service::ServiceStats S0 = Svc.stats();
  rt::PagePoolStats P0 = Svc.pagePool()->stats();
  net::NetStats N0 = Ses->D->Srv.stats();
  auto Make = [&](uint64_t Id) {
    return makeRequest(S, Stream, Ses->C, O.Seed, Id);
  };
  // Open and closed phases alternate, Cycles of each, each starting from
  // an idle server. Phases[2c] is cycle c's open loop, Phases[2c+1] its
  // closed loop.
  std::vector<PhaseResult> Phases;
  uint64_t Total = 0;
  for (unsigned C = 0; C < Cycles; ++C) {
    Phases.push_back(Ses->Client->openLoop(
        Total, S.OpenRate, OpenShare * O.Seconds / Cycles, Make));
    Total += Phases.back().Sent;
    Phases.push_back(Ses->Client->closedLoop(
        Total, ClosedOutstanding, (1.0 - OpenShare) * O.Seconds / Cycles,
        Make));
    Total += Phases.back().Sent;
  }
  service::ServiceStats S1 = Svc.stats();
  rt::PagePoolStats P1 = Svc.pagePool()->stats();
  net::NetStats N1 = Ses->D->Srv.stats();
  std::vector<Received> Got = Ses->Client->finish();
  Ses->D->stop();

  // Tally every request: open-loop latency from the scheduled arrival,
  // by request class; closed-loop completions per second, by cycle;
  // failures and wrong answers.
  std::vector<const Received *> ById(Total, nullptr);
  for (const Received &R : Got) {
    if (R.Id >= Total || ById[R.Id])
      Rep.fail("a response carried an unknown or repeated id");
    else
      ById[R.Id] = &R;
  }
  std::map<std::pair<net::MsgKind, uint32_t>, net::LatencyAccumulator> ByClass;
  net::LatencyAccumulator AllLat;
  std::vector<double> Rates, AllLag;
  uint64_t Answered = 0, NotOk = 0, Sheds = 0, Wrong = 0;
  for (size_t I = 0; I < Phases.size(); ++I) {
    const PhaseResult &P = Phases[I];
    bool Open = I % 2 == 0;
    uint64_t Done = 0;
    for (uint64_t K = 0; K < P.Sent; ++K) {
      uint64_t Id = P.FirstId + K;
      const Received *R = ById[Id];
      if (!R)
        continue;
      ++Done;
      if (Open) {
        RequestSpec Spec = Stream.at(Id);
        ByClass[{Spec.Kind, Spec.Program}].record(P.SendNanos[K],
                                                  R->RecvNanos);
        AllLat.record(P.SendNanos[K], R->RecvNanos);
      }
      if (R->Status != net::WireStatus::Ok) {
        ++NotOk;
        Sheds += R->Status == net::WireStatus::Shed;
      } else if (!R->Correct && !Wrong++) {
        Rep.fail(std::string(S.Name) + ": wrong answer to request " +
                 std::to_string(Id));
      }
    }
    Answered += Done;
    if (Open)
      AllLag.insert(AllLag.end(), P.LagMs.begin(), P.LagMs.end());
    else
      Rates.push_back(ratio(static_cast<double>(Done),
                            static_cast<double>(P.EndNanos - P.StartNanos) /
                                1e9));
  }
  if (Wrong > 1)
    Rep.fail(std::string(S.Name) + ": " + std::to_string(Wrong) +
             " wrong answers in all");
  // No request of these workloads may fail: a shed, an error status or a
  // missing response fails the run, so neither a broken runtime nor one
  // that drops its slowest requests can pass.
  Rep.Attempted = Total;
  Rep.Failed = NotOk + (Total - Answered);
  if (Rep.Failed)
    Rep.fail(std::string(S.Name) + ": " + std::to_string(Sheds) + " shed, " +
             std::to_string(NotOk - Sheds) + " other error statuses, " +
             std::to_string(Total - Answered) + " unanswered of " +
             std::to_string(Total) + " requests");
  // A class (kind, program) is sent many times; its latency is the low
  // quantile of its samples, and the class percentiles are taken over
  // the request mix, each class weighted by its share of the mix rather
  // than by how many of its requests a run happened to send.
  std::vector<std::pair<double, double>> Classes;
  for (auto &[Class, Lat] : ByClass) {
    Lat.finalize();
    Classes.push_back(
        {Lat.percentileMs(LowQuantile), S.Mix.share(Class.first)});
  }
  AllLat.finalize();
  Rep.set("p50_ms", AllLat.percentileMs(0.5));
  Rep.set("class_p50_ms", weightedQuantile(Classes, 0.5));
  Rep.set("class_p90_ms", weightedQuantile(Classes, 0.9));
  Rep.set("ops_per_s", quantile(Rates, 1.0));
  Rep.set("bench.p90_ms", AllLat.percentileMs(0.9));
  Rep.set("bench.p99_ms", AllLat.percentileMs(0.99));
  Rep.set("bench.max_ms", AllLat.percentileMs(1.0));
  Rep.set("bench.lag_p99_ms", quantile(AllLag, 0.99));
  Rep.set("bench.lag_max_ms", quantile(AllLag, 1.0));

  // Server-side counters over the measured phases.
  double Done = static_cast<double>(S1.Completed - S0.Completed);
  double Hits = static_cast<double>(S1.CacheHits - S0.CacheHits);
  double Misses = static_cast<double>(S1.CacheMisses - S0.CacheMisses);
  double DiskHits = static_cast<double>(S1.DiskHits - S0.DiskHits);
  double BusyPerReq = ratio(static_cast<double>(S1.BusyNanos - S0.BusyNanos),
                            Done);
  Rep.set("service.cache.hit_ratio", ratio(Hits, Hits + Misses));
  Rep.set("service.disk.hit_ratio", ratio(DiskHits, Done));
  Rep.set("service.busy_ns_per_req", BusyPerReq);
  Rep.set("rt.pool.hits_per_req",
          ratio(static_cast<double>(P1.AcquireHits - P0.AcquireHits), Done));
  Rep.set("rt.pool.misses_per_req",
          ratio(static_cast<double>(P1.AcquireMisses - P0.AcquireMisses),
                Done));
  Rep.set("rt.pool.locks_per_req",
          ratio(static_cast<double>(P1.LockAcquires - P0.LockAcquires), Done));
  Rep.set("rt.pool.steals_per_req",
          ratio(static_cast<double>(P1.Steals - P0.Steals), Done));
  Rep.set("net.sheds",
          static_cast<double>((N1.Sheds + N1.DeadlineSheds + N1.WaitSheds) -
                              (N0.Sheds + N0.DeadlineSheds + N0.WaitSheds)));
  Rep.set("net.protocol_errors",
          static_cast<double>(N1.ProtocolErrors - N0.ProtocolErrors));
  switch (S.Src) {
  case Sources::Cold:
    if (Hits > 0 || DiskHits > 0)
      Rep.fail("compile-cold: " + std::to_string(Hits) + " memory and " +
               std::to_string(DiskHits) +
               " disk hits; every request must miss both tiers");
    break;
  case Sources::Hot:
    if (Misses > 0)
      Rep.fail("serve-hot: " + std::to_string(Misses) +
               " memory misses; every request must hit");
    break;
  case Sources::Disk:
    if (ratio(DiskHits, Done) < 0.9)
      Rep.fail("serve-disk: disk tier served " +
               std::to_string(ratio(DiskHits, Done)) +
               " of requests, below 0.9");
    break;
  }
  if (O.Trace)
    replay(S, O, *Ses, Stream, BusyPerReq, Rep);
  return Rep;
}

//===----------------------------------------------------------------------===//
// The traced replay
//===----------------------------------------------------------------------===//

/// The request the server would hand its service (net::Server::onRequest).
service::Request toServiceRequest(net::WireRequest W) {
  service::Request R;
  R.Source = std::move(W.Source);
  R.Run = W.Kind == net::MsgKind::CompileRun;
  if (W.Kind == net::MsgKind::SchemeQuery)
    R.SchemeNames = std::move(W.SchemeNames);
  R.Opts.Captures = W.Kind == net::MsgKind::CaptureQuery;
  return R;
}

/// Replays the first S.Replay requests of the measured stream, one at a
/// time, through the layers' public functions in the Executor's order,
/// each call inside a span. The caches are the replay's own, prepared
/// like the server's: empty memory and disk tiers for compile-cold, the
/// warmed corpus for serve-hot, the set-up's disk directory beneath an
/// empty 16-entry memory tier for serve-disk.
void replay(const DaemonSpec &S, const Options &O, const Session &Ses,
            const RequestStream &Stream, double BusyPerReq, Report &Rep) {
  const Reference &C = Ses.C;
  SpanRecorder Tr;
  LayerTotals T;
  service::CompileCache Mem(S.CacheCapacity);
  std::unique_ptr<TempDir> FreshDir;
  std::unique_ptr<service::DiskCache> Disk;
  if (S.Src == Sources::Cold) {
    FreshDir = std::make_unique<TempDir>(O.WorkDir, "replay");
    if (!FreshDir->ok()) {
      Rep.fail("replay: cannot create a directory under " + O.WorkDir);
      return;
    }
    Disk = std::make_unique<service::DiskCache>(FreshDir->path());
  } else if (S.Src == Sources::Disk) {
    Disk = std::make_unique<service::DiskCache>(Ses.Dir->path());
  } else {
    for (size_t P = 0; P < C.Programs.size(); ++P)
      Mem.insert(service::CacheKey::of(C.Programs[P]->Source, {}),
                 C.Plain[P]);
  }
  rt::PagePool Pool;
  std::unique_ptr<service::Scheduler> Sched =
      service::makeScheduler(service::SchedPolicy::Fifo);
  const service::CostModel &Model = Ses.D->Svc.costModel();
  auto EntryBytes = [&](uint64_t Hash) {
    if (!T.Entries.insert(Hash).second)
      return;
    std::error_code EC;
    uintmax_t Size = fs::file_size(
        Disk->dir() + "/" + service::DiskCache::entryFileName(Hash), EC);
    T.EntryBytes += EC ? 0 : Size;
  };

  uint64_t Deadline = traceNowNanos() + static_cast<uint64_t>(O.Seconds * 1e9);
  uint64_t Wrong = 0;
  for (uint64_t Id = 0; Id < S.Replay && traceNowNanos() < Deadline; ++Id) {
    Tr.span("request", Layer::Bench, [&] {
      net::WireRequest WR = makeRequest(S, Stream, C, O.Seed, Id);
      std::string ReqFrame;
      Tr.span("net.request_encode", Layer::Net,
              [&] { net::encodeRequest(WR, ReqFrame); });
      net::WireRequest In;
      size_t Used = 0;
      std::string Err;
      net::Decode D = net::Decode::Bad;
      Tr.span("net.request_decode", Layer::Net,
              [&] { D = net::decodeRequest(ReqFrame, Used, In, Err); });
      if (D != net::Decode::Frame) {
        Rep.fail("replay: request frame failed to decode: " + Err);
        return;
      }
      net::WireResponse Out;
      Out.Id = In.Id;
      service::CachedCompileRef Served;
      uint64_t Key = 0;
      Tr.span("service.execute", Layer::Service, [&] {
        service::Request R = toServiceRequest(std::move(In));
        Tr.span("service.cost.predict", Layer::Service, [&] {
          (void)Model.predict(service::hashCompileInputs(R.Source, R.Opts),
                              R.Source.size());
        });
        service::ScheduledJob Job;
        Job.Req = std::move(R);
        Tr.span("service.sched.push", Layer::Service,
                [&] { Sched->push(std::move(Job)); });
        Tr.span("service.sched.pop", Layer::Service,
                [&] { Job = Sched->pop(); });
        const service::Request &Req = Job.Req;
        service::CacheKey K = service::CacheKey::of(Req.Source, Req.Opts);
        service::CachedCompileRef CC;
        Tr.span("service.cache.lookup", Layer::Service,
                [&] { CC = Mem.lookup(K); });
        Out.CacheHit = CC != nullptr;
        if (!CC && Disk) {
          Tr.span("service.disk.load", Layer::Service,
                  [&] { CC = Disk->load(K); });
          if (CC) {
            EntryBytes(K.Hash);
            Tr.span("service.cache.insert", Layer::Service,
                    [&] { Mem.insert(K, CC); });
          }
        }
        if (!CC) {
          Tr.span("core.compile", Layer::Core, [&] {
            CC = service::compileShared(Req.Source, Req.Opts);
            recordPhases(Tr, CC->Profiles, T);
          });
          if (Disk) {
            Tr.span("service.disk.store", Layer::Service,
                    [&] { Disk->store(K, *CC); });
            EntryBytes(K.Hash);
          }
          Tr.span("service.cache.insert", Layer::Service,
                  [&] { Mem.insert(K, CC); });
        }
        Served = CC;
        Key = K.Hash;
        Out.CompileOk = CC->ok();
        Out.Status = CC->ok() ? net::WireStatus::Ok
                              : net::WireStatus::CompileError;
        if (!CC->ok())
          return;
        if (Req.Run) {
          rt::RunResult RR;
          rt::EvalOptions E = Req.EvalOpts;
          E.SharedPool = &Pool;
          uint64_t Wall = Tr.span("rt.run", Layer::Rt, [&] {
            RR = CC->run(E);
            recordPauses(Tr, RR);
          });
          T.Rt[strategyIndex(Req.Opts.Strat)].add(RR, Wall);
          Out.Ran = true;
          Out.Result = RR.ResultText;
          if (RR.Outcome != rt::RunOutcome::Ok)
            Out.Status = net::WireStatus::RunFailed;
        } else if (Req.Opts.Captures) {
          Out.Result = CC->CaptureReport;
        } else {
          for (const std::string &Name : Req.SchemeNames)
            Out.Schemes.emplace_back(Name, CC->schemeOf(Name));
        }
      });
      // Outside service.execute, which bench.replay_vs_server compares
      // with the server's busy time.
      if (Served)
        recordFlat(Tr, Served->Flat.get(), Key, T, Rep);
      std::string RespFrame;
      Tr.span("net.response_encode", Layer::Net,
              [&] { net::encodeResponse(Out, RespFrame); });
      net::WireResponse Back;
      Tr.span("net.response_decode", Layer::Net, [&] {
        D = net::decodeResponse(RespFrame, Used, Back, Err);
      });
      ++T.Requests;
      T.RequestBytes += ReqFrame.size();
      T.ResponseBytes += RespFrame.size();
      if (D != net::Decode::Frame || Back.Status != net::WireStatus::Ok ||
          !checkResponse(Stream, C, Back))
        ++Wrong;
    });
  }
  if (Wrong)
    Rep.fail(std::string(S.Name) + ": " + std::to_string(Wrong) +
             " wrong answers in the traced replay");
  reportLayers(Tr, T, T.Requests, Rep);
  Rep.set("bench.replay_vs_server",
          ratio(Tr.meanNanos("service.execute"), BusyPerReq));
  std::printf("  replayed %llu requests\n",
              static_cast<unsigned long long>(T.Requests));
  writeTrace(Tr, O, S.Name, Rep);
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

const char *const WorkloadNames[] = {"fig9", "compile-cold", "serve-hot",
                                     "serve-disk"};

Report runWorkload(const std::string &Name, const Options &O) {
  if (Name == "fig9")
    return runFig9(O);
  for (const DaemonSpec &S : DaemonSpecs)
    if (Name == S.Name)
      return runDaemon(S, O);
  Report Rep(Name);
  Rep.fail("unknown workload " + Name);
  return Rep;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: bench_report --workload NAME --seed N --seconds S --trace 0|1\n"
      "                    [--json OUT] [--work-dir DIR]\n"
      "  NAME is fig9, compile-cold, serve-hot, serve-disk or all\n"
      "  --json OUT      write every metric (both tiers, exact flags) to OUT\n"
      "  --work-dir DIR  root for the disk tiers' temporary directories and\n"
      "                  for traces/trace_<workload>.json (default\n"
      "                  .bench_build/work)\n");
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "bench_report: %s needs an argument\n", A.c_str());
      return false;
    }
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--json")
      O.JsonOut = V;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else {
      std::fprintf(stderr, "bench_report: unknown option %s\n", A.c_str());
      return false;
    }
  }
  if (O.Workload.empty() || !(O.Seconds > 0)) {
    std::fprintf(stderr, "bench_report: --workload is required; --seconds "
                         "must be positive\n");
    return false;
  }
  return true;
}

std::string jsonString(const std::string &S) {
  return "\"" + jsonEscaped(S) + "\"";
}

bool writeJson(const Options &O, const std::vector<Report> &Reports) {
  std::string Out = "{\"schema\":1,\"seed\":" + std::to_string(O.Seed) +
                    ",\"seconds\":" + jsonFixed(O.Seconds) +
                    ",\"trace\":" + (O.Trace ? "true" : "false") +
                    ",\"setups\":" + std::to_string(Setups) +
                    ",\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"workloads\":[";
  for (size_t I = 0; I < Reports.size(); ++I) {
    const Report &R = Reports[I];
    Out += I ? "," : "";
    Out += "{\"workload\":" + jsonString(R.Workload) +
           ",\"correct\":" + (R.Correct ? "true" : "false") +
           ",\"attempted\":" + std::to_string(R.Attempted) +
           ",\"failed\":" + std::to_string(R.Failed) + ",\"problems\":[";
    for (size_t J = 0; J < R.Problems.size(); ++J) {
      Out += J ? "," : "";
      Out += jsonString(R.Problems[J]);
    }
    Out += "],\"end_to_end\":{" + R.metricsJson(false, "", true) +
           "},\"per_layer\":{" + R.metricsJson(true, "", true) + "}}";
  }
  Out += "]}\n";
  std::ofstream F(O.JsonOut);
  F << Out;
  return static_cast<bool>(F);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    usage();
    return 2;
  }
  std::vector<std::string> Names;
  if (O.Workload == "all")
    Names.assign(std::begin(WorkloadNames), std::end(WorkloadNames));
  else
    Names.push_back(O.Workload);

  std::vector<Report> Reports;
  for (const std::string &Name : Names) {
    std::printf("bench_report: %s (seed %llu, %.1fs, %s)\n", Name.c_str(),
                static_cast<unsigned long long>(O.Seed), O.Seconds,
                O.Trace ? "traced" : "untraced");
    std::fflush(stdout);
    Reports.push_back(runWorkload(Name, O));
    const Report &R = Reports.back();
    R.print(false);
    if (O.Trace)
      R.print(true);
    std::printf("  attempted %llu, failed %llu, %s\n",
                static_cast<unsigned long long>(R.Attempted),
                static_cast<unsigned long long>(R.Failed),
                R.Correct ? "all answers correct" : "WRONG");
    for (const std::string &P : R.Problems)
      std::printf("  problem: %s\n", P.c_str());
    std::fflush(stdout);
  }
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::string Metrics;
  for (const Report &R : Reports) {
    Correct = Correct && R.Correct;
    Attempted += R.Attempted;
    Failed += R.Failed;
    Metrics += Metrics.empty() ? "" : ",";
    Metrics += R.metricsJson(O.Trace, Reports.size() > 1 ? R.Workload + ":"
                                                         : "");
  }
  if (!O.JsonOut.empty() && !writeJson(O, Reports)) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", O.JsonOut.c_str());
    Correct = false;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  return Correct ? 0 : 1;
}
