//===- bench/bench_inference.cpp - Compile-time benchmarks ----------------===//
//
// Section 4.2 claims the MLKit's region-inference-based pipeline
// recompiles quickly; this harness measures our pipeline's phases
// (parse+typecheck, spurious analysis, region inference, region check)
// per benchmark program and the scaling of inference with program size.
//
// Scaling is read off the marginal time per added cluster between
// consecutive sizes, printed after the table. Each size compiles the
// same basis, a constant cost that a fit with no constant term (Google
// Benchmark's BigO) mistakes for a log factor: the same binary labelled
// itself "N" in one run and "lgN" in the next. The differences cancel
// the constant.
//
//===----------------------------------------------------------------------===//

#include "bench/Programs.h"
#include "core/Pipeline.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

using namespace rml;

namespace {

void BM_FullCompile(benchmark::State &State, const std::string &Source,
                    Strategy S) {
  for (auto _ : State) {
    Compiler C;
    CompileOptions Opts;
    Opts.Strat = S;
    auto Unit = C.compile(Source, Opts);
    if (!Unit)
      State.SkipWithError("compile failed");
    benchmark::DoNotOptimize(Unit);
  }
}

/// Synthesises a program with N copies of a polymorphic HOF cluster, to
/// measure inference scaling.
std::string synthProgram(int N) {
  std::string Out = bench::basisSource();
  for (int I = 0; I < N; ++I) {
    std::string Id = std::to_string(I);
    // Each cluster: a polymorphic composition pipeline with a spurious
    // variable, used at two distinct instances (int and string).
    Out += "fun pipe" + Id + " f = compose (f, compose (id, id))\n";
    Out += "val use" + Id + " = (pipe" + Id + " (fn x => x + " + Id +
           ") 3, pipe" + Id + " (fn s => s ^ \"!\") \"a\")\n";
  }
  Out += ";0\n";
  return Out;
}

void BM_InferenceScaling(benchmark::State &State) {
  std::string Source = synthProgram(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    Compiler C;
    auto Unit = C.compile(Source);
    if (!Unit)
      State.SkipWithError("compile failed");
    benchmark::DoNotOptimize(Unit);
  }
}

/// Forwards every report to the display reporter --benchmark_format
/// selects, and records each inference_scaling size with its wall
/// seconds per compile.
class ScalingReporter final : public benchmark::BenchmarkReporter {
public:
  bool ReportContext(const Context &C) override {
    return Display->ReportContext(C);
  }

  void ReportRuns(const std::vector<Run> &Runs) override {
    Display->ReportRuns(Runs);
    for (const Run &R : Runs)
      if (R.run_name.function_name == "inference_scaling" &&
          R.run_type == Run::RT_Iteration && !R.error_occurred &&
          R.iterations > 0)
        Sizes.emplace_back(std::stoll(R.run_name.args),
                           R.real_accumulated_time /
                               static_cast<double>(R.iterations));
  }

  void Finalize() override { Display->Finalize(); }

  /// Prints, on stderr so a JSON report on stdout stays parseable, the
  /// marginal microseconds per added cluster between consecutive sizes,
  /// and reads them as linear when the largest is within 2x of the
  /// smallest. Quadratic growth would raise the last marginal 16x over
  /// the first across 2..128 clusters.
  void printMarginals() const {
    if (Sizes.size() < 2)
      return;
    Display->GetOutputStream().flush(); // the table precedes the reading
    std::fprintf(stderr,
                 "\ninference_scaling: marginal time per added cluster\n");
    std::vector<double> Marginals;
    for (size_t I = 1; I < Sizes.size(); ++I) {
      auto [N0, T0] = Sizes[I - 1];
      auto [N1, T1] = Sizes[I];
      double Us = (T1 - T0) * 1e6 / static_cast<double>(N1 - N0);
      Marginals.push_back(Us);
      std::fprintf(stderr, "  %4lld -> %4lld clusters: %8.1f us/cluster\n", N0,
                   N1, Us);
    }
    auto [Lo, Hi] = std::minmax_element(Marginals.begin(), Marginals.end());
    bool Linear = *Lo > 0 && *Hi <= 2 * *Lo;
    std::fprintf(stderr, "  reading: %s (largest/smallest marginal %.2f)\n",
                 Linear ? "linear" : "not linear", *Lo > 0 ? *Hi / *Lo : 0.0);
  }

private:
  /// Not owned: the library keeps the default display reporter alive.
  benchmark::BenchmarkReporter *Display =
      benchmark::CreateDefaultDisplayReporter();
  std::vector<std::pair<long long, double>> Sizes;
};

} // namespace

int main(int argc, char **argv) {
  for (const bench::BenchProgram &P : bench::benchmarkSuite()) {
    benchmark::RegisterBenchmark(("compile_rg/" + P.Name).c_str(),
                                 [Src = P.Source](benchmark::State &S) {
                                   BM_FullCompile(S, Src, Strategy::Rg);
                                 });
  }
  benchmark::RegisterBenchmark("compile_rg/suite_rgminus",
                               [](benchmark::State &S) {
                                 BM_FullCompile(
                                     S,
                                     bench::benchmarkSuite().front().Source,
                                     Strategy::RgMinus);
                               });
  benchmark::RegisterBenchmark("inference_scaling", BM_InferenceScaling)
      ->Arg(2)
      ->Arg(8)
      ->Arg(32)
      ->Arg(128);
  benchmark::Initialize(&argc, argv);
  ScalingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  Reporter.printMarginals();
  return 0;
}
