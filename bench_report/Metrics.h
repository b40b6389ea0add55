//===- bench_report/Metrics.h - Metric schema and the report ----*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metric schema every bench_report run fills, and the report that
/// prints it. Two tiers:
///
///  * end-to-end metrics, which an untraced run reports on every
///    workload and BENCHMARK.json gates with a regression bound;
///  * per-layer metrics, named after the src/ module they measure, which
///    a traced run reports (zero on a workload that does not exercise
///    the layer) and which are never gated.
///
/// A metric marked exact is a deterministic counter: for a fixed seed it
/// must repeat bit for bit, and `run.py --compare` fails on any drift.
///
//===----------------------------------------------------------------------===//

#ifndef RML_BENCH_REPORT_METRICS_H
#define RML_BENCH_REPORT_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rml::benchreport {

struct MetricDef {
  std::string Name;
  std::string Unit;
  bool Exact = false;
};

/// The gated metrics, reported by every untraced run. On the daemon
/// workloads an operation is one wire request: the latencies come from
/// the open-loop phases (timed from the scheduled arrival) and ops_per_s
/// from the closed-loop phases. On fig9 an operation is one (program,
/// strategy) cell of Figure 9 — a compile plus a run. p50_ms is the
/// median over every operation timed; class_p50_ms and class_p90_ms are
/// percentiles over the operation classes of each class's typical time.
inline const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},
      {"p50_ms", "ms"},
      {"class_p50_ms", "ms"},
      {"class_p90_ms", "ms"},
      {"ops_per_s", "1/s"},
  };
  return Defs;
}

inline const char *const Strategies[] = {"rg", "rgm", "r"};

/// The per-layer metrics, reported by every traced run. Times are means
/// per call (per executed phase for the static phases, per run for rt);
/// self times are per operation.
inline const std::vector<MetricDef> &layerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"ast.parse_ns", "ns"},
        {"types.typecheck_ns", "ns"},
        {"rinfer.spurious_ns", "ns"},
        {"rinfer.infer_ns", "ns"},
        {"rinfer.multiplicity_ns", "ns"},
        {"rinfer.kinds_ns", "ns"},
        {"rinfer.drops_ns", "ns"},
        {"rinfer.captures_ns", "ns"},
        {"rcheck.check_ns", "ns"},
        {"flat.flatten_ns", "ns"},
        {"core.compile_ns", "ns"},
        {"core.arena_nodes", "nodes", true},
        {"flat.encode_ns", "ns"},
        {"flat.decode_ns", "ns"},
        {"flat.unit_bytes", "bytes", true},
    };
    for (const char *S : Strategies) {
      std::string Sfx = std::string(".") + S;
      D.push_back({"rt.run_ns" + Sfx, "ns"});
      D.push_back({"rt.mutator_ns" + Sfx, "ns"});
      D.push_back({"rt.gc_pause_ns" + Sfx, "ns"});
      D.push_back({"rt.gc_pause_p99_ns" + Sfx, "ns"});
      D.push_back({"rt.gc_count" + Sfx, "count", true});
      D.push_back({"rt.alloc_words" + Sfx, "words", true});
      D.push_back({"rt.copied_words" + Sfx, "words", true});
      D.push_back({"rt.peak_heap_words" + Sfx, "words", true});
      D.push_back({"rt.steps" + Sfx, "count", true});
    }
    std::vector<MetricDef> Rest = {
        {"rt.pool.hits_per_req", "count"},
        {"rt.pool.misses_per_req", "count"},
        {"rt.pool.locks_per_req", "count"},
        {"rt.pool.steals_per_req", "count"},
        {"service.cache.lookup_ns", "ns"},
        {"service.cache.insert_ns", "ns"},
        {"service.cache.hit_ratio", "ratio"},
        {"service.disk.load_ns", "ns"},
        {"service.disk.store_ns", "ns"},
        {"service.disk.hit_ratio", "ratio"},
        {"service.disk.entry_bytes", "bytes", true},
        {"service.sched.push_ns", "ns"},
        {"service.sched.pop_ns", "ns"},
        {"service.cost.predict_ns", "ns"},
        {"service.busy_ns_per_req", "ns"},
        {"net.request_encode_ns", "ns"},
        {"net.request_decode_ns", "ns"},
        {"net.response_encode_ns", "ns"},
        {"net.response_decode_ns", "ns"},
        {"net.request_bytes", "bytes", true},
        {"net.response_bytes", "bytes", true},
        {"net.sheds", "count"},
        {"net.protocol_errors", "count"},
        {"ast.self_ns", "ns"},
        {"types.self_ns", "ns"},
        {"rinfer.self_ns", "ns"},
        {"rcheck.self_ns", "ns"},
        {"flat.self_ns", "ns"},
        {"core.self_ns", "ns"},
        {"rt.self_ns", "ns"},
        {"service.self_ns", "ns"},
        {"net.self_ns", "ns"},
        {"bench.trace_overhead", "ratio"},
        {"bench.replay_vs_server", "ratio"},
        {"bench.p90_ms", "ms"},
        {"bench.p99_ms", "ms"},
        {"bench.max_ms", "ms"},
        {"bench.lag_p99_ms", "ms"},
        {"bench.lag_max_ms", "ms"},
    };
    D.insert(D.end(), Rest.begin(), Rest.end());
    return D;
  }();
  return Defs;
}

/// The \p Q-quantile (0..1) of \p V by nearest rank; 0 when empty.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(Q * static_cast<double>(V.size()));
  return V[std::min(Idx, V.size() - 1)];
}

inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// The \p Q-quantile of (value, weight) pairs: the smallest value whose
/// cumulative weight reaches Q of the total; 0 when empty.
inline double weightedQuantile(std::vector<std::pair<double, double>> V,
                               double Q) {
  std::sort(V.begin(), V.end());
  double Total = 0;
  for (const auto &[Value, Weight] : V)
    Total += Weight;
  double Acc = 0;
  for (const auto &[Value, Weight] : V) {
    Acc += Weight;
    if (Acc >= Q * Total)
      return Value;
  }
  return V.empty() ? 0.0 : V.back().first;
}

/// One workload's outcome: every metric of both tiers (zero until set),
/// the request tally, and the correctness verdict with its reasons.
class Report {
public:
  explicit Report(std::string Workload) : Workload(std::move(Workload)) {
    for (const MetricDef &D : endToEndMetrics())
      Values[D.Name] = 0.0;
    for (const MetricDef &D : layerMetrics())
      Values[D.Name] = 0.0;
  }

  void set(const std::string &Name, double V) {
    auto It = Values.find(Name);
    if (It == Values.end()) {
      fail("internal: unknown metric " + Name);
      return;
    }
    It->second = std::isfinite(V) ? V : 0.0;
  }
  double get(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? 0.0 : It->second;
  }

  /// Marks the run wrong; the benchmark then exits nonzero.
  void fail(std::string Why) {
    if (Problems.size() < 20)
      Problems.push_back(std::move(Why));
    Correct = false;
  }

  /// Human-readable metric lines for one tier.
  void print(bool Layer) const {
    for (const MetricDef &D : Layer ? layerMetrics() : endToEndMetrics())
      std::printf("  %-28s %16.6f %s%s\n", D.Name.c_str(), get(D.Name),
                  D.Unit.c_str(), D.Exact ? "  [exact]" : "");
  }

  /// `"name":{"value":V,"unit":"U"}` pairs for one tier; \p Prefix
  /// qualifies the names when several workloads share one object.
  std::string metricsJson(bool Layer, const std::string &Prefix = "",
                          bool WithExact = false) const {
    std::string Out;
    for (const MetricDef &D : Layer ? layerMetrics() : endToEndMetrics()) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", get(D.Name));
      if (!Out.empty())
        Out += ",";
      Out += "\"" + Prefix + D.Name + "\":{\"value\":" + Buf + ",\"unit\":\"" +
             D.Unit + "\"";
      if (WithExact)
        Out += std::string(",\"exact\":") + (D.Exact ? "true" : "false");
      Out += "}";
    }
    return Out;
  }

  std::string Workload;
  bool Correct = true;
  std::vector<std::string> Problems;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  std::map<std::string, double> Values;
};

} // namespace rml::benchreport

#endif // RML_BENCH_REPORT_METRICS_H
