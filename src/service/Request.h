//===- service/Request.h - Service request/response types -------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission-layer vocabulary: what a client hands the service
/// (Request) and what it gets back (Response). Split out of Service.h so
/// the Scheduler and Executor layers can speak these types without
/// seeing the thread pool.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_REQUEST_H
#define RML_SERVICE_REQUEST_H

#include "core/Pipeline.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rml::service {

/// One unit of work: compile \p Source with \p Opts, optionally run it.
struct Request {
  std::string Source;
  CompileOptions Opts;
  /// Execute the program after a successful compile.
  bool Run = true;
  rt::EvalOptions EvalOpts;
  /// Top-level names whose region type schemes the response should
  /// render (unknown/monomorphic names render as "").
  std::vector<std::string> SchemeNames;
  /// Which tenant submitted the request. Purely a scheduling label: the
  /// FairShare policy keys its deficit round-robin on it, everything
  /// else ignores it. Empty is itself a tenant (the anonymous one), so
  /// untagged traffic shares one aggregate slot instead of bypassing
  /// fairness.
  std::string Tenant;
};

/// The service-level disposition of a request — orthogonal to the
/// runtime's rt::RunOutcome (which only describes how an execution
/// ended, and stays rt::RunOutcome::Ok for requests that never ran).
/// The values are the wire status bytes net::Server sends (its
/// static_asserts pin each one); 3 is reserved and never reused.
enum class RequestOutcome : uint8_t {
  /// Compiled (and, if requested, ran) cleanly.
  Ok = 0,
  /// The static pipeline failed; Response::Diagnostics says why.
  CompileError = 1,
  /// Compiled but the execution ended non-Ok (see Response::Outcome).
  RunFailed = 2,
  /// Rejected because the service was (or began) shutting down.
  Shutdown = 4,
  /// An exception escaped request processing (a throwing trace sink,
  /// bad_alloc, ...). The worker survives, the response carries
  /// e.what() in Error, and the event is counted in
  /// ServiceStats::InternalErrors. Never cached.
  InternalError = 5,
};

/// \returns the stable lower-case name ("ok", "compile_error", ...).
const char *requestOutcomeName(RequestOutcome O);

/// Everything the service produced for one request.
struct Response {
  /// The static pipeline succeeded.
  bool CompileOk = false;
  /// The compilation was served from the cache.
  bool CacheHit = false;
  /// How the service disposed of the request.
  RequestOutcome Status = RequestOutcome::Ok;
  /// Rendered diagnostics (empty on a clean compile).
  std::string Diagnostics;
  /// The region-annotated program (Figure 2 style).
  std::string Printed;
  /// (name, rendered scheme) for every requested SchemeName, in order.
  std::vector<std::pair<std::string, std::string>> Schemes;
  /// The capture-tracking report (rinfer/Captures.h), non-empty exactly
  /// when the request was compiled with Opts.Captures and the compile
  /// succeeded. Byte-identical whether the compile was fresh, a memory
  /// hit, or a disk-tier hit.
  std::string CaptureReport;
  /// True when the program was executed (CompileOk && Request.Run).
  bool Ran = false;
  rt::RunOutcome Outcome = rt::RunOutcome::Ok;
  std::string Output;     // everything print-ed
  std::string ResultText; // rendered final value
  std::string Error;      // non-Ok outcome explanation
  rt::HeapStats Heap;
  uint64_t Steps = 0;
  /// Per-phase profiles for this request: the static phases in registry
  /// order (on a cache hit they are present but Skipped with zero
  /// nanos — the work was reused, not redone; a failed compile stops
  /// the list at the failing phase) followed, when the program ran, by
  /// a fresh runtime phase carrying the run's GcPauses.
  std::vector<PhaseProfile> Profiles;
};

} // namespace rml::service

#endif // RML_SERVICE_REQUEST_H
