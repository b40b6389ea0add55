//===- service/Executor.cpp -----------------------------------------------===//

#include "service/Executor.h"

#include "service/CostModel.h"

using namespace rml;
using namespace rml::service;

const char *rml::service::requestOutcomeName(RequestOutcome O) {
  switch (O) {
  case RequestOutcome::Ok:
    return "ok";
  case RequestOutcome::CompileError:
    return "compile_error";
  case RequestOutcome::RunFailed:
    return "run_failed";
  case RequestOutcome::Shutdown:
    return "shutdown";
  case RequestOutcome::InternalError:
    return "internal_error";
  }
  return "ok";
}

Response Executor::process(const Request &Req, const CacheKey &Key) const {
  Response Resp = processImpl(Req, Key);
  // One observation per completion, under the carried key's hash.
  if (Model)
    Model->observe(Key.Hash, Key.Source.size(), Resp.Profiles,
                   /*UpdatePrior=*/!Resp.CacheHit);
  return Resp;
}

Response Executor::processImpl(const Request &Req, const CacheKey &Key) const {
  Response Resp;

  CachedCompileRef CC = Cache.lookup(Key);
  if (CC) {
    Resp.CacheHit = true;
    // The static work was reused, not redone: report the phase shape
    // with zeroed, Skipped profiles so per-request accounting stays
    // honest (only the runtime phase below is fresh on a hit).
    Resp.Profiles.reserve(CC->Profiles.size() + 1);
    for (PhaseProfile P : CC->Profiles) {
      P.Skipped = true;
      P.StartNanos = 0;
      P.WallNanos = 0;
      P.DiagnosticsEmitted = 0;
      P.ArenaNodeDelta = 0;
      Resp.Profiles.push_back(std::move(P));
    }
  } else {
    // Miss: compile on a fresh Compiler and cache the rendered entry.
    // Two workers racing on the same key both compile; the results are
    // bit-identical (the pipeline is deterministic) and the cache keeps
    // whichever insert lands last.
    CC = compileShared(Key.Source, Key.Opts);
    Resp.Profiles = CC->Profiles;
    Cache.insert(Key, CC);
  }

  Resp.CompileOk = CC->ok();
  Resp.Diagnostics = CC->Diagnostics;
  if (!CC->ok()) {
    Resp.Status = RequestOutcome::CompileError;
    return Resp;
  }

  Resp.Printed = CC->Printed;
  Resp.CaptureReport = CC->CaptureReport;
  Resp.Schemes.reserve(Req.SchemeNames.size());
  for (const std::string &Name : Req.SchemeNames)
    Resp.Schemes.emplace_back(Name, CC->schemeOf(Name));

  if (Req.Run) {
    rt::EvalOptions EvalOpts = Req.EvalOpts;
    // Route the run's heap through the shared pool — unless the request
    // asks for exact dangling detection, which quarantines it.
    if (Pool && !EvalOpts.RetainReleasedPages)
      EvalOpts.SharedPool = Pool;
    rt::RunResult R = CC->run(EvalOpts);
    Resp.Ran = true;
    Resp.Outcome = R.Outcome;
    if (R.Outcome != rt::RunOutcome::Ok)
      Resp.Status = RequestOutcome::RunFailed;
    Resp.Output = std::move(R.Output);
    Resp.ResultText = std::move(R.ResultText);
    Resp.Error = std::move(R.Error);
    Resp.Heap = R.Heap;
    Resp.Steps = R.Steps;
    Resp.Profiles.push_back(std::move(R.Phase));
  }
  return Resp;
}
