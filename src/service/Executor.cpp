//===- service/Executor.cpp -----------------------------------------------===//

#include "service/Executor.h"

#include "service/CostModel.h"
#include "service/Hash.h"

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
  case RequestOutcome::Budget:
    return "budget";
  case RequestOutcome::Shutdown:
    return "shutdown";
  case RequestOutcome::InternalError:
    return "internal_error";
  }
  return "ok";
}

namespace {

/// ServiceConfig::PhaseBudgets as a PhaseGovernor: trips on the first
/// executed phase whose wall time exceeds its (present) budget. Lives
/// on the Executor's stack for exactly one compile, which compileShared
/// runs on a Compiler that dies before it returns.
///
/// Doubles as the cost model's per-phase feed: keepGoing is the
/// pipeline's exactly-once per-finished-phase observation stream (see
/// PhaseGovernor in core/Pipeline.h), so each executed phase lands one
/// sample in the model's quantile rings here — including the phases of
/// a compile this very governor then cuts off, which the completion-
/// level observe() deliberately never sees.
class BudgetGovernor final : public PhaseGovernor {
public:
  BudgetGovernor(const std::map<std::string, uint64_t> &Budgets,
                 CostModel *Model)
      : Budgets(Budgets), Model(Model) {}

  bool keepGoing(const PhaseProfile &P) override {
    if (Model && !P.Skipped)
      Model->observePhase(P);
    auto It = Budgets.find(P.Name);
    // Absent = unlimited; a present 0 budgets out any executed phase
    // (real phases always take > 0 ns). Skipped phases cost nothing.
    if (It == Budgets.end() || P.Skipped || P.WallNanos <= It->second)
      return true;
    TrippedPhase = P.Name;
    return false;
  }

  const std::string &tripped() const { return TrippedPhase; }

private:
  const std::map<std::string, uint64_t> &Budgets;
  CostModel *Model;
  std::string TrippedPhase; // empty until a budget trips
};

} // namespace

Response Executor::process(const Request &Req) const {
  Response Resp = processImpl(Req);
  // One observation per completion. Budget cut-offs are excluded: a
  // partial compile's cost is not the source's cost, and learning it
  // would teach the model that expensive sources are cheap.
  if (Model && Resp.Status != RequestOutcome::Budget)
    Model->observe(hashCompileInputs(Req.Source, Req.Opts), Req.Source.size(),
                   Resp.Profiles, /*UpdatePrior=*/!Resp.CacheHit);
  return Resp;
}

Response Executor::processImpl(const Request &Req) const {
  Response Resp;

  CacheKey Key = CacheKey::of(Req.Source, Req.Opts);
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
    // Explicit budgets win; with --auto-budget and none set, the cost
    // model's observed per-phase distributions supply them — once it
    // has enough history (an empty derivation means "no budgets yet").
    const std::map<std::string, uint64_t> *Budgets = &Cfg.PhaseBudgets;
    std::map<std::string, uint64_t> Derived;
    if (Cfg.AutoBudget && Cfg.PhaseBudgets.empty() && Model) {
      Derived = Model->deriveBudgets(Cfg.BudgetQuantile, Cfg.BudgetMultiplier,
                                     Cfg.BudgetMinSamples);
      if (!Derived.empty()) {
        Budgets = &Derived;
        BudgetAutoDerived.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // The governor is installed whenever there is a model to feed, not
    // just when budgets bind: its hook is how per-phase samples reach
    // the quantile rings.
    BudgetGovernor Gov(*Budgets, Model);
    CC = compileShared(Req.Source, Req.Opts,
                       (Budgets->empty() && !Model) ? nullptr : &Gov);
    Resp.Profiles = CC->Profiles;
    if (!Gov.tripped().empty()) {
      // Over budget: report which phase blew it and keep the entry out
      // of the cache — the cut-off produced no unit, and a cached
      // failure would wrongly stick even under a looser budget.
      Resp.Status = RequestOutcome::Budget;
      Resp.Error = "phase '" + Gov.tripped() + "' exceeded its budget";
      Resp.Diagnostics = "error: " + Resp.Error;
      // The phases that did run may have produced real diagnostics
      // (warnings, notes); the budget line must not erase them.
      if (!CC->Diagnostics.empty())
        Resp.Diagnostics += "\n" + CC->Diagnostics;
      return Resp;
    }
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
    Resp.GcPolicy = R.Policy;
    Resp.Profiles.push_back(std::move(R.Phase));
  }
  return Resp;
}
