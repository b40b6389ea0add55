//===- service/Executor.h - Per-request execution with budgets --*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution layer: everything that happens to one request after a
/// worker picks it up — cache lookup, cold compile under the configured
/// per-phase budgets, scheme rendering, and the region-runtime run
/// through the shared page pool. Stateless apart from the references it
/// is built over, so any number of workers share one Executor; the
/// thread-pool mechanics stay in Service, the dequeue policy in
/// Scheduler, and this file owns only *what running a request means*.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_EXECUTOR_H
#define RML_SERVICE_EXECUTOR_H

#include "service/Cache.h"
#include "service/Config.h"
#include "service/Request.h"

#include "rt/PagePool.h"

namespace rml::service {

class CostModel;

/// Runs requests against a compile cache and a page pool under one
/// ServiceConfig. process() is safe from any number of threads: the
/// cache and pool are thread-safe, and each cold compile happens on a
/// fresh Compiler governed by a stack-local budget governor.
class Executor {
public:
  /// All referents are non-owning and must outlive the Executor.
  /// \p Model (nullable) receives one observation per completion and,
  /// under ServiceConfig::AutoBudget, supplies derived phase budgets.
  Executor(const ServiceConfig &Cfg, CompileCache &Cache, rt::PagePool *Pool,
           CostModel *Model = nullptr)
      : Cfg(Cfg), Cache(Cache), Pool(Pool), Model(Model) {}

  /// The whole lifecycle of one request: cache lookup -> (on a miss)
  /// budgeted cold compile + cache insert -> schemes -> optional run.
  /// A compile cut off by ServiceConfig::PhaseBudgets returns
  /// RequestOutcome::Budget with the partial phase profiles and is
  /// *not* cached (a later, unbudgeted submission must be able to
  /// finish the work).
  Response process(const Request &Req) const;

  /// How many cold compiles ran under CostModel-derived budgets
  /// (ServiceConfig::AutoBudget with an empty explicit PhaseBudgets and
  /// enough per-phase history). Zero until the model has
  /// BudgetMinSamples observations of some phase.
  uint64_t budgetAutoDerived() const {
    return BudgetAutoDerived.load(std::memory_order_relaxed);
  }

private:
  /// The cache/compile/run lifecycle; process() wraps it to feed the
  /// cost model exactly once per completion.
  Response processImpl(const Request &Req) const;

  const ServiceConfig &Cfg;
  CompileCache &Cache;
  rt::PagePool *Pool;
  /// Nullable; fed on completion, consulted for auto budgets.
  CostModel *Model;
  /// Counts cold compiles governed by model-derived budgets.
  mutable std::atomic<uint64_t> BudgetAutoDerived{0};
};

} // namespace rml::service

#endif // RML_SERVICE_EXECUTOR_H
