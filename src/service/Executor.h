//===- service/Executor.h - Per-request execution ---------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution layer: everything that happens to one request after a
/// worker picks it up — cache lookup, cold compile, scheme rendering,
/// and the region-runtime run through the shared page pool. Stateless
/// apart from the references it is built over, so any number of
/// workers share one Executor; the thread-pool mechanics stay in
/// Service, the dequeue policy in Scheduler, and this file owns only
/// *what running a request means*.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_EXECUTOR_H
#define RML_SERVICE_EXECUTOR_H

#include "service/Cache.h"
#include "service/Request.h"

#include "rt/PagePool.h"

namespace rml::service {

class CostModel;

/// Runs requests against a compile cache and a page pool. process() is
/// safe from any number of threads: the cache and pool are thread-safe,
/// and each cold compile happens on a fresh Compiler.
class Executor {
public:
  /// All referents are non-owning and must outlive the Executor.
  /// \p Model (nullable) receives one observation per completion.
  Executor(CompileCache &Cache, rt::PagePool *Pool, CostModel *Model = nullptr)
      : Cache(Cache), Pool(Pool), Model(Model) {}

  /// The whole lifecycle of one request under \p Key, Req's cache key
  /// as built at admission (the source is read from Key.Source; Req's
  /// own may already have been moved into it): cache lookup -> (on a
  /// miss) cold compile + cache insert -> schemes -> optional run.
  /// Every completion, failed compiles included, feeds the cost model.
  Response process(const Request &Req, const CacheKey &Key) const;

private:
  /// The cache/compile/run lifecycle; process() wraps it to feed the
  /// cost model exactly once per completion.
  Response processImpl(const Request &Req, const CacheKey &Key) const;

  CompileCache &Cache;
  rt::PagePool *Pool;
  /// Nullable; fed on completion.
  CostModel *Model;
};

} // namespace rml::service

#endif // RML_SERVICE_EXECUTOR_H
