//===- core/Pipeline.h - The RegionML public API ----------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's front door. A Compiler owns all arenas and runs the full
/// pipeline over a MiniML source string:
///
///   parse -> Hindley-Milner typing -> spurious-type-variable analysis
///         -> region inference (strategy rg / rg- / r)
///         -> region type check (GC-safe rules of Figure 4)
///         -> region-representation analyses (multiplicity, drop, kinds)
///         -> execution on the region runtime with reference-tracing GC
///
/// Typical use:
/// \code
///   rml::Compiler C;
///   auto Unit = C.compile(Source, {rml::Strategy::Rg});
///   if (!Unit) { /* C.diagnostics() */ }
///   auto Run = C.run(*Unit);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef RML_CORE_PIPELINE_H
#define RML_CORE_PIPELINE_H

#include "ast/Ast.h"
#include "ast/Parser.h"
#include "core/Options.h"
#include "core/Prefix.h"
#include "flat/Flat.h"
#include "rcheck/Check.h"
#include "region/RExpr.h"
#include "rinfer/Captures.h"
#include "rinfer/DropRegions.h"
#include "rinfer/Infer.h"
#include "rinfer/Multiplicity.h"
#include "rinfer/RegionKinds.h"
#include "rinfer/Spurious.h"
#include "rinfer/Strategy.h"
#include "rt/Eval.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"
#include "support/Trace.h"
#include "types/Type.h"
#include "types/TypeCheck.h"

#include <memory>
#include <optional>
#include <string>

namespace rml {

/// Everything produced by a successful compilation.
struct CompiledUnit {
  CompileOptions Options;
  Program Ast;
  TypeInfo Types;
  SpuriousInfo Spurious;
  InferResult Inferred;
  MultiplicityInfo Mult;
  RegionKindInfo Kinds;
  DropInfo Drops;
  /// Per-closure captured-region table (the "captures" phase); only set
  /// when Options.Captures. Closure order matches Flat->Fns, and the
  /// flatten phase embeds the same table in the flat unit so the report
  /// survives serialisation.
  std::optional<CaptureInfo> Captures;
  /// The flat, offset-based form of the program (built by the "flatten"
  /// phase): directly executable (Compiler::runFlat / rt::runFlatUnit)
  /// and what the disk cache persists to make warm restarts runnable.
  /// Shared, not owned — the service caches hand the same unit to the
  /// in-memory tier, the disk tier and concurrent runs.
  std::shared_ptr<const flat::FlatUnit> Flat;
  /// Region type and effect of the whole program (from the checker; only
  /// set when Options.Check).
  std::optional<CheckResult> Checked;
  /// One profile per static phase, in registry order (see
  /// Compiler::staticPhaseNames()); the "check" entry is marked Skipped
  /// when Options.Check is off and "captures" when Options.Captures is
  /// off. The runtime phase is not here — each run() returns its own
  /// profile in rt::RunResult::Phase.
  std::vector<PhaseProfile> Profiles;
  /// The declaration prefix this unit's compile resumed after (null for
  /// a cold compile). The unit points into the snapshot's AST, types
  /// and region types, and this reference keeps them alive. A resumed
  /// unit's Types covers the declarations after the prefix plus the
  /// prefix's schemes; everything else covers the whole program and
  /// equals a cold compile's.
  std::shared_ptr<const PrefixSnapshot> Prefix;

  const RProgram &program() const { return Inferred.Prog; }
  const Mu *rootMu() const { return Inferred.RootMu; }
};

/// The result of Compiler::compileAndRun: the unit (null if compilation
/// failed — see Compiler::diagnostics()) plus, when compilation
/// succeeded, the runtime result.
struct CompileAndRunResult {
  std::unique_ptr<CompiledUnit> Unit;
  rt::RunResult Run; // meaningful only when Unit is non-null

  bool ok() const { return Unit && Run.Outcome == rt::RunOutcome::Ok; }
};

/// The pipeline owner. Not thread-safe; one Compiler per thread.
///
/// Thread-safety contract (relied on by src/service):
///  * Two Compiler instances share no mutable state — every arena, the
///    interner and the diagnostic engine are per-instance members, and
///    the library keeps no mutable globals (the only function-local
///    statics — the benchmark corpus in bench/Programs.cpp and the
///    phase registry in core/Pipeline.cpp — are const and initialised
///    under C++11 magic-statics). Distinct Compilers on distinct
///    threads never race, and identical inputs produce bit-identical
///    outputs.
///  * compile() mutates this Compiler and must stay on one thread, but
///    the mutating entry points are exactly compile()/compileAndRun();
///    run(), printProgram() and schemeOf() are const and touch only the
///    unit and const interner state. Once a compile has returned, any
///    number of threads may concurrently run()/print a CompiledUnit
///    provided no thread calls compile() on the owner in the meantime.
///  * A unit's flat form (CompiledUnit::Flat) is self-contained and
///    immutable: it outlives its Compiler and runs via runFlat() from
///    any thread. The service layer's compile cache relies on this —
///    each cold compile renders its products on a short-lived Compiler
///    that is destroyed before the entry is shared, so cache entries
///    hold no Compiler at all.
///  * A PrefixStore is thread-safe, and any number of Compilers on
///    distinct threads may compile through one at once. The snapshots
///    it hands out are immutable: a resumed compile copies the
///    interner, typing environment and inference store, clones the
///    prefix's terms into its own arena, and only reads the shared AST,
///    types and records. Only closed schemes are shared, and their
///    variable links were compressed when the snapshot was taken, so
///    neither unification nor resolve() ever writes to them.
///  * Arenas grow monotonically: compiling N sources through one
///    Compiler keeps every previously returned CompiledUnit valid, at
///    the cost of memory linear in the total source compiled (see
///    arenaFootprint()). Long-lived single-Compiler loops should either
///    accept that linear growth or recycle the Compiler.
class Compiler {
public:
  Compiler() = default;

  /// Runs the static pipeline: the registered phases (see
  /// staticPhaseNames()) in order, stopping at the first phase that
  /// fails — exactly the historical early-exit-on-diagnostics
  /// behaviour. Returns nullptr after recording diagnostics (see
  /// diagnostics()); the profiles of the phases that did run — failed
  /// compiles stop the list at the failing phase — are available via
  /// lastPhaseProfiles().
  std::unique_ptr<CompiledUnit> compile(std::string_view Source,
                                        const CompileOptions &Opts = {});

  /// The same compile with a prefix store (core/Prefix.h): on a
  /// Compiler that has compiled nothing yet, the parse phase looks the
  /// source's declaration prefix up in \p Prefixes and the compile
  /// resumes after it. The unit, diagnostics and every rendered output
  /// equal what compile() gives; only the phase timings and arena node
  /// counts show the work skipped. On a used Compiler the store is not
  /// consulted (its interner already holds other symbols).
  std::unique_ptr<CompiledUnit> compile(std::string_view Source,
                                        const CompileOptions &Opts,
                                        PrefixStore &Prefixes);

  /// The registered static phases, in execution order. The runtime
  /// phase (RunPhaseName) is appended by run(), not listed here.
  static std::vector<std::string> staticPhaseNames();

  /// The name of the runtime phase run() profiles.
  static constexpr const char *RunPhaseName = "run";

  /// Profiles of the most recent compile() on this instance, in phase
  /// order; a failed compile records up to and including the failing
  /// phase and nothing after it.
  const std::vector<PhaseProfile> &lastPhaseProfiles() const {
    return LastProfiles;
  }

  /// Forwards every finished phase profile (static phases and run())
  /// to \p S. Null (the default) disables forwarding at zero cost.
  /// The sink must outlive the Compiler and, because run() may be
  /// called concurrently from several threads, must be thread-safe
  /// (ChromeTraceSink and NoopTraceSink are).
  void setTraceSink(TraceSink *S) { Sink = S; }

  /// Executes a compiled unit on the region runtime: runFlat() over
  /// Unit.Flat, with this Compiler's trace sink.
  rt::RunResult run(const CompiledUnit &Unit,
                    rt::EvalOptions EvalOpts = {}) const;

  /// Executes a flat unit on the region runtime (rt/FlatEval.h) and
  /// returns its result with the "run" PhaseProfile filled in. GC is
  /// enabled unless the unit was compiled with Strategy::R. Safe to
  /// call concurrently from several threads on the same unit (each run
  /// gets its own heap). EvalOpts.SharedPool lets concurrent runs
  /// recycle standard region pages through one rt::PagePool; it is
  /// ignored when EvalOpts.RetainReleasedPages asks for exact dangling
  /// detection. Static because a FlatUnit is self-contained (its own
  /// string table, resolved region facts): this is how cache entries,
  /// fresh or loaded from disk, run without a Compiler.
  static rt::RunResult runFlat(const flat::FlatUnit &Flat,
                               rt::EvalOptions EvalOpts = {},
                               TraceSink *Sink = nullptr);

  /// compile() followed by run(). Result.Unit is null on compile
  /// failure.
  CompileAndRunResult compileAndRun(std::string_view Source,
                                    const CompileOptions &Opts = {},
                                    rt::EvalOptions EvalOpts = {});

  /// Renders the region-annotated program (Figure 2 style).
  std::string printProgram(const CompiledUnit &Unit) const;

  /// The region type scheme a top-level declaration received, rendered in
  /// the paper's notation; empty if the name is unknown or monomorphic.
  /// Purely const (no interning), so safe on shared read-only units.
  std::string schemeOf(const CompiledUnit &Unit, std::string_view Name) const;

  /// Every top-level function binding's (name, rendered scheme),
  /// outermost first with later rebindings of a name dropped — exactly
  /// the per-name answers schemeOf() gives, enumerated in one pass.
  /// Purely const; the service's cache persists this table so scheme
  /// queries answer byte-identically across tiers and process restarts.
  std::vector<std::pair<std::string, std::string>>
  topLevelSchemes(const CompiledUnit &Unit) const;

  /// The rendered capture report (rinfer/Captures.h) of a unit compiled
  /// with Options.Captures; empty otherwise. Purely const, and
  /// byte-identical to flat::renderCaptureReport over the unit's flat
  /// form — the property the differential suites pin across cache
  /// tiers and process restarts.
  std::string captureReport(const CompiledUnit &Unit) const;

  DiagnosticEngine &diagnostics() { return Diags; }
  Interner &names() { return Names; }
  const Interner &names() const { return Names; }

  /// How many nodes the per-Compiler arenas hold. Grows linearly with
  /// the total amount of source compiled through this instance (nothing
  /// is freed until the Compiler dies); tests/service_test.cpp pins the
  /// growth to be per-compile constant for a fixed program.
  struct ArenaFootprint {
    size_t AstNodes = 0;
    size_t TypeNodes = 0;
    size_t RTypeNodes = 0;
    size_t RExprNodes = 0;
    size_t total() const {
      return AstNodes + TypeNodes + RTypeNodes + RExprNodes;
    }
  };
  ArenaFootprint arenaFootprint() const;

private:
  /// One named step of the static pipeline; Run returns false to stop
  /// compilation (the phase has already recorded why in Diags).
  struct PhaseDef {
    const char *Name;
    bool (Compiler::*Run)(std::string_view Source, CompiledUnit &Unit);
  };
  /// The ordered phase registry (const function-local static in
  /// Pipeline.cpp) that compile() drives.
  static const std::vector<PhaseDef> &staticPhaseRegistry();

  bool phaseParse(std::string_view Source, CompiledUnit &Unit);
  bool phaseTypecheck(std::string_view Source, CompiledUnit &Unit);
  bool phaseSpurious(std::string_view Source, CompiledUnit &Unit);
  bool phaseInfer(std::string_view Source, CompiledUnit &Unit);
  bool phaseCheck(std::string_view Source, CompiledUnit &Unit);
  bool phaseMultiplicity(std::string_view Source, CompiledUnit &Unit);
  bool phaseKinds(std::string_view Source, CompiledUnit &Unit);
  bool phaseDrops(std::string_view Source, CompiledUnit &Unit);
  bool phaseCaptures(std::string_view Source, CompiledUnit &Unit);
  bool phaseFlatten(std::string_view Source, CompiledUnit &Unit);

  Interner Names;
  DiagnosticEngine Diags;
  AstArena Ast;
  TypeArena Types;
  RTypeArena RTypes;
  RExprArena RExprs;
  std::vector<PhaseProfile> LastProfiles;
  TraceSink *Sink = nullptr;
  /// Set for the duration of a compile with a prefix store.
  PrefixStore *Prefixes = nullptr;
};

} // namespace rml

#endif // RML_CORE_PIPELINE_H
