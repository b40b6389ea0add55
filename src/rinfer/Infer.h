//===- rinfer/Infer.h - Region inference ------------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region inference (Section 4.1): consumes a Hindley-Milner-typed MiniML
/// program and produces a region-annotated program that is well-typed
/// under the GC-safe region type system of Section 3 (validated by
/// src/rcheck).
///
/// The algorithm is the classic unification-based scheme:
///
///  * *spreading*: each resolved ML type is decorated with fresh region
///    variables at every boxed constructor and a fresh effect variable at
///    every arrow;
///  * *unification*: term structure forces region/effect variables
///    together (union-find; effect-variable denotations grow
///    monotonically, the property Proposition 3 establishes);
///  * *generalisation*: `fun` declarations quantify the region and effect
///    variables of their type that do not escape into the environment
///    (tracked with Remy-style levels, the implementation of the paper's
///    "cones"), and quantified ML type variables enter the scheme's
///    type-variable context Delta — spurious ones with an arrow effect
///    (strategy rg), per Sections 4.1/4.3;
///  * *letregion insertion*: around let right-hand sides, function bodies
///    and the program, regions in the subexpression's (transitively
///    closed) effect that do not occur in the environment, the result
///    type, or the ambient type-variable context are discharged;
///  * *instantiation*: every use of a polymorphic binding records the full
///    substitution; under rg, substitution coverage adds the free region
///    and effect variables of each type instantiated for a spurious
///    variable to (the instance of) its arrow effect — the paper's fix.
///
/// Deliberate simplification (documented in DESIGN.md): recursive
/// self-calls are region-monomorphic (no region-polymorphic recursion);
/// the fixpoint phase of [41] only sharpens precision and is not needed
/// for soundness.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RINFER_INFER_H
#define RML_RINFER_INFER_H

#include "ast/Ast.h"
#include "region/RExpr.h"
#include "region/RegionType.h"
#include "rinfer/Spurious.h"
#include "rinfer/Strategy.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"
#include "types/TypeCheck.h"

#include <optional>

namespace rml {

/// Options controlling inference.
struct InferOptions {
  Strategy Strat = Strategy::Rg;
  SpuriousMode Spurious = SpuriousMode::FreshSecondary;
};

/// Result of region inference.
struct InferResult {
  RProgram Prog;
  /// The region type (mu) of the whole program.
  const Mu *RootMu = nullptr;
  /// Statistics for Figure 9 and the inference benchmarks.
  unsigned NumRegionVars = 0;
  unsigned NumEffectVars = 0;
  unsigned NumLetRegions = 0;
  unsigned NumSchemes = 0;
};

class InferStore;

/// Runs region inference over a typed program. \p RArena owns the emitted
/// region types and \p EArena the emitted terms; both must outlive the
/// result. Returns std::nullopt after reporting through \p Diags.
std::optional<InferResult>
inferRegions(const Program &P, const TypeInfo &Types,
             const SpuriousInfo &Spurious, const InferOptions &Opts,
             RTypeArena &RArena, RExprArena &EArena, Interner &Names,
             DiagnosticEngine &Diags);

/// The same run over a fresh \p Store the caller owns, which keeps the
/// variables' final union-find state and denotations afterwards.
std::optional<InferResult>
inferRegions(const Program &P, const TypeInfo &Types,
             const SpuriousInfo &Spurious, const InferOptions &Opts,
             RTypeArena &RArena, RExprArena &EArena, Interner &Names,
             DiagnosticEngine &Diags, InferStore &Store);

} // namespace rml

#endif // RML_RINFER_INFER_H
