//===- rt/FlatEval.h - Interpreter over flat compiled units -----*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The region runtime: executes a flat::FlatUnit directly — no RExpr
/// tree, no Interner, no analysis structures. Every run in the system
/// comes through here: Compiler::run forwards to Compiler::runFlat, and
/// the service runs fresh and disk-loaded cache entries alike.
///
/// Its observables — results, error strings, step counts, HeapStats,
/// the GC pause sequence, region profiles and GC-policy moves — are
/// pinned by the runtime golden file (tests/golden/runtime.txt),
/// recorded from the tree-walking evaluator this interpreter replaced.
/// The small-step machine of Section 3.10 (smallstep/Step.h) stays the
/// independent semantic oracle on the pure fragment it covers.
///
/// **Frames.** The evaluator keeps two stacks — values and region
/// handles — and reads every variable and region through the slot the
/// flattener resolved it to (flat/Flat.h), relative to the current
/// function's frame base; it never searches by name. An application
/// saves both bases, pushes the callee's frames (captures, self,
/// parameter; free regions, then formals) and restores the bases on
/// return. The formals come from the closure's last region
/// application; a closure never instantiated gets an "unbound" handle
/// there, and using one fails the run with "internal: unbound region
/// rN". A closure whose region count fits neither shape ends the run
/// with a RuntimeError. The value stack is the GC root set in stack
/// order, followed by the temporaries and the exception slot.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_FLATEVAL_H
#define RML_RT_FLATEVAL_H

#include "flat/Flat.h"
#include "rt/Eval.h"

namespace rml::rt {

/// Runs \p U under \p Opts. \p U must be structurally valid (as
/// produced by flat::flattenProgram or accepted by flat::decodeFlat).
RunResult runFlatUnit(const flat::FlatUnit &U, const EvalOptions &Opts);

} // namespace rml::rt

#endif // RML_RT_FLATEVAL_H
