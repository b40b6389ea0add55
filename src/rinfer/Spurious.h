//===- rinfer/Spurious.h - Spurious type-variable analysis ------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spurious type-variable analysis of Sections 4.1 and 4.3.
///
/// A quantified type variable alpha of a declaration's type scheme is
/// *spurious* iff
///
///  (1) alpha occurs free in the type of an identifier occurring free in a
///      function expression within the declaration, but not in the type of
///      the function expression itself (the "dead captured value" case of
///      Figure 1), or
///  (2) alpha occurs free in a type instantiated for another spurious type
///      variable (the Figure 8 chain through g and o), or
///  (3) alpha occurs free in the argument type of a local exception
///      declaration (Section 4.4) — such variables are additionally marked
///      ExnForced, and region inference pins their instances to the global
///      region.
///
/// Case (2) is a fixpoint over the program's instantiation records. The
/// analysis also produces the Figure 9 statistics: spurious functions /
/// total functions, and spurious-with-boxed-type instantiations / total
/// instantiations.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RINFER_SPURIOUS_H
#define RML_RINFER_SPURIOUS_H

#include "ast/Ast.h"
#include "types/Type.h"
#include "types/TypeCheck.h"

#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>

namespace rml {

struct SpuriousInfo {
  /// Quantified ML type variables (rigid Type nodes) found spurious.
  std::unordered_set<const Type *> SpuriousVars;
  /// Spurious variables whose instances must live in global regions
  /// because they occur in exception argument types (Section 4.4).
  std::unordered_set<const Type *> ExnForcedVars;
  /// Declarations whose scheme quantifies at least one spurious variable
  /// ("spurious functions" in Figure 9).
  std::unordered_set<const Dec *> SpuriousDecs;

  // Figure 9 statistics.
  unsigned TotalFunctions = 0;    // declarations binding functions
  unsigned SpuriousFunctions = 0; // ... with a spurious quantified var
  unsigned TotalInsts = 0;        // type-variable instantiations
  unsigned SpuriousBoxedInsts = 0; // spurious var instantiated w/ boxed ty

  bool isSpurious(Type *V) const {
    return SpuriousVars.count(resolve(V)) != 0;
  }
};

/// Runs the analysis over a typed program.
SpuriousInfo analyzeSpurious(const Program &P, const TypeInfo &Info);

/// Runs it over the top-level declarations \p Decs and then, when
/// non-null, the result \p Result of a program whose earlier top-level
/// declarations \p Prefix holds the analysis of. \p Info must type
/// \p Decs and \p Result and hold the schemes of the earlier top-level
/// declarations. A later declaration cannot make an earlier variable
/// spurious (it only instantiates earlier schemes with fresh variables),
/// so the result equals the analysis of the whole program.
SpuriousInfo analyzeSpurious(std::span<const Dec *const> Decs,
                             const Expr *Result, const TypeInfo &Info,
                             const SpuriousInfo &Prefix);

} // namespace rml

#endif // RML_RINFER_SPURIOUS_H
