//===- rcheck/Check.h - Region type checker ---------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GC-safe region type system of Section 3: the typing rules of
/// Figure 4 for values and expressions, the value-containment judgement of
/// Figure 3, and the GC-safety relation G (definition (4)):
///
///   G(Omega, Gamma, e, X, pi) =  frv(pi) |=v e
///     and  forall y in fpv(e)\X.  Omega |- Gamma(y) : frev(pi)
///
/// The checker *validates* region-annotated programs produced by region
/// inference (or written by tests): every lambda records its latent arrow
/// effect, every fun-binding its scheme and every region application its
/// substitution, so checking is syntax-directed with no search. The
/// checker also validates the arrow-effect basis discipline of Section
/// 3.5: handles are functional (one denotation per effect variable) and
/// transitive (eps' in phi implies denotation(eps') subset phi).
///
/// Checking a program under the unsound rg- strategy succeeds with
/// GcSafety::Off — the paper's point is precisely that rg- output is
/// region-type-correct in the Tofte-Talpin sense yet not GC-safe; with
/// GcSafety::On the checker additionally enforces G and coverage,
/// rejecting such programs.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RCHECK_CHECK_H
#define RML_RCHECK_CHECK_H

#include "region/Containment.h"
#include "region/RExpr.h"
#include "region/RegionType.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"

#include <optional>
#include <string>
#include <vector>

namespace rml {

/// Whether the checker enforces the GC-safety side conditions (relation G
/// and substitution coverage at instantiations) on top of the plain
/// Tofte-Talpin region rules.
enum class GcSafety : uint8_t { Off, On };

/// Result of checking one expression: its type (scheme-and-place) and
/// effect.
struct CheckResult {
  Pi Type;
  Effect Phi;
};

/// Value containment (Figure 3): phi |= v. \p Phi is a set of regions.
bool valueContained(const Effect &Phi, const RExpr *V);

/// Value containment for expressions (Figure 3): phi |=v e.
bool exprValuesContained(const Effect &Phi, const RExpr *E);

/// The GC-safety relation G(Omega, Gamma, e, X, pi), where \p Gamma is
/// given as the bindings for the free variables of \p E minus \p X.
/// On failure, \p Why (if non-null) describes the offending binding.
bool gcSafe(const TyVarCtx &Omega,
            const std::vector<std::pair<Symbol, Pi>> &FreeBindings,
            const RExpr *E, const Pi &P, std::string *Why = nullptr);

/// Checks a whole region-annotated program, reading free variables from
/// P.FreeVars (which must cover P.Root). Returns the root's type and
/// effect, or std::nullopt after reporting through \p Diags.
std::optional<CheckResult>
checkRProgram(const RProgram &P, RTypeArena &Arena, const Interner &Names,
              DiagnosticEngine &Diags, GcSafety Safety = GcSafety::On);

/// Checks one expression under the given contexts (for tests and the
/// small-step preservation property). \p Gamma maps variables to types.
std::optional<CheckResult>
checkRExpr(const RExpr *E, const TyVarCtx &Omega,
           const std::vector<std::pair<Symbol, Pi>> &Gamma,
           const std::vector<std::pair<Symbol, const Mu *>> &ExnSigs,
           RTypeArena &Arena, const Interner &Names, DiagnosticEngine &Diags,
           GcSafety Safety = GcSafety::On);

} // namespace rml

#endif // RML_RCHECK_CHECK_H
