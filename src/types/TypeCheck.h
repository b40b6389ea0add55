//===- types/TypeCheck.h - Algorithm W --------------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hindley-Milner type inference (algorithm W with Remy levels and the
/// value restriction) over the MiniML AST. Besides checking the program,
/// it records everything region inference needs:
///
///  * the resolved ML type of every expression and binder,
///  * the ML type scheme of every val/fun declaration,
///  * for every use of a polymorphic binding, the types instantiated for
///    each quantified type variable (the data from which the paper's
///    substitution-coverage side condition is enforced, Section 3.4),
///  * exception constructor signatures (Section 4.4).
///
/// Scheme-bound type variables are frozen as rigid Type nodes, so the body
/// of a polymorphic function keeps referring to the very nodes listed in
/// its scheme — region inference relies on this identity.
///
//===----------------------------------------------------------------------===//

#ifndef RML_TYPES_TYPECHECK_H
#define RML_TYPES_TYPECHECK_H

#include "ast/Ast.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"
#include "types/Type.h"

#include <span>
#include <unordered_map>
#include <vector>

namespace rml {

/// Instantiation record for one use of a polymorphic binding: Args[i] is
/// the type substituted for Scheme.Quantified[i].
struct InstInfo {
  const Dec *Origin = nullptr;
  std::vector<Type *> Args;
};

/// All typing facts produced by checkProgram.
struct TypeInfo {
  std::unordered_map<const Expr *, Type *> ExprTypes;
  /// Fn: parameter type. ListCase: element type of the scrutinised list.
  /// Handle: type of the bound exception argument (if any).
  std::unordered_map<const Expr *, Type *> BinderTypes;
  std::unordered_map<const Dec *, TypeScheme> DecSchemes;
  std::unordered_map<const Dec *, Type *> DecParamTypes; // Fun only
  std::unordered_map<const Dec *, Type *> ExnArgTypes;   // Exn (null = none)
  std::unordered_map<const Expr *, InstInfo> VarInsts;   // polymorphic uses
  /// Exception constructor uses/handlers resolved to their declaration.
  std::unordered_map<const Expr *, const Dec *> ExnRefs;

  Type *typeOf(const Expr *E) const {
    auto It = ExprTypes.find(E);
    assert(It != ExprTypes.end() && "expression was not typed");
    return resolve(It->second);
  }
  Type *binderType(const Expr *E) const {
    auto It = BinderTypes.find(E);
    assert(It != BinderTypes.end() && "binder was not typed");
    return resolve(It->second);
  }
};

/// One lexical binding: a (possibly polymorphic) scheme from a
/// declaration, or a monomorphic parameter type (no Origin).
struct TypeBinding {
  TypeScheme Scheme;
  const Dec *Origin = nullptr; // declaration that introduced the binding
};

/// The typing environment at top level, between two declarations: the
/// value bindings and exception constructors in scope. It is where a
/// compile that resumes after a declaration prefix starts checking.
struct TopLevelTypeEnv {
  std::vector<std::pair<Symbol, TypeBinding>> Values;
  std::vector<std::pair<Symbol, const Dec *>> Exns;

  /// True when no later declaration can mutate a Type node reachable
  /// from here: every variable of a scheme is one of its own
  /// quantified variables, and no exception argument type (recorded in
  /// \p Info) has a variable. Instantiation then copies each scheme
  /// with fresh variables, so the nodes can be shared read-only.
  bool closed(const TypeInfo &Info) const;

  /// Points every variable link reachable from the schemes straight at
  /// its representative, so resolve() never writes to those nodes again.
  void compressLinks();
};

/// Runs algorithm W over \p P. Returns false (after reporting through
/// \p Diags) if the program is ill-typed; \p Info is still filled for the
/// prefix that checked.
bool checkProgram(const Program &P, TypeArena &Arena, Interner &Names,
                  DiagnosticEngine &Diags, TypeInfo &Info);

/// Checks the top-level declarations \p Decs and then, when non-null,
/// the result expression \p Result in \p Env, which is left holding
/// the top-level bindings in scope after \p Decs. checkProgram is this
/// over an empty environment and the whole program.
bool checkTopLevel(std::span<const Dec *const> Decs, const Expr *Result,
                   TopLevelTypeEnv &Env, TypeArena &Arena, Interner &Names,
                   DiagnosticEngine &Diags, TypeInfo &Info);

} // namespace rml

#endif // RML_TYPES_TYPECHECK_H
