//===- types/Type.h - Hindley-Milner types ----------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The underlying (non-region-annotated) ML type language: unification
/// variables with Remy-style levels for efficient let-generalisation, the
/// ground types of MiniML, and ML type schemes. Region inference consumes
/// the fully resolved types produced here and "spreads" region and effect
/// annotations over them (Section 4.1 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef RML_TYPES_TYPE_H
#define RML_TYPES_TYPE_H

#include "support/Interner.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace rml {

struct Type;

/// Constructors of the ML type language.
enum class TypeKind : uint8_t {
  Var,    // unification variable or (after generalisation) scheme-bound var
  Int,
  Bool,
  String,
  Unit,
  Exn,
  Arrow, // A -> B
  Pair,  // A * B
  List,  // A list
  Ref,   // A ref
};

/// An ML type node. Var nodes act as union-find entries through Link.
/// Types are owned by a TypeArena and freely shared; only Var nodes are
/// mutated (path-compressing resolution, level adjustment, binding).
struct Type {
  TypeKind K;
  Type *A = nullptr; // Arrow lhs / Pair lhs / List elem / Ref elem
  Type *B = nullptr; // Arrow rhs / Pair rhs

  // Var fields.
  Type *Link = nullptr;   // bound unification variable
  uint32_t VarId = 0;     // stable identity for printing and maps
  uint32_t Level = 0;     // Remy level at creation; lowered by unification
  bool Rigid = false;     // scheme-bound variable (never unifies with a
                          // different constructor; used when checking
                          // explicit annotations)

  explicit Type(TypeKind K) : K(K) {}
};

/// An ML type scheme: forall Quantified . Body.
struct TypeScheme {
  std::vector<Type *> Quantified; // Var nodes marked Rigid
  Type *Body = nullptr;

  bool isMono() const { return Quantified.empty(); }
};

/// Allocates and resolves ML types.
class TypeArena {
public:
  Type *make(TypeKind K, Type *A = nullptr, Type *B = nullptr) {
    Type *T = &Nodes.emplace_back(K);
    T->A = A;
    T->B = B;
    return T;
  }

  Type *freshVar(uint32_t Level) {
    Type *T = make(TypeKind::Var);
    T->VarId = NextVarId++;
    T->Level = Level;
    return T;
  }

  /// Ground types are hash-consed singletons.
  Type *intTy() { return single(TypeKind::Int, IntT); }
  Type *boolTy() { return single(TypeKind::Bool, BoolT); }
  Type *stringTy() { return single(TypeKind::String, StringT); }
  Type *unitTy() { return single(TypeKind::Unit, UnitT); }
  Type *exnTy() { return single(TypeKind::Exn, ExnT); }
  Type *arrow(Type *A, Type *B) { return make(TypeKind::Arrow, A, B); }
  Type *pair(Type *A, Type *B) { return make(TypeKind::Pair, A, B); }
  Type *list(Type *A) { return make(TypeKind::List, A); }
  Type *ref(Type *A) { return make(TypeKind::Ref, A); }

  size_t size() const { return Nodes.size(); }

  /// The id the next fresh variable gets. A compile that resumes after
  /// a declaration prefix continues from the prefix's arena's counter.
  uint32_t nextVarId() const { return NextVarId; }
  void setNextVarId(uint32_t Id) { NextVarId = Id; }

private:
  Type *single(TypeKind K, Type *&Slot) {
    if (!Slot)
      Slot = make(K);
    return Slot;
  }

  // A deque never moves its elements as it grows, so the node pointers
  // handed out stay valid for the arena's lifetime.
  std::deque<Type> Nodes;
  uint32_t NextVarId = 0;
  Type *IntT = nullptr, *BoolT = nullptr, *StringT = nullptr,
       *UnitT = nullptr, *ExnT = nullptr;
};

/// Follows Var links with path compression; the result is either a
/// non-Var node or an unbound Var.
Type *resolve(Type *T);

/// Structural unification. Returns false (without diagnostics) on
/// constructor clash or occurs-check failure; the caller reports.
bool unify(Type *A, Type *B);

/// Collects the unbound variables of \p T with level greater than
/// \p Level, in first-occurrence order (deterministic generalisation).
void collectGeneralizable(Type *T, uint32_t Level, std::vector<Type *> &Out);

/// Collects all unbound variables of \p T in first-occurrence order.
void collectFreeVars(Type *T, std::vector<Type *> &Out);

/// Collects every variable of \p T, including rigid (scheme-bound) ones,
/// in first-occurrence order. Used by the spurious-type-variable analysis,
/// which reasons about scheme-bound variables.
void collectAllVars(Type *T, std::vector<Type *> &Out);

/// True if unbound variable \p Var occurs in \p T.
bool occursIn(const Type *Var, Type *T);

/// Renders \p T with 'a, 'b, ... names assigned in order of appearance.
std::string printType(Type *T);

/// Renders a scheme as "forall 'a 'b. ty".
std::string printScheme(const TypeScheme &S);

} // namespace rml

#endif // RML_TYPES_TYPE_H
