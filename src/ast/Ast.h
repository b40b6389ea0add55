//===- ast/Ast.h - MiniML surface syntax ------------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Surface abstract syntax for MiniML, the SML-flavoured source language fed
/// to Hindley-Milner typing and region inference. The node set mirrors the
/// term grammar of Section 3.6 of the paper (values, variables, let,
/// application, lambda, pairs, projections) extended with the constructs
/// the paper's examples and benchmarks require: conditionals, primitive
/// operators, lists with case analysis, strings, references, sequencing and
/// exceptions (Section 4.4).
///
/// Nodes are owned by an AstArena; all cross-references are raw non-owning
/// pointers, which is safe because the arena outlives every pass.
///
//===----------------------------------------------------------------------===//

#ifndef RML_AST_AST_H
#define RML_AST_AST_H

#include "support/Diagnostics.h"
#include "support/Interner.h"

#include <cassert>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace rml {

//===----------------------------------------------------------------------===//
// Surface types (annotations)
//===----------------------------------------------------------------------===//

/// A written type annotation, e.g. the "'a -> unit" in
/// "fun app (f : 'a -> unit) = ...". Annotations constrain HM inference;
/// they are how Section 4.2 removes spurious type variables from List.app.
struct TyExpr {
  enum class Kind : uint8_t {
    Int,
    Bool,
    String,
    Unit,
    Var,   // 'a
    Arrow, // t1 -> t2
    Pair,  // t1 * t2
    List,  // t list
    Ref,   // t ref
    Exn,   // exn
  };

  Kind K;
  SrcLoc Loc;
  Symbol VarName;       // Kind::Var
  const TyExpr *A = nullptr; // Arrow lhs / Pair lhs / List elem / Ref elem
  const TyExpr *B = nullptr; // Arrow rhs / Pair rhs

  explicit TyExpr(Kind K, SrcLoc Loc) : K(K), Loc(Loc) {}
};

//===----------------------------------------------------------------------===//
// Expressions and declarations
//===----------------------------------------------------------------------===//

struct Expr;

/// Primitive binary operators. Cons is the list constructor "::"; the
/// comparison operators are monomorphic over int; Concat ("^") is string
/// concatenation, which region inference annotates with a destination
/// region exactly as the paper's "op ^ [rho]" examples.
enum class BinOpKind : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  Eq,
  NotEq,
  Concat,
  Cons,
  AndAlso,
  OrElse,
  StrEq,
};

const char *binOpName(BinOpKind K);

/// A declaration inside "let ... in e end" or at top level.
struct Dec {
  enum class Kind : uint8_t {
    Val, // val x [: ty] = e
    Fun, // fun f x [: ty] ... = e  (recursive, curried via desugaring)
    Exn, // exception E [of ty]
  };

  Kind K;
  SrcLoc Loc;
  Symbol Name;
  const TyExpr *Annot = nullptr; // Val: binding annot; Exn: argument type.
  // Fun: parameter list with optional annotations; desugared by the
  // parser into nested fn for all but the first parameter.
  Symbol Param;
  const TyExpr *ParamAnnot = nullptr;
  const TyExpr *ResultAnnot = nullptr;
  const Expr *Body = nullptr; // Val initialiser / Fun body.
};

struct Expr {
  enum class Kind : uint8_t {
    IntLit,
    StrLit,
    BoolLit,
    UnitLit,
    Var,
    Fn,       // fn x => e
    App,      // e1 e2
    Pair,     // (e1, e2)
    Sel,      // #1 e / #2 e
    Let,      // let decs in e end
    If,       // if c then t else f
    BinOp,    // e1 op e2
    Nil,      // nil
    ListCase, // case e of nil => e1 | h :: t => e2
    Ref,      // ref e
    Deref,    // !e
    Assign,   // e1 := e2
    Seq,      // (e1; e2; ...)
    Raise,    // raise e
    Handle,   // e handle E x => e' | e handle _ => e'
    ExnCon,   // E or E e (construction of an exception value)
    Annot,    // (e : ty)
    Prim,     // print e / itos e / work e / ord e
  };

  /// Builtin unary primitives exposed as keywords-by-convention.
  enum class PrimKind : uint8_t {
    Print,  // string -> unit
    Itos,   // int -> string
    Size,   // string -> int
    Work,   // int -> unit: allocation churn to provoke a collection
    Global, // 'a -> 'a: pins the value's regions to the global region —
            // the paper's future-work "being explicit about regions ...
            // in expressions", in its minimal useful form
  };

  Kind K;
  SrcLoc Loc;

  // Literals.
  int64_t IntValue = 0;
  std::string StrValue;
  bool BoolValue = false;

  // Names.
  Symbol Name; // Var / Fn param / ListCase binders (HeadName,TailName below)

  // Children.
  const Expr *A = nullptr;
  const Expr *B = nullptr;
  const Expr *C = nullptr;

  // Fn / Annot.
  const TyExpr *Ty = nullptr;

  // Sel.
  unsigned SelIndex = 1;

  // Let.
  std::vector<const Dec *> Decs;

  // ListCase binders.
  Symbol HeadName, TailName;

  // BinOp.
  BinOpKind Op = BinOpKind::Add;

  // Seq.
  std::vector<const Expr *> Items;

  // Handle: the matched exception constructor (invalid => wildcard) and
  // the bound argument variable (invalid => none).
  Symbol ExnName;
  Symbol BindName;

  // Prim.
  PrimKind Prim = PrimKind::Print;

  explicit Expr(Kind K, SrcLoc Loc) : K(K), Loc(Loc) {}
};

//===----------------------------------------------------------------------===//
// Arena and program
//===----------------------------------------------------------------------===//

/// Owns every Expr/Dec/TyExpr node of a parse.
class AstArena {
public:
  Expr *expr(Expr::Kind K, SrcLoc Loc) {
    return &Exprs.emplace_back(K, Loc);
  }
  Dec *dec(Dec::Kind K, SrcLoc Loc) {
    Dec &D = Decs.emplace_back();
    D.K = K;
    D.Loc = Loc;
    return &D;
  }
  TyExpr *ty(TyExpr::Kind K, SrcLoc Loc) {
    return &Tys.emplace_back(K, Loc);
  }

  size_t exprCount() const { return Exprs.size(); }

private:
  // A deque never moves its elements as it grows, so the node pointers
  // handed out stay valid for the arena's lifetime.
  std::deque<Expr> Exprs;
  std::deque<Dec> Decs;
  std::deque<TyExpr> Tys;
};

/// A parsed program: a sequence of top-level declarations and a result
/// expression (the parser supplies "()" when the program is only
/// declarations).
struct Program {
  std::vector<const Dec *> Decs;
  const Expr *Result = nullptr;
};

/// Renders \p E in source-like concrete syntax (tests and debugging).
std::string printExpr(const Expr *E, const Interner &Names);

/// Renders a surface type annotation.
std::string printTyExpr(const TyExpr *T, const Interner &Names);

} // namespace rml

#endif // RML_AST_AST_H
