//===- region/RExpr.h - Region-annotated terms ------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The region-annotated intermediate language of Section 3.6, the target of
/// region inference and the subject of the region type checker, the
/// small-step semantics and the runtime:
///
///   v ::= d | <v1,v2>^rho | <\x.e>^rho | <fun f [rhos] x = e>^rho
///   e ::= v | x | let x = e1 in e2 | e1 e2 | \x.e at rho
///       | letregion rho in e
///       | fun f [rhos] x = e at rho | e [S] at rho
///       | (e1,e2) at rho | #i e
///
/// extended — as Section 4 prescribes for full ML — with conditionals,
/// integer/boolean operators, strings ("s" at rho, ^ at rho), lists
/// (nil, :: at rho, case), references (ref at rho, !, :=), sequencing,
/// exceptions (at the global region, Section 4.4) and primitives.
///
/// Differences from the paper's concrete notation, chosen to make checking
/// deterministic:
///  * lambdas record their parameter type and latent arrow effect,
///  * fun-bindings record their full region type scheme
///    (forall rhos epss Delta. tau),
///  * region application records the entire instantiating substitution
///    (St, Sr, Se), not just the region instance list, so the checker
///    *verifies* rather than reconstructs the instance-of relation,
///  * letregion records the secondary effect variables it discharges
///    (the \vec{eps} of rule [TeReg]).
///
/// Value forms (IntVal is shared with literals) only appear during
/// small-step evaluation; region inference never emits them.
///
//===----------------------------------------------------------------------===//

#ifndef RML_REGION_REXPR_H
#define RML_REGION_REXPR_H

#include "ast/Ast.h"
#include "region/Effect.h"
#include "region/RegionType.h"
#include "region/Subst.h"
#include "support/Interner.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace rml {

struct RExpr {
  enum class Kind : uint8_t {
    // Unboxed constants (values).
    IntLit,
    BoolLit,
    UnitLit,
    // Allocating expressions (with an at-rho annotation).
    Lam,     // \x.e at rho
    FunBind, // fun f [rhos epss Delta] x = e at rho (a binding *value
             // expression*; see Let for its typical position)
    PairE,   // (e1, e2) at rho
    StrE,    // "s" at rho
    ConsE,   // e1 :: e2 at rho
    RefE,    // ref e at rho
    RApp,    // e [S] at rho
    ExnConE, // E e at rG (global region)
    // Boxed values (small-step results).
    ClosVal, // <\x.e>^rho
    FunVal,  // <fun f [rhos] x = e>^rho
    PairVal, // <v1,v2>^rho
    StrVal,  // <"s">^rho
    ConsVal, // <v1::v2>^rho
    NilVal,  // nil (unboxed empty list)
    // Non-allocating expressions.
    Var,
    Let,       // let x = e1 in e2
    App,       // e1 e2
    LetRegion, // letregion rho [discharging epss] in e
    Sel,       // #i e
    If,
    BinOp,
    ListCase,
    Deref,
    Assign,
    Seq,
    Raise,
    Handle,
    Prim,
  };

  Kind K;
  SrcLoc Loc;

  /// The region-annotated type of this expression, recorded by inference
  /// and validated by the checker. For FunBind this is the *scheme*
  /// (see Sigma/Place); MuOf then holds the scheme body at its place.
  const Mu *MuOf = nullptr;

  // Constants.
  int64_t IntValue = 0;
  bool BoolValue = false;
  std::string StrValue;

  // Names.
  Symbol Name;               // Var, Lam/FunBind param via Param, binder names
  Symbol Param;              // Lam / FunBind parameter
  Symbol HeadName, TailName; // ListCase
  Symbol ExnName;            // ExnConE / Handle constructor
  Symbol BindName;           // Handle argument binder

  // Children.
  const RExpr *A = nullptr;
  const RExpr *B = nullptr;
  const RExpr *C = nullptr;
  std::vector<const RExpr *> Items; // Seq

  // Region annotations.
  RegionVar AtRho;                  // allocation destination
  RegionVar BoundRho;               // LetRegion binder
  std::vector<EffectVar> BoundEffs; // LetRegion discharged effect vars

  // Lam: parameter type and the latent arrow effect of the lambda.
  const Mu *ParamMu = nullptr;
  ArrowEff LatentNu;

  // FunBind / FunVal: the recorded scheme (quantifiers + Delta + body).
  RScheme Sigma;

  // RApp: the recorded instantiation.
  Subst Inst;

  // BinOp.
  BinOpKind Op = BinOpKind::Add;

  // Sel.
  unsigned SelIndex = 1;

  // Prim.
  Expr::PrimKind PrimK = Expr::PrimKind::Print;

  /// The node's index in its arena (RExprArena::make and clone number
  /// nodes densely from 0), which keys per-node tables.
  uint32_t Id = 0;

  explicit RExpr(Kind K) : K(K) {}

  bool isValue() const {
    switch (K) {
    case Kind::IntLit:
    case Kind::BoolLit:
    case Kind::UnitLit:
    case Kind::ClosVal:
    case Kind::FunVal:
    case Kind::PairVal:
    case Kind::StrVal:
    case Kind::ConsVal:
    case Kind::NilVal:
      return true;
    default:
      return false;
    }
  }
};

/// Owns RExpr nodes. Small-step evaluation allocates new nodes while
/// rewriting, so the arena is shared between inference and evaluation.
class RExprArena {
public:
  RExpr *make(RExpr::Kind K) {
    RExpr &N = Nodes.emplace_back(K);
    N.Id = static_cast<uint32_t>(Nodes.size() - 1);
    return &N;
  }
  /// Shallow copy (children shared) — the workhorse of substitution.
  RExpr *clone(const RExpr *E) {
    RExpr &N = Nodes.emplace_back(*E);
    N.Id = static_cast<uint32_t>(Nodes.size() - 1);
    return &N;
  }
  size_t size() const { return Nodes.size(); }

private:
  // A deque never moves its elements as it grows, so the node pointers
  // handed out stay valid for the arena's lifetime.
  std::deque<RExpr> Nodes;
};

/// The free program variables (fpv, Section 3.6) of every node of a
/// term, each computed once. fill() works bottom-up: a node's list is
/// its children's lists in child order, minus the binders the node puts
/// in scope over each child, keeping each variable's first occurrence.
/// That is the order a pre-order walk from the node meets them in,
/// which the flattener's capture slots depend on.
///
/// All lists live in one symbol array; a node's entry is a span of it,
/// and a node whose list equals its first contributing child's shares
/// that child's span. Entries sit in a vector indexed by RExpr::Id from
/// \p FirstId on, so the nodes one arena made from that id on (a
/// compile's) are found by one index. Each entry names its node; a node
/// whose slot another node holds (a term mixing two arenas, as the
/// small-step machine's do) or whose id lies below \p FirstId spills
/// into a map. A node must not change its children or binders once it
/// has an entry; inference only ever wraps finished nodes or clones
/// them.
class FreeVarTable {
public:
  explicit FreeVarTable(uint32_t FirstId = 0) : FirstId(FirstId) {}

  /// Gives \p E, and every node beneath it that has none, its entry.
  void fill(const RExpr *E);

  /// The free variables of \p E, in first-occurrence pre-order. \p E
  /// must have an entry; the span lasts until the next fill().
  std::span<const Symbol> of(const RExpr *E) const {
    const Entry *X = find(E);
    assert(X && "node has no free-variable entry");
    return {Syms.data() + X->Begin, X->Size};
  }

  bool has(const RExpr *E) const { return find(E) != nullptr; }

  /// Whether \p S is free in \p E (which must have an entry).
  bool isFree(const RExpr *E, Symbol S) const {
    std::span<const Symbol> Free = of(E);
    return std::find(Free.begin(), Free.end(), S) != Free.end();
  }

private:
  struct Entry {
    const RExpr *Node = nullptr;
    uint32_t Begin = 0, Size = 0; // into Syms
  };

  const Entry *find(const RExpr *E) const {
    if (E->Id >= FirstId && E->Id - FirstId < Dense.size() &&
        Dense[E->Id - FirstId].Node == E)
      return &Dense[E->Id - FirstId];
    if (Spill.empty())
      return nullptr;
    auto It = Spill.find(E);
    return It == Spill.end() ? nullptr : &It->second;
  }
  void compute(const RExpr *E);

  uint32_t FirstId;
  std::vector<Entry> Dense; // by RExpr::Id - FirstId
  std::unordered_map<const RExpr *, Entry> Spill; // see the class comment
  std::vector<Symbol> Syms;   // every list, back to back
  std::vector<uint32_t> Seen; // by Symbol::Id: the Epoch it was last taken
  uint32_t Epoch = 0;
};

/// A whole region-annotated program together with the bookkeeping the
/// later phases need.
struct RProgram {
  const RExpr *Root = nullptr;
  /// Exception constructor argument types (null = nullary), keyed by name.
  std::vector<std::pair<Symbol, const Mu *>> ExnSigs;
  /// Free variables of every node under Root. Region inference fills it
  /// while it builds the program; the checker and the flattener only
  /// look entries up. A program built by hand fills it over Root before
  /// it is checked or flattened.
  FreeVarTable FreeVars;
};

/// Renders \p E in paper-like notation, e.g.
/// "letregion r1 in (\x.() at r1) end". Multi-line with indentation.
std::string printRExpr(const RExpr *E, const Interner &Names);

} // namespace rml

#endif // RML_REGION_REXPR_H
