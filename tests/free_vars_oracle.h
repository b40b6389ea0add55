//===- tests/free_vars_oracle.h - Compile facts the naive way ---*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent checks of the two facts the compile path computes once
/// and shares: the free-variable table (RProgram::FreeVars), which
/// inference, the checker and the flattener all read, and the effect
/// closure of the inference store.
///
///  * freeVars is the walk the table replaced: it re-walks a subtree
///    with a stack of the binders in scope and collects each unbound
///    variable at its first occurrence. checkTable compares every
///    node's table entry with it, order included (the flattener's
///    capture slots follow that order).
///  * closure is the std::set search the store's epoch-marked one
///    replaced. checkClosures compares the two on a store a real
///    inference run left behind.
///
/// Each check returns the first disagreement, or "" when there is none.
///
//===----------------------------------------------------------------------===//

#ifndef RML_TESTS_FREE_VARS_ORACLE_H
#define RML_TESTS_FREE_VARS_ORACLE_H

#include "ast/Parser.h"
#include "region/RExpr.h"
#include "rinfer/Infer.h"
#include "rinfer/InferStore.h"
#include "rinfer/Spurious.h"
#include "types/TypeCheck.h"

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace rml::free_vars_oracle {

namespace detail {

inline void collectFree(const RExpr *E, std::vector<Symbol> &Bound,
                        std::vector<Symbol> &Out) {
  if (!E)
    return;
  auto IsBound = [&](Symbol S) {
    return std::find(Bound.begin(), Bound.end(), S) != Bound.end();
  };
  auto Add = [&](Symbol S) {
    if (!IsBound(S) && std::find(Out.begin(), Out.end(), S) == Out.end())
      Out.push_back(S);
  };

  switch (E->K) {
  case RExpr::Kind::Var:
    Add(E->Name);
    return;
  case RExpr::Kind::Lam:
  case RExpr::Kind::ClosVal:
    Bound.push_back(E->Param);
    collectFree(E->A, Bound, Out);
    Bound.pop_back();
    return;
  case RExpr::Kind::FunBind:
  case RExpr::Kind::FunVal:
    Bound.push_back(E->Name);
    Bound.push_back(E->Param);
    collectFree(E->A, Bound, Out);
    Bound.pop_back();
    Bound.pop_back();
    return;
  case RExpr::Kind::Let:
    collectFree(E->A, Bound, Out);
    Bound.push_back(E->Name);
    collectFree(E->B, Bound, Out);
    Bound.pop_back();
    return;
  case RExpr::Kind::ListCase:
    collectFree(E->A, Bound, Out);
    collectFree(E->B, Bound, Out);
    Bound.push_back(E->HeadName);
    Bound.push_back(E->TailName);
    collectFree(E->C, Bound, Out);
    Bound.pop_back();
    Bound.pop_back();
    return;
  case RExpr::Kind::Handle:
    collectFree(E->A, Bound, Out);
    if (E->BindName.isValid())
      Bound.push_back(E->BindName);
    collectFree(E->B, Bound, Out);
    if (E->BindName.isValid())
      Bound.pop_back();
    return;
  default:
    collectFree(E->A, Bound, Out);
    collectFree(E->B, Bound, Out);
    collectFree(E->C, Bound, Out);
    for (const RExpr *Item : E->Items)
      collectFree(Item, Bound, Out);
    return;
  }
}

inline std::string render(const std::vector<Symbol> &Syms,
                          const Interner &Names) {
  std::string Out = "[";
  for (Symbol S : Syms)
    Out += (Out.size() > 1 ? "," : "") + Names.text(S);
  return Out + "]";
}

} // namespace detail

/// Free program variables of \p E in first-occurrence pre-order.
inline std::vector<Symbol> freeVars(const RExpr *E) {
  std::vector<Symbol> Bound, Out;
  detail::collectFree(E, Bound, Out);
  return Out;
}

/// Compares P.FreeVars with freeVars at every node under P.Root.
/// \p Checked (when non-null) counts the nodes compared.
inline std::string checkTable(const RProgram &P, const Interner &Names,
                              size_t *Checked = nullptr) {
  std::vector<const RExpr *> Work{P.Root};
  std::set<const RExpr *> Done;
  while (!Work.empty()) {
    const RExpr *E = Work.back();
    Work.pop_back();
    if (!E || !Done.insert(E).second)
      continue;
    if (!P.FreeVars.has(E))
      return "node " + std::to_string(E->Id) + " has no table entry";
    std::span<const Symbol> Got = P.FreeVars.of(E);
    std::vector<Symbol> Want = freeVars(E);
    std::vector<Symbol> Have(Got.begin(), Got.end());
    if (Have != Want)
      return "node " + std::to_string(E->Id) + ": table " +
             detail::render(Have, Names) + ", walk " +
             detail::render(Want, Names);
    if (Checked)
      ++*Checked;
    Work.insert(Work.end(), {E->A, E->B, E->C});
    Work.insert(Work.end(), E->Items.begin(), E->Items.end());
  }
  return "";
}

/// The transitively closed set of canonical atomic effects reachable
/// from \p Seeds through denotations, built in a std::set.
inline Effect closure(InferStore &S, const Effect &Seeds) {
  std::set<AtomicEffect> Out;
  std::vector<EffectVar> Work;
  auto Add = [&](AtomicEffect A) {
    A = S.canon(A);
    if (Out.insert(A).second && A.isEffect())
      Work.push_back(A.effect());
  };
  for (AtomicEffect A : Seeds)
    Add(A);
  while (!Work.empty()) {
    EffectVar E = S.find(Work.back());
    Work.pop_back();
    std::vector<AtomicEffect> Members(S.denotation(E).begin(),
                                      S.denotation(E).end());
    for (AtomicEffect A : Members)
      Add(A);
  }
  return Effect(std::vector<AtomicEffect>(Out.begin(), Out.end()));
}

/// Compares S.closure with closure from every effect variable alone,
/// from its denotation, and from it together with the next variable and
/// a region, over all of \p S's variables. \p Checked (when non-null)
/// counts the seed sets compared.
inline std::string checkClosures(InferStore &S, size_t *Checked = nullptr) {
  auto Compare = [&](const Effect &Seeds) -> std::string {
    Effect Got = S.closure(Seeds), Want = closure(S, Seeds);
    if (Checked)
      ++*Checked;
    if (Got == Want)
      return "";
    return "closure of " + printEffect(Seeds) + ": store " +
           printEffect(Got) + ", set " + printEffect(Want);
  };
  uint32_t NumE = static_cast<uint32_t>(S.numEffects());
  uint32_t NumR = static_cast<uint32_t>(S.numRegions());
  for (uint32_t I = 0; I < NumE; ++I) {
    EffectVar E(I);
    Effect Deno;
    for (AtomicEffect A : S.denotation(E))
      Deno.insert(A);
    Effect Mixed{AtomicEffect(E), AtomicEffect(EffectVar((I + 1) % NumE)),
                 AtomicEffect(RegionVar(I % NumR))};
    for (const Effect &Seeds : {Effect{AtomicEffect(E)}, Deno, Mixed})
      if (std::string Problem = Compare(Seeds); !Problem.empty())
        return Problem;
  }
  return "";
}

/// Runs the front end and region inference on \p Source under \p Opts
/// over a store of its own, then checkClosures on what the run left.
inline std::string checkClosuresOf(std::string_view Source,
                                   const InferOptions &Opts,
                                   size_t *Checked = nullptr) {
  Interner Names;
  DiagnosticEngine Diags;
  AstArena Ast;
  TypeArena Types;
  RTypeArena RTypes;
  RExprArena RExprs;
  std::optional<Program> P = parseString(Source, Ast, Names, Diags);
  TypeInfo Info;
  if (!P || !checkProgram(*P, Types, Names, Diags, Info))
    return "front end failed: " + Diags.str();
  SpuriousInfo Spurious = analyzeSpurious(*P, Info);
  InferStore Store;
  if (!inferRegions(*P, Info, Spurious, Opts, RTypes, RExprs, Names, Diags,
                    Store))
    return "inference failed: " + Diags.str();
  return checkClosures(Store, Checked);
}

} // namespace rml::free_vars_oracle

#endif // RML_TESTS_FREE_VARS_ORACLE_H
