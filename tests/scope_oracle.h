//===- tests/scope_oracle.h - Slots against the name-scan rule --*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent check of the flattener's lexical addressing. The
/// evaluator once found every variable by scanning its environment back
/// for the nearest binder with the same name id, and every region by
/// the same scan over static region ids. checkScopes re-derives each
/// slot that way from the names and static ids a flat unit keeps beside
/// its slots, and reports the first disagreement:
///
///  * every Var slot, closure-site capture slot, closure-site free-region
///    ref, allocation-site ref and RApp target ref must name the binder
///    the scan finds;
///  * the scan must never need a binder outside the current function's
///    frame (the stack below a body holds its definer's binders, so a
///    scan that reaches them would have depended on the caller).
///
/// It also records each node's frame-relative depths, which the
/// fail-closed tests use to plant a slot exactly at its frame's edge.
///
//===----------------------------------------------------------------------===//

#ifndef RML_TESTS_SCOPE_ORACLE_H
#define RML_TESTS_SCOPE_ORACLE_H

#include "flat/Flat.h"

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace rml::scope_oracle {

struct Report {
  std::string Problem; ///< empty when every slot agrees
  size_t Checked = 0;  ///< slots and refs compared
  /// Per node: (variable depth, region depth) within its frame, or
  /// (NoIndex, NoIndex) when unreached.
  std::vector<std::pair<uint32_t, uint32_t>> Depth;
};

namespace detail {

using flat::FlatFn;
using flat::FlatNode;
using flat::FlatUnit;
using flat::NoIndex;

class Walker {
public:
  explicit Walker(const FlatUnit &U) : U(U) {
    R.Depth.assign(U.Nodes.size(), {NoIndex, NoIndex});
    BodyDone.assign(U.Fns.size(), false);
  }

  Report run() {
    walk(U.Root);
    return std::move(R);
  }

private:
  /// The old rule: the nearest entry with this key anywhere on the
  /// stack, then its offset from the current frame's base.
  bool expect(const std::vector<uint32_t> &S, size_t Base, uint32_t Key,
              uint32_t Slot, const char *What) {
    ++R.Checked;
    auto Label = [&] {
      return std::string(What) + " " +
             (&S == &Regions || Key >= U.numStrings()
                  ? "r" + std::to_string(Key)
                  : "'" + std::string(U.str(Key)) + "'");
    };
    for (size_t I = S.size(); I-- > 0;) {
      if (S[I] != Key)
        continue;
      if (I < Base)
        return fail(Label() + " is bound only outside its function's frame");
      if (I - Base != Slot)
        return fail(Label() + " has slot " + std::to_string(Slot) +
                    " but its nearest binder is slot " +
                    std::to_string(I - Base));
      return true;
    }
    return fail(Label() + " has no binder");
  }

  bool expectRegion(uint32_t Rho, uint32_t Ref) {
    if (Rho == 0) {
      ++R.Checked;
      return Ref == flat::GlobalRegionRef ||
             fail("region 0 is not the global ref");
    }
    return expect(Regions, RegionBase, Rho, Ref, "region");
  }

  bool fail(std::string Msg) {
    if (R.Problem.empty())
      R.Problem = std::move(Msg);
    return false;
  }

  bool allocates(const FlatNode &N) const {
    switch (static_cast<RExpr::Kind>(N.Kind)) {
    case RExpr::Kind::StrE:
    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind:
    case RExpr::Kind::RApp:
    case RExpr::Kind::PairE:
    case RExpr::Kind::ConsE:
    case RExpr::Kind::RefE:
      return true;
    case RExpr::Kind::BinOp:
    case RExpr::Kind::Prim:
      return N.X != NoIndex;
    default:
      return false;
    }
  }

  void body(uint32_t Fi) {
    if (BodyDone[Fi])
      return;
    BodyDone[Fi] = true;
    const FlatFn &F = U.Fns[Fi];
    size_t SavedVars = Vars.size(), SavedRegions = Regions.size();
    size_t SavedVarBase = VarBase, SavedRegionBase = RegionBase;
    VarBase = Vars.size();
    RegionBase = Regions.size();
    for (uint32_t I = 0; I < F.CapturesCount; ++I)
      Vars.push_back(U.Aux[F.CapturesBegin + I]);
    if (F.Self != NoIndex)
      Vars.push_back(F.Self);
    Vars.push_back(F.Param);
    for (uint32_t I = 0; I < F.FreeRegionsCount; ++I)
      Regions.push_back(U.Aux[F.FreeRegionsBegin + I]);
    for (uint32_t I = 0; I < F.FormalsCount; ++I)
      Regions.push_back(U.Aux[F.FormalsBegin + I]);
    walk(F.Body);
    Vars.resize(SavedVars);
    Regions.resize(SavedRegions);
    VarBase = SavedVarBase;
    RegionBase = SavedRegionBase;
  }

  void bound(uint32_t Node, std::vector<uint32_t> &S,
             std::initializer_list<uint32_t> Keys) {
    size_t Mark = S.size();
    for (uint32_t K : Keys)
      S.push_back(K);
    walk(Node);
    S.resize(Mark);
  }

  void walk(uint32_t Idx) {
    if (Idx == NoIndex || !R.Problem.empty())
      return;
    const FlatNode &N = U.Nodes[Idx];
    R.Depth[Idx] = {static_cast<uint32_t>(Vars.size() - VarBase),
                    static_cast<uint32_t>(Regions.size() - RegionBase)};
    if (allocates(N))
      expectRegion(N.Y, N.X);
    switch (static_cast<RExpr::Kind>(N.Kind)) {
    case RExpr::Kind::Var:
      expect(Vars, VarBase, N.B, N.A, "variable");
      return;
    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind: {
      const FlatFn &F = U.Fns[N.A];
      for (uint32_t I = 0; I < F.CapturesCount; ++I)
        expect(Vars, VarBase, U.Aux[F.CapturesBegin + I], U.Aux[N.B + I],
               "capture");
      for (uint32_t I = 0; I < F.FreeRegionsCount; ++I)
        expectRegion(U.Aux[F.FreeRegionsBegin + I],
                     U.Aux[N.B + F.CapturesCount + I]);
      body(N.A);
      return;
    }
    case RExpr::Kind::RApp:
      for (uint32_t I = 0; I < N.C; ++I)
        expectRegion(U.Aux[N.B + 3 * I + 1], U.Aux[N.B + 3 * I + 2]);
      walk(N.A);
      return;
    case RExpr::Kind::Let:
      walk(N.A);
      bound(N.B, Vars, {N.C});
      return;
    case RExpr::Kind::LetRegion:
      bound(N.A, Regions, {N.C});
      return;
    case RExpr::Kind::ListCase:
      walk(N.A);
      walk(N.B);
      bound(N.C, Vars, {N.X, N.Y});
      return;
    case RExpr::Kind::Handle:
      walk(N.A);
      if (N.X != NoIndex)
        bound(N.B, Vars, {N.X});
      else
        walk(N.B);
      return;
    case RExpr::Kind::Seq:
      for (uint32_t I = 0; I < N.C; ++I)
        walk(U.Aux[N.B + I]);
      return;
    case RExpr::Kind::ExnConE:
      walk(N.A);
      return;
    case RExpr::Kind::IntLit:
    case RExpr::Kind::BoolLit:
    case RExpr::Kind::StrE:
      return; // payload, not children
    default:
      walk(N.A);
      walk(N.B);
      walk(N.C);
      return;
    }
  }

  const FlatUnit &U;
  Report R;
  std::vector<bool> BodyDone;
  std::vector<uint32_t> Vars, Regions; // name ids, static region ids
  size_t VarBase = 0, RegionBase = 0;
};

} // namespace detail

/// Checks every slot of \p U against the name-scan rule.
inline Report checkScopes(const flat::FlatUnit &U) {
  return detail::Walker(U).run();
}

} // namespace rml::scope_oracle

#endif // RML_TESTS_SCOPE_ORACLE_H
