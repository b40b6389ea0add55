//===- flat/Flat.cpp ------------------------------------------------------===//

#include "flat/Flat.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <set>
#include <type_traits>
#include <unordered_map>

using namespace rml;
using namespace rml::flat;

//===----------------------------------------------------------------------===//
// Flattening
//===----------------------------------------------------------------------===//

namespace {

/// The per-function compilation pass: fun/lambda discovery in
/// pre-order, capture lists, RApp argument resolution against the
/// lexical fun scope, and the free-region computation with the drop
/// analysis applied. Closure sizes follow from it, so the runtime
/// golden file pins its output through every run's allocation words.
struct FnInfo {
  const RExpr *Node = nullptr;
  const RExpr *Body = nullptr;
  Symbol Param;
  Symbol SelfName;
  std::vector<Symbol> Captures;
  std::vector<uint32_t> FreeRegions;
  std::vector<uint32_t> RuntimeFormals;
};

class FnPass {
public:
  FnPass(const DropInfo &Drops) : Drops(Drops) {}

  std::vector<FnInfo> Fns;
  std::unordered_map<const RExpr *, uint32_t> FnIndex;
  std::unordered_map<const RExpr *, std::vector<std::pair<uint32_t, uint32_t>>>
      RAppArgs;
  std::unordered_map<Symbol, uint32_t> ExnIds;
  uint32_t NextExnId = 0;
  /// Static ids with a Regions entry: the global region and every
  /// letregion binder.
  std::set<uint32_t> RegionIds{0};

  void run(const RProgram &P) {
    for (const auto &[Name, Sig] : P.ExnSigs)
      if (!ExnIds.count(Name))
        ExnIds.emplace(Name, NextExnId++);
    walk(P.Root);
    for (FnInfo &F : Fns)
      computeFreeRegions(F);
  }

private:
  void bindFun(Symbol Name, const RExpr *Fun) {
    FunScope.emplace_back(Name, Fun);
  }
  const RExpr *lookupFun(Symbol Name) const {
    for (size_t I = FunScope.size(); I-- > 0;)
      if (FunScope[I].first == Name)
        return FunScope[I].second;
    return nullptr;
  }

  void walk(const RExpr *E) {
    if (!E)
      return;
    switch (E->K) {
    case RExpr::Kind::Lam: {
      FnInfo F;
      F.Node = E;
      F.Body = E->A;
      F.Param = E->Param;
      F.Captures = freeVars(E);
      FnIndex.emplace(E, static_cast<uint32_t>(Fns.size()));
      Fns.push_back(std::move(F));
      walk(E->A);
      return;
    }
    case RExpr::Kind::FunBind: {
      FnInfo F;
      F.Node = E;
      F.Body = E->A;
      F.Param = E->Param;
      F.SelfName = E->Name;
      F.Captures = freeVars(E);
      for (RegionVar R : E->Sigma.QRegions)
        if (!Drops.isDropped(E, R))
          F.RuntimeFormals.push_back(R.Id);
      FnIndex.emplace(E, static_cast<uint32_t>(Fns.size()));
      Fns.push_back(std::move(F));
      size_t Mark = FunScope.size();
      bindFun(E->Name, E);
      walk(E->A);
      FunScope.resize(Mark);
      return;
    }
    case RExpr::Kind::Let: {
      walk(E->A);
      size_t Mark = FunScope.size();
      if (E->A->K == RExpr::Kind::FunBind)
        bindFun(E->Name, E->A);
      walk(E->B);
      FunScope.resize(Mark);
      return;
    }
    case RExpr::Kind::LetRegion:
      RegionIds.insert(E->BoundRho.Id);
      walk(E->A);
      return;
    case RExpr::Kind::RApp: {
      assert(E->A->K == RExpr::Kind::Var && "region application target");
      const RExpr *Callee = lookupFun(E->A->Name);
      std::vector<std::pair<uint32_t, uint32_t>> Args;
      if (Callee) {
        for (RegionVar Q : Callee->Sigma.QRegions) {
          if (Drops.isDropped(Callee, Q))
            continue;
          auto It = E->Inst.Sr.find(Q);
          Args.emplace_back(Q.Id,
                            It != E->Inst.Sr.end() ? It->second.Id : Q.Id);
        }
      }
      RAppArgs.emplace(E, std::move(Args));
      walk(E->A);
      return;
    }
    default:
      walk(E->A);
      walk(E->B);
      walk(E->C);
      for (const RExpr *Item : E->Items)
        walk(Item);
      return;
    }
  }

  void collectRegionRefs(const RExpr *E, std::set<uint32_t> &Bound,
                         std::set<uint32_t> &Out) {
    if (!E)
      return;
    if (E->AtRho.isValid() && E->AtRho.Id != 0 && !Bound.count(E->AtRho.Id))
      Out.insert(E->AtRho.Id);
    if (E->K == RExpr::Kind::RApp) {
      auto It = RAppArgs.find(E);
      if (It != RAppArgs.end())
        for (const auto &[Formal, Target] : It->second)
          if (Target != 0 && !Bound.count(Target))
            Out.insert(Target);
    }
    if (E->K == RExpr::Kind::LetRegion) {
      std::set<uint32_t> Inner = Bound;
      Inner.insert(E->BoundRho.Id);
      collectRegionRefs(E->A, Inner, Out);
      return;
    }
    if (E->K == RExpr::Kind::FunBind) {
      std::set<uint32_t> Inner = Bound;
      for (RegionVar R : E->Sigma.QRegions)
        Inner.insert(R.Id);
      collectRegionRefs(E->A, Inner, Out);
      return;
    }
    collectRegionRefs(E->A, Bound, Out);
    collectRegionRefs(E->B, Bound, Out);
    collectRegionRefs(E->C, Bound, Out);
    for (const RExpr *Item : E->Items)
      collectRegionRefs(Item, Bound, Out);
  }

  void computeFreeRegions(FnInfo &F) {
    std::set<uint32_t> Bound, Out;
    for (uint32_t R : F.RuntimeFormals)
      Bound.insert(R);
    if (F.Node->K == RExpr::Kind::FunBind)
      for (RegionVar R : F.Node->Sigma.QRegions)
        Bound.insert(R.Id);
    collectRegionRefs(F.Body, Bound, Out);
    F.FreeRegions.assign(Out.begin(), Out.end());
  }

  const DropInfo &Drops;
  std::vector<std::pair<Symbol, const RExpr *>> FunScope;
};

/// The second pass: rewrites the RExpr web into the index tables,
/// consulting the FnPass results for fn links, RApp pairs and exn ids,
/// and resolving every variable and region occurrence to a frame slot
/// against two scope stacks (see Flat.h for the frame layouts).
class Flattener {
public:
  Flattener(const FnPass &FP, const MultiplicityInfo &Mult,
            const RegionKindInfo &Kinds, const Interner &Names)
      : FP(FP), Mult(Mult), Kinds(Kinds), Names(Names) {}

  FlatUnit take(const RProgram &P, const Mu *RootMu, Strategy Strat,
                const CaptureInfo *Caps, std::string &ErrorOut) {
    U.Strat = static_cast<uint8_t>(Strat);
    // Region facts first, ascending by id (LetRegion nodes carry their
    // index); the global region always has an entry.
    for (uint32_t Id : FP.RegionIds) {
      FlatRegion R;
      R.Id = Id;
      R.Kind = static_cast<uint8_t>(Kinds.kindOf(RegionVar(Id)));
      R.Finite = Mult.isFinite(RegionVar(Id)) ? 1 : 0;
      auto It = Mult.FiniteWords.find(Id);
      R.Words = It != Mult.FiniteWords.end() ? It->second : 0;
      U.Regions.push_back(R);
    }
    FnBodies.assign(FP.Fns.size(), NoIndex);
    U.Root = flatten(P.Root);
    U.RootMu = flattenMu(RootMu);
    // Fn table: bodies were flattened in their own frames while walking
    // the root (every fn site is a descendant of the root).
    for (size_t I = 0; I < FP.Fns.size(); ++I) {
      const FnInfo &F = FP.Fns[I];
      FlatFn FF;
      FF.Body = FnBodies[I];
      if (FF.Body == NoIndex)
        fail("internal: function body never flattened");
      FF.Param = nameId(F.Param);
      FF.Self = nameId(F.SelfName);
      FF.CapturesBegin = static_cast<uint32_t>(U.Aux.size());
      FF.CapturesCount = static_cast<uint32_t>(F.Captures.size());
      for (Symbol S : F.Captures)
        U.Aux.push_back(nameId(S));
      FF.FreeRegionsBegin = static_cast<uint32_t>(U.Aux.size());
      FF.FreeRegionsCount = static_cast<uint32_t>(F.FreeRegions.size());
      U.Aux.insert(U.Aux.end(), F.FreeRegions.begin(), F.FreeRegions.end());
      FF.FormalsBegin = static_cast<uint32_t>(U.Aux.size());
      FF.FormalsCount = static_cast<uint32_t>(F.RuntimeFormals.size());
      U.Aux.insert(U.Aux.end(), F.RuntimeFormals.begin(),
                   F.RuntimeFormals.end());
      U.Fns.push_back(FF);
    }
    // Capture table: the analysis enumerates closures in this pass's
    // own pre-order, so entry i annotates Fns[i]. A mismatched table
    // (impossible through the pipeline; conceivable for hand-built
    // inputs) is dropped rather than misattributed.
    if (Caps && Caps->Closures.size() == U.Fns.size()) {
      U.HasCaptures = 1;
      for (const ClosureCapture &C : Caps->Closures) {
        FlatCapture FC;
        FC.ValueBegin = static_cast<uint32_t>(U.Aux.size());
        FC.ValueCount = static_cast<uint32_t>(C.ViaValue.size());
        for (uint32_t R : C.ViaValue)
          U.Aux.push_back(R);
        FC.EffectBegin = static_cast<uint32_t>(U.Aux.size());
        FC.EffectCount = static_cast<uint32_t>(C.ViaEffect.size());
        for (uint32_t R : C.ViaEffect)
          U.Aux.push_back(R);
        U.Caps.push_back(FC);
      }
    }
    // Exception names in id order (ids were assigned sequentially).
    // Intern in id order too — iterating the unordered map directly
    // would make string-table order (and the encoding) nondeterministic.
    std::vector<Symbol> ById(FP.NextExnId);
    for (const auto &[Name, Id] : FP.ExnIds)
      ById[Id] = Name;
    U.ExnNames.reserve(ById.size());
    for (Symbol Name : ById)
      U.ExnNames.push_back(nameId(Name));
    ErrorOut = std::move(Error);
    return std::move(U);
  }

private:
  void fail(std::string Msg) {
    if (Error.empty())
      Error = std::move(Msg);
  }

  uint32_t stringId(std::string_view S) {
    auto It = StringIndex.find(std::string(S));
    if (It != StringIndex.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(U.StringSpans.size());
    U.StringSpans.emplace_back(static_cast<uint32_t>(U.StringBlob.size()),
                               static_cast<uint32_t>(S.size()));
    U.StringBlob.append(S);
    StringIndex.emplace(std::string(S), Id);
    return Id;
  }

  uint32_t nameId(Symbol S) {
    return S.isValid() ? stringId(Names.text(S)) : NoIndex;
  }

  uint32_t exnIdOf(Symbol Name) const {
    // Unregistered constructors get a sentinel id.
    auto It = FP.ExnIds.find(Name);
    return It != FP.ExnIds.end() ? It->second : UINT32_MAX - 2;
  }

  //===--------------------------------------------------------------------===//
  // Scopes
  //===--------------------------------------------------------------------===//

  /// Everything a scope change saves: stack heights, frame bases and the
  /// scope id. Restoring one pops back to it without copying a stack.
  struct Mark {
    size_t Vars, Regions, VarBase, RegionBase;
    uint32_t Scope;
  };
  Mark mark() const {
    return {VarScope.size(), RegionScope.size(), VarBase, RegionBase, Scope};
  }
  void restore(const Mark &M) {
    VarScope.resize(M.Vars);
    RegionScope.resize(M.Regions);
    VarBase = M.VarBase;
    RegionBase = M.RegionBase;
    Scope = M.Scope;
  }
  void bindVar(Symbol S) {
    VarScope.push_back(S);
    Scope = ++NextScope;
  }
  void bindRegion(uint32_t Id) {
    RegionScope.push_back(Id);
    Scope = ++NextScope;
  }
  void enterFrame() {
    VarBase = VarScope.size();
    RegionBase = RegionScope.size();
    Scope = ++NextScope;
  }

  /// The nearest binder of \p S in the current frame.
  uint32_t varSlot(Symbol S) {
    for (size_t I = VarScope.size(); I-- > VarBase;)
      if (VarScope[I] == S)
        return static_cast<uint32_t>(I - VarBase);
    fail("internal: unbound variable '" + std::string(Names.text(S)) + "'");
    return NoIndex;
  }

  /// The ref of static region \p Id in the current frame.
  uint32_t regionRef(uint32_t Id) {
    if (Id == 0)
      return GlobalRegionRef;
    for (size_t I = RegionScope.size(); I-- > RegionBase;)
      if (RegionScope[I] == Id)
        return static_cast<uint32_t>(I - RegionBase);
    fail("internal: unbound region r" + std::to_string(Id));
    return NoIndex;
  }

  /// An allocation site's ref and static id.
  void site(FlatNode &N, RegionVar Rho) {
    if (!Rho.isValid())
      return;
    N.X = regionRef(Rho.Id);
    N.Y = Rho.Id;
  }

  /// Flattens fn \p Fi's body once, in the frame its FlatFn fixes.
  void flattenBody(uint32_t Fi) {
    if (FnBodies[Fi] != NoIndex)
      return;
    const FnInfo &F = FP.Fns[Fi];
    Mark M = mark();
    enterFrame();
    for (Symbol S : F.Captures)
      bindVar(S);
    if (F.SelfName.isValid())
      bindVar(F.SelfName);
    bindVar(F.Param);
    for (uint32_t R : F.FreeRegions)
      bindRegion(R);
    for (uint32_t R : F.RuntimeFormals)
      bindRegion(R);
    FnBodies[Fi] = flatten(F.Body);
    restore(M);
  }

  //===--------------------------------------------------------------------===//
  // Types and nodes
  //===--------------------------------------------------------------------===//

  uint32_t flattenMu(const Mu *M) {
    if (!M)
      return NoIndex;
    auto It = MuIndex.find(M);
    if (It != MuIndex.end())
      return It->second;
    FlatMu FM;
    FM.Kind = static_cast<uint8_t>(M->K);
    if (M->K == Mu::Kind::Boxed)
      FM.T = flattenTau(M->T);
    uint32_t Id = static_cast<uint32_t>(U.Mus.size());
    U.Mus.push_back(FM);
    MuIndex.emplace(M, Id);
    return Id;
  }

  uint32_t flattenTau(const Tau *T) {
    auto It = TauIndex.find(T);
    if (It != TauIndex.end())
      return It->second;
    FlatTau FT;
    FT.Kind = static_cast<uint8_t>(T->K);
    // Only what rendering reads: pair/list/ref element types. Arrow
    // renders as "fn" without recursing, so its children stay absent.
    switch (T->K) {
    case Tau::Kind::Pair:
      FT.A = flattenMu(T->A);
      FT.B = flattenMu(T->B);
      break;
    case Tau::Kind::List:
    case Tau::Kind::Ref:
      FT.A = flattenMu(T->A);
      break;
    default:
      break;
    }
    uint32_t Id = static_cast<uint32_t>(U.Taus.size());
    U.Taus.push_back(FT);
    TauIndex.emplace(T, Id);
    return Id;
  }

  uint32_t flatten(const RExpr *E) {
    if (!E) {
      fail("internal: absent operand");
      return NoIndex;
    }
    // Substitution may share subtrees: flatten a node once per scope, so
    // the flat form keeps the DAG while every slot in it stays right.
    auto It = NodeIndex.find({E, Scope});
    if (It != NodeIndex.end())
      return It->second;

    FlatNode N;
    N.Kind = static_cast<uint8_t>(E->K);
    switch (E->K) {
    case RExpr::Kind::IntLit: {
      uint64_t V = static_cast<uint64_t>(E->IntValue);
      N.A = static_cast<uint32_t>(V);
      N.B = static_cast<uint32_t>(V >> 32);
      break;
    }
    case RExpr::Kind::BoolLit:
      N.A = E->BoolValue ? 1 : 0;
      break;
    case RExpr::Kind::StrE:
      N.A = stringId(E->StrValue);
      site(N, E->AtRho);
      break;
    case RExpr::Kind::Var:
      N.A = varSlot(E->Name);
      N.B = nameId(E->Name);
      break;
    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind: {
      // The closure site: captures and free regions resolved in the
      // defining frame, then the body in the function's own frame.
      uint32_t Fi = FP.FnIndex.at(E);
      const FnInfo &F = FP.Fns[Fi];
      N.A = Fi;
      N.B = static_cast<uint32_t>(U.Aux.size());
      for (Symbol S : F.Captures)
        U.Aux.push_back(varSlot(S));
      for (uint32_t R : F.FreeRegions)
        U.Aux.push_back(regionRef(R));
      site(N, E->AtRho);
      flattenBody(Fi);
      break;
    }
    case RExpr::Kind::Let: {
      N.A = flatten(E->A);
      Mark M = mark();
      bindVar(E->Name);
      N.B = flatten(E->B);
      restore(M);
      N.C = nameId(E->Name);
      break;
    }
    case RExpr::Kind::RApp: {
      const auto &Args = FP.RAppArgs.at(E);
      N.A = flatten(E->A);
      N.B = static_cast<uint32_t>(U.Aux.size());
      N.C = static_cast<uint32_t>(Args.size());
      for (const auto &[Formal, Target] : Args) {
        U.Aux.push_back(Formal);
        U.Aux.push_back(Target);
        U.Aux.push_back(regionRef(Target));
      }
      site(N, E->AtRho);
      break;
    }
    case RExpr::Kind::LetRegion: {
      uint32_t Id = E->BoundRho.Id;
      Mark M = mark();
      bindRegion(Id);
      N.A = flatten(E->A);
      restore(M);
      N.B = static_cast<uint32_t>(
          std::lower_bound(U.Regions.begin(), U.Regions.end(), Id,
                           [](const FlatRegion &R, uint32_t Id) {
                             return R.Id < Id;
                           }) -
          U.Regions.begin());
      N.C = Id;
      break;
    }
    case RExpr::Kind::Sel:
      N.Sub = static_cast<uint8_t>(E->SelIndex);
      N.A = flatten(E->A);
      break;
    case RExpr::Kind::BinOp:
      N.Sub = static_cast<uint8_t>(E->Op);
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      site(N, E->AtRho); // Concat allocates
      break;
    case RExpr::Kind::ListCase: {
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      Mark M = mark();
      bindVar(E->HeadName);
      bindVar(E->TailName);
      N.C = flatten(E->C);
      restore(M);
      N.X = nameId(E->HeadName);
      N.Y = nameId(E->TailName);
      break;
    }
    case RExpr::Kind::Seq: {
      N.B = static_cast<uint32_t>(U.Aux.size());
      N.C = static_cast<uint32_t>(E->Items.size());
      // Reserve the span before recursing: nested Seqs interleave
      // their own entries otherwise.
      size_t Base = U.Aux.size();
      U.Aux.resize(Base + E->Items.size(), NoIndex);
      for (size_t I = 0; I < E->Items.size(); ++I) {
        uint32_t Item = flatten(E->Items[I]);
        U.Aux[Base + I] = Item;
      }
      break;
    }
    case RExpr::Kind::Handle: {
      N.A = flatten(E->A);
      Mark M = mark();
      if (E->BindName.isValid())
        bindVar(E->BindName);
      N.B = flatten(E->B);
      restore(M);
      N.C = E->ExnName.isValid() ? exnIdOf(E->ExnName) : NoIndex;
      N.X = nameId(E->BindName);
      break;
    }
    case RExpr::Kind::ExnConE:
      N.A = E->A ? flatten(E->A) : NoIndex;
      N.B = exnIdOf(E->ExnName);
      break;
    case RExpr::Kind::Prim:
      N.Sub = static_cast<uint8_t>(E->PrimK);
      N.A = flatten(E->A);
      site(N, E->AtRho); // Itos allocates
      break;
    case RExpr::Kind::PairE:
    case RExpr::Kind::ConsE:
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      site(N, E->AtRho);
      break;
    case RExpr::Kind::RefE:
      N.A = flatten(E->A);
      site(N, E->AtRho);
      break;
    case RExpr::Kind::App:
    case RExpr::Kind::Assign:
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      break;
    case RExpr::Kind::If:
      N.A = flatten(E->A);
      N.B = flatten(E->B);
      N.C = flatten(E->C);
      break;
    case RExpr::Kind::Deref:
    case RExpr::Kind::Raise:
      N.A = flatten(E->A);
      break;
    default:
      // UnitLit/NilVal (no payload) and the value forms the evaluator
      // rejects at runtime.
      break;
    }

    uint32_t Id = static_cast<uint32_t>(U.Nodes.size());
    U.Nodes.push_back(N);
    NodeIndex.emplace(NodeKey{E, Scope}, Id);
    return Id;
  }

  struct NodeKey {
    const RExpr *E;
    uint32_t Scope;
    bool operator==(const NodeKey &O) const {
      return E == O.E && Scope == O.Scope;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey &K) const {
      return std::hash<const void *>()(K.E) ^ (size_t{K.Scope} << 1);
    }
  };

  const FnPass &FP;
  const MultiplicityInfo &Mult;
  const RegionKindInfo &Kinds;
  const Interner &Names;
  FlatUnit U;
  std::string Error;
  std::vector<uint32_t> FnBodies;
  std::vector<Symbol> VarScope;
  std::vector<uint32_t> RegionScope;
  size_t VarBase = 0, RegionBase = 0;
  /// Identifies the current scope: every binder and frame entry takes a
  /// fresh id and every restore returns to the saved one, so two visits
  /// share an id exactly when they see the same binders.
  uint32_t Scope = 0, NextScope = 0;
  std::unordered_map<NodeKey, uint32_t, NodeKeyHash> NodeIndex;
  std::unordered_map<const Mu *, uint32_t> MuIndex;
  std::unordered_map<const Tau *, uint32_t> TauIndex;
  std::unordered_map<std::string, uint32_t> StringIndex;
};

} // namespace

FlatUnit rml::flat::flattenProgram(const RProgram &P, const Mu *RootMu,
                                   const MultiplicityInfo &Mult,
                                   const RegionKindInfo &Kinds,
                                   const DropInfo &Drops,
                                   const Interner &Names, Strategy Strat,
                                   const CaptureInfo *Caps,
                                   std::string *Error) {
  FnPass FP(Drops);
  FP.run(P);
  Flattener F(FP, Mult, Kinds, Names);
  std::string Problem;
  FlatUnit U = F.take(P, RootMu, Strat, Caps, Problem);
  if (Error)
    *Error = std::move(Problem);
  return U;
}

std::string rml::flat::renderCaptureReport(const FlatUnit &U) {
  if (!U.HasCaptures)
    return "";
  std::vector<CaptureReportRow> Rows;
  Rows.reserve(U.Caps.size());
  for (size_t I = 0; I < U.Caps.size(); ++I) {
    const FlatFn &F = U.Fns[I];
    const FlatCapture &C = U.Caps[I];
    CaptureReportRow R;
    R.IsFun = F.Self != NoIndex;
    if (F.Self != NoIndex)
      R.Self = std::string(U.str(F.Self));
    if (F.Param != NoIndex)
      R.Param = std::string(U.str(F.Param));
    R.ViaValue.assign(U.Aux.begin() + C.ValueBegin,
                      U.Aux.begin() + C.ValueBegin + C.ValueCount);
    R.ViaEffect.assign(U.Aux.begin() + C.EffectBegin,
                       U.Aux.begin() + C.EffectBegin + C.EffectCount);
    Rows.push_back(std::move(R));
  }
  return rml::renderCaptureReport(static_cast<Strategy>(U.Strat), Rows);
}

//===----------------------------------------------------------------------===//
// Serialisation
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[8] = {'R', 'M', 'L', 'F', 'L', 'A', 'T', '1'};
/// v2 added the HasCaptures flag and the Caps table; v3 resolved every
/// variable and region to a frame slot and packed each node into one
/// 24-byte record. Older bytes are version-rejected (the disk cache
/// degrades that to a counted miss).
constexpr uint32_t FlatVersion = 3;

uint64_t fnv1a(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

void putU8(std::string &B, uint8_t V) { B.push_back(static_cast<char>(V)); }
void putU32(std::string &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}
void putU64(std::string &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

/// Bounds-checked little-endian reader; any overrun latches Ok=false
/// and subsequent reads return zeros.
struct Reader {
  std::string_view Bytes;
  size_t Pos = 0;
  bool Ok = true;

  bool take(void *Out, size_t N) {
    if (!Ok || Bytes.size() - Pos < N) {
      Ok = false;
      return false;
    }
    std::memcpy(Out, Bytes.data() + Pos, N);
    Pos += N;
    return true;
  }
  uint8_t u8() {
    uint8_t V = 0;
    take(&V, 1);
    return V;
  }
  uint32_t u32() {
    unsigned char Buf[4] = {};
    take(Buf, 4);
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Buf[I]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    unsigned char Buf[8] = {};
    take(Buf, 8);
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Buf[I]) << (8 * I);
    return V;
  }
  size_t remaining() const { return Ok ? Bytes.size() - Pos : 0; }
  /// A table of \p N elements of at least \p ElemBytes each must fit in
  /// the remaining input — rejects absurd counts before any resize.
  bool fits(uint64_t N, size_t ElemBytes) const {
    return Ok && N <= remaining() / ElemBytes;
  }
  bool done() const { return Ok && Pos == Bytes.size(); }
};

/// Nodes and Aux travel as raw little-endian images of their in-memory
/// arrays: the node record is laid out to be its own encoding.
static_assert(std::endian::native == std::endian::little,
              "the flat encoding is the in-memory image of a "
              "little-endian host");
static_assert(std::is_trivially_copyable_v<FlatNode> &&
                  sizeof(FlatNode) == 24,
              "FlatNode is a padding-free 24-byte record");

template <typename T> void putArray(std::string &B, const std::vector<T> &V) {
  putU64(B, V.size());
  if (!V.empty())
    B.append(reinterpret_cast<const char *>(V.data()), V.size() * sizeof(T));
}

template <typename T> bool takeArray(Reader &R, std::vector<T> &V) {
  uint64_t N = R.u64();
  if (!R.fits(N, sizeof(T)))
    return false;
  V.resize(N);
  return N == 0 || R.take(V.data(), N * sizeof(T));
}

constexpr size_t FnBytes = 9 * 4;
constexpr size_t CapBytes = 4 * 4;
constexpr size_t MuBytes = 1 + 4;
constexpr size_t TauBytes = 1 + 2 * 4;
constexpr size_t RegionBytes = 4 + 1 + 1 + 4;

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

bool spanOk(uint32_t Begin, uint64_t Count, size_t Limit) {
  return static_cast<uint64_t>(Begin) + Count <= Limit;
}

bool strOk(uint32_t Id, const FlatUnit &U) {
  return Id == NoIndex || Id < U.StringSpans.size();
}

/// The scoped walk: from Root in the empty frame and from each fn body
/// in the frame its FlatFn fixes, every node is checked once at the
/// frame depths it is reached with. A slot or region ref at or beyond
/// its depth, a child cycle, or a node reached at two different depths
/// fails the unit — so the evaluator can index frames unchecked.
class ScopedWalk {
public:
  explicit ScopedWalk(const FlatUnit &U)
      : U(U), Seen(U.Nodes.size()) {}

  bool run() {
    if (!visit(U.Root, 0, 0))
      return false;
    for (const FlatFn &F : U.Fns)
      if (!visit(F.Body, F.varFrame(), F.regionFrame()))
        return false;
    return true;
  }

private:
  struct State {
    uint32_t Vars = 0, Regions = 0;
    uint8_t Mark = 0; ///< 0 unseen, 1 on the current path, 2 done
  };
  struct Item {
    uint32_t Node, Vars, Regions;
    bool Exit;
  };

  bool node(uint32_t I) const { return I < U.Nodes.size(); }
  static bool ref(uint32_t R, uint32_t Regions) {
    return R == GlobalRegionRef || R < Regions;
  }

  bool visit(uint32_t Root, uint32_t Vars, uint32_t Regions) {
    Stack.clear();
    Stack.push_back({Root, Vars, Regions, false});
    while (!Stack.empty()) {
      Item It = Stack.back();
      Stack.pop_back();
      if (It.Exit) {
        Seen[It.Node].Mark = 2;
        continue;
      }
      if (!node(It.Node))
        return false;
      State &S = Seen[It.Node];
      if (S.Mark == 1)
        return false; // a cycle
      if (S.Mark == 2) {
        if (S.Vars != It.Vars || S.Regions != It.Regions)
          return false; // one node, two frame depths
        continue;
      }
      S = {It.Vars, It.Regions, 1};
      Stack.push_back({It.Node, 0, 0, true});
      if (!check(U.Nodes[It.Node], It.Vars, It.Regions))
        return false;
    }
    return true;
  }

  void child(uint32_t I, uint32_t Vars, uint32_t Regions) {
    Stack.push_back({I, Vars, Regions, false});
  }

  /// Checks \p N's operands at depths (\p V, \p R) and queues its
  /// children at theirs.
  bool check(const FlatNode &N, uint32_t V, uint32_t R) {
    if (N.Kind > static_cast<uint8_t>(RExpr::Kind::Prim) || N.Pad != 0)
      return false;
    auto Kind = static_cast<RExpr::Kind>(N.Kind);
    uint8_t MaxSub = 0;
    if (Kind == RExpr::Kind::BinOp)
      MaxSub = static_cast<uint8_t>(BinOpKind::StrEq);
    else if (Kind == RExpr::Kind::Prim)
      MaxSub = static_cast<uint8_t>(Expr::PrimKind::Global);
    if (Kind == RExpr::Kind::Sel ? N.Sub != 1 && N.Sub != 2 : N.Sub > MaxSub)
      return false;
    switch (Kind) {
    case RExpr::Kind::StrE:
      return N.A < U.StringSpans.size() && ref(N.X, R);
    case RExpr::Kind::Var:
      return N.A < V && strOk(N.B, U);
    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind: {
      if (N.A >= U.Fns.size() || !ref(N.X, R))
        return false;
      const FlatFn &F = U.Fns[N.A];
      uint64_t Caps = F.CapturesCount, Frees = F.FreeRegionsCount;
      if (!spanOk(N.B, Caps + Frees, U.Aux.size()))
        return false;
      for (uint64_t I = 0; I < Caps; ++I)
        if (U.Aux[N.B + I] >= V)
          return false;
      for (uint64_t I = 0; I < Frees; ++I)
        if (!ref(U.Aux[N.B + Caps + I], R))
          return false;
      return true;
    }
    case RExpr::Kind::Let:
      child(N.A, V, R);
      child(N.B, V + 1, R);
      return strOk(N.C, U);
    case RExpr::Kind::RApp:
      if (!spanOk(N.B, 3 * uint64_t{N.C}, U.Aux.size()) || !ref(N.X, R))
        return false;
      for (uint32_t I = 0; I < N.C; ++I)
        if (!ref(U.Aux[N.B + 3 * I + 2], R))
          return false;
      child(N.A, V, R);
      return true;
    case RExpr::Kind::LetRegion:
      child(N.A, V, R + 1);
      return N.B < U.Regions.size() && U.Regions[N.B].Id == N.C;
    case RExpr::Kind::BinOp:
      child(N.A, V, R);
      child(N.B, V, R);
      return N.Sub != static_cast<uint8_t>(BinOpKind::Concat) || ref(N.X, R);
    case RExpr::Kind::Prim:
      child(N.A, V, R);
      return N.Sub != static_cast<uint8_t>(Expr::PrimKind::Itos) ||
             ref(N.X, R);
    case RExpr::Kind::ListCase:
      child(N.A, V, R);
      child(N.B, V, R);
      child(N.C, V + 2, R);
      return strOk(N.X, U) && strOk(N.Y, U);
    case RExpr::Kind::Seq:
      if (!spanOk(N.B, N.C, U.Aux.size()))
        return false;
      for (uint32_t I = 0; I < N.C; ++I)
        child(U.Aux[N.B + I], V, R);
      return true;
    case RExpr::Kind::Handle:
      child(N.A, V, R);
      child(N.B, V + (N.X != NoIndex ? 1 : 0), R);
      return strOk(N.X, U);
    case RExpr::Kind::ExnConE:
      if (N.A != NoIndex)
        child(N.A, V, R);
      return true;
    case RExpr::Kind::PairE:
    case RExpr::Kind::ConsE:
      child(N.A, V, R);
      child(N.B, V, R);
      return ref(N.X, R);
    case RExpr::Kind::RefE:
      child(N.A, V, R);
      return ref(N.X, R);
    case RExpr::Kind::App:
    case RExpr::Kind::Assign:
      child(N.A, V, R);
      child(N.B, V, R);
      return true;
    case RExpr::Kind::If:
      child(N.A, V, R);
      child(N.B, V, R);
      child(N.C, V, R);
      return true;
    case RExpr::Kind::Sel:
    case RExpr::Kind::Deref:
    case RExpr::Kind::Raise:
      child(N.A, V, R);
      return true;
    default:
      return true; // literals, unit, nil, value forms: no operands read
    }
  }

  const FlatUnit &U;
  std::vector<State> Seen;
  std::vector<Item> Stack;
};

/// Full structural validation: every cross-reference lands inside its
/// table and every slot inside its frame, so the interpreter can index
/// without bounds checks.
bool validate(const FlatUnit &U) {
  if (U.Strat > static_cast<uint8_t>(Strategy::R))
    return false;
  if (U.HasCaptures > 1)
    return false;
  // The capture table is all-or-nothing: parallel to Fns when the flag
  // is set, absent when it is not.
  if (U.Caps.size() != (U.HasCaptures ? U.Fns.size() : 0))
    return false;
  if (U.RootMu != NoIndex && U.RootMu >= U.Mus.size())
    return false;

  for (const FlatFn &F : U.Fns) {
    if (!strOk(F.Param, U) || !strOk(F.Self, U))
      return false;
    if (!spanOk(F.CapturesBegin, F.CapturesCount, U.Aux.size()) ||
        !spanOk(F.FreeRegionsBegin, F.FreeRegionsCount, U.Aux.size()) ||
        !spanOk(F.FormalsBegin, F.FormalsCount, U.Aux.size()))
      return false;
    for (uint32_t I = 0; I < F.CapturesCount; ++I)
      if (U.Aux[F.CapturesBegin + I] >= U.StringSpans.size())
        return false;
  }

  for (const FlatCapture &C : U.Caps)
    if (!spanOk(C.ValueBegin, C.ValueCount, U.Aux.size()) ||
        !spanOk(C.EffectBegin, C.EffectCount, U.Aux.size()))
      return false;

  for (const FlatMu &M : U.Mus) {
    if (M.Kind > static_cast<uint8_t>(Mu::Kind::Boxed))
      return false;
    if (M.T != NoIndex && M.T >= U.Taus.size())
      return false;
    if (M.Kind == static_cast<uint8_t>(Mu::Kind::Boxed) && M.T == NoIndex)
      return false;
  }
  for (const FlatTau &T : U.Taus) {
    if (T.Kind > static_cast<uint8_t>(Tau::Kind::Exn))
      return false;
    if (T.A != NoIndex && T.A >= U.Mus.size())
      return false;
    if (T.B != NoIndex && T.B >= U.Mus.size())
      return false;
  }

  // Strictly ascending, starting with the global region the runtime
  // reads as Regions[0].
  if (U.Regions.empty() || U.Regions[0].Id != 0)
    return false;
  for (size_t I = 0; I < U.Regions.size(); ++I) {
    if (U.Regions[I].Kind > static_cast<uint8_t>(RegionKind::Mixed))
      return false;
    if (I != 0 && U.Regions[I - 1].Id >= U.Regions[I].Id)
      return false;
  }

  for (uint32_t S : U.ExnNames)
    if (S >= U.StringSpans.size())
      return false;

  return ScopedWalk(U).run();
}

} // namespace

std::string rml::flat::encodeFlat(const FlatUnit &U) {
  std::string Body;
  Body.reserve(64 + U.Nodes.size() * sizeof(FlatNode) + U.Aux.size() * 4 +
               U.Fns.size() * FnBytes + U.StringBlob.size() +
               U.StringSpans.size() * 4);
  putU8(Body, U.Strat);
  putU8(Body, U.HasCaptures);
  putU32(Body, U.Root);
  putU32(Body, U.RootMu);
  putArray(Body, U.Nodes);
  putU64(Body, U.Fns.size());
  for (const FlatFn &F : U.Fns) {
    putU32(Body, F.Body);
    putU32(Body, F.Param);
    putU32(Body, F.Self);
    putU32(Body, F.CapturesBegin);
    putU32(Body, F.CapturesCount);
    putU32(Body, F.FreeRegionsBegin);
    putU32(Body, F.FreeRegionsCount);
    putU32(Body, F.FormalsBegin);
    putU32(Body, F.FormalsCount);
  }
  putU64(Body, U.Caps.size());
  for (const FlatCapture &C : U.Caps) {
    putU32(Body, C.ValueBegin);
    putU32(Body, C.ValueCount);
    putU32(Body, C.EffectBegin);
    putU32(Body, C.EffectCount);
  }
  putArray(Body, U.Aux);
  putU64(Body, U.Mus.size());
  for (const FlatMu &M : U.Mus) {
    putU8(Body, M.Kind);
    putU32(Body, M.T);
  }
  putU64(Body, U.Taus.size());
  for (const FlatTau &T : U.Taus) {
    putU8(Body, T.Kind);
    putU32(Body, T.A);
    putU32(Body, T.B);
  }
  putU64(Body, U.Regions.size());
  for (const FlatRegion &R : U.Regions) {
    putU32(Body, R.Id);
    putU8(Body, R.Kind);
    putU8(Body, R.Finite);
    putU32(Body, R.Words);
  }
  putArray(Body, U.ExnNames);
  // String section: lengths in table order, then the blob. Spans are
  // contiguous and ascending (the flattener appends), so the blob *is*
  // the concatenation — decode rebuilds identical offsets.
  putU64(Body, U.StringSpans.size());
  for (const auto &[Off, Len] : U.StringSpans)
    putU32(Body, Len);
  putU64(Body, U.StringBlob.size());
  Body += U.StringBlob;

  std::string Out;
  Out.reserve(sizeof(Magic) + 12 + Body.size());
  Out.append(Magic, sizeof(Magic));
  putU32(Out, FlatVersion);
  putU64(Out, fnv1a(Body));
  Out += Body;
  return Out;
}

std::shared_ptr<const FlatUnit> rml::flat::decodeFlat(std::string_view Bytes) {
  constexpr size_t HeaderBytes = sizeof(Magic) + 4 + 8;
  if (Bytes.size() < HeaderBytes)
    return nullptr;
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return nullptr;
  Reader H{Bytes.substr(sizeof(Magic))};
  if (H.u32() != FlatVersion)
    return nullptr;
  uint64_t WantHash = H.u64();
  std::string_view BodyBytes = Bytes.substr(HeaderBytes);
  // The checksum turns arbitrary in-body corruption (bit flips,
  // truncation mid-field) into a deterministic reject before any
  // structural parsing happens.
  if (fnv1a(BodyBytes) != WantHash)
    return nullptr;

  Reader R{BodyBytes};
  auto U = std::make_shared<FlatUnit>();
  U->Strat = R.u8();
  U->HasCaptures = R.u8();
  U->Root = R.u32();
  U->RootMu = R.u32();

  if (!takeArray(R, U->Nodes))
    return nullptr;

  uint64_t NumFns = R.u64();
  if (!R.fits(NumFns, FnBytes))
    return nullptr;
  U->Fns.reserve(NumFns);
  for (uint64_t I = 0; I < NumFns && R.Ok; ++I) {
    FlatFn F;
    F.Body = R.u32();
    F.Param = R.u32();
    F.Self = R.u32();
    F.CapturesBegin = R.u32();
    F.CapturesCount = R.u32();
    F.FreeRegionsBegin = R.u32();
    F.FreeRegionsCount = R.u32();
    F.FormalsBegin = R.u32();
    F.FormalsCount = R.u32();
    U->Fns.push_back(F);
  }

  uint64_t NumCaps = R.u64();
  if (!R.fits(NumCaps, CapBytes))
    return nullptr;
  U->Caps.reserve(NumCaps);
  for (uint64_t I = 0; I < NumCaps && R.Ok; ++I) {
    FlatCapture C;
    C.ValueBegin = R.u32();
    C.ValueCount = R.u32();
    C.EffectBegin = R.u32();
    C.EffectCount = R.u32();
    U->Caps.push_back(C);
  }

  if (!takeArray(R, U->Aux))
    return nullptr;

  uint64_t NumMus = R.u64();
  if (!R.fits(NumMus, MuBytes))
    return nullptr;
  U->Mus.reserve(NumMus);
  for (uint64_t I = 0; I < NumMus && R.Ok; ++I) {
    FlatMu M;
    M.Kind = R.u8();
    M.T = R.u32();
    U->Mus.push_back(M);
  }

  uint64_t NumTaus = R.u64();
  if (!R.fits(NumTaus, TauBytes))
    return nullptr;
  U->Taus.reserve(NumTaus);
  for (uint64_t I = 0; I < NumTaus && R.Ok; ++I) {
    FlatTau T;
    T.Kind = R.u8();
    T.A = R.u32();
    T.B = R.u32();
    U->Taus.push_back(T);
  }

  uint64_t NumRegions = R.u64();
  if (!R.fits(NumRegions, RegionBytes))
    return nullptr;
  U->Regions.reserve(NumRegions);
  for (uint64_t I = 0; I < NumRegions && R.Ok; ++I) {
    FlatRegion G;
    G.Id = R.u32();
    G.Kind = R.u8();
    G.Finite = R.u8();
    G.Words = R.u32();
    U->Regions.push_back(G);
  }

  if (!takeArray(R, U->ExnNames))
    return nullptr;

  uint64_t NumStrings = R.u64();
  if (!R.fits(NumStrings, 4))
    return nullptr;
  std::vector<uint32_t> Lens;
  Lens.reserve(NumStrings);
  for (uint64_t I = 0; I < NumStrings && R.Ok; ++I)
    Lens.push_back(R.u32());
  uint64_t BlobLen = R.u64();
  if (!R.Ok || BlobLen > R.remaining())
    return nullptr;
  U->StringBlob.assign(BodyBytes.data() + R.Pos, BlobLen);
  R.Pos += BlobLen;
  // Rebuild the span table; the declared lengths must tile the blob
  // exactly (a section-length overrun fails here).
  uint64_t Off = 0;
  U->StringSpans.reserve(Lens.size());
  for (uint32_t L : Lens) {
    if (Off + L > BlobLen)
      return nullptr;
    U->StringSpans.emplace_back(static_cast<uint32_t>(Off), L);
    Off += L;
  }
  if (Off != BlobLen)
    return nullptr;

  // No trailing bytes, no short reads, and every index in range.
  if (!R.done())
    return nullptr;
  if (!validate(*U))
    return nullptr;
  return U;
}
