//===- flat/Flat.cpp ------------------------------------------------------===//

#include "flat/Flat.h"

#include "support/Checksum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
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
  std::span<const Symbol> Captures; // the node's free variables
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
    Free = &P.FreeVars;
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
      F.Captures = Free->of(E);
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
      F.Captures = Free->of(E);
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
  const FreeVarTable *Free = nullptr;
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

  FlatBuilder take(const RProgram &P, const Mu *RootMu,
                   const CompileOptions &Opts, const CaptureInfo *Caps,
                   std::string &ErrorOut) {
    U.Options = encodeOptions(Opts);
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
    // own pre-order, so entry i annotates Fns[i]. A missing or
    // mismatched table (impossible through the pipeline; conceivable for
    // hand-built inputs) fails the unit rather than misattribute.
    if (Opts.Captures != (Caps != nullptr) ||
        (Caps && Caps->Closures.size() != U.Fns.size()))
      fail("internal: the capture table does not match the closures");
    else if (Caps) {
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
    auto It = StringIndex.find(S);
    if (It != StringIndex.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(U.StringEnds.size());
    U.Blob.append(S);
    U.StringEnds.push_back(static_cast<uint32_t>(U.Blob.size()));
    StringIndex.emplace(S, Id);
    return Id;
  }

  /// A name's string id, looked up once per symbol.
  uint32_t nameId(Symbol S) {
    if (!S.isValid())
      return NoIndex;
    if (S.Id >= NameIds.size())
      NameIds.resize(S.Id + 1, NoIndex);
    uint32_t &Id = NameIds[S.Id];
    if (Id == NoIndex)
      Id = stringId(Names.text(S));
    return Id;
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
  FlatBuilder U;
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
  /// Hashes views and strings alike, so a lookup allocates nothing.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
      StringIndex;
  std::vector<uint32_t> NameIds; // by Symbol::Id; NoIndex until looked up
};

} // namespace

FlatUnit rml::flat::flattenProgram(const RProgram &P, const Mu *RootMu,
                                   const MultiplicityInfo &Mult,
                                   const RegionKindInfo &Kinds,
                                   const DropInfo &Drops,
                                   const Interner &Names,
                                   const CompileOptions &Opts,
                                   const CaptureInfo *Caps,
                                   std::string *Error) {
  FnPass FP(Drops);
  FP.run(P);
  Flattener F(FP, Mult, Kinds, Names);
  std::string Problem;
  FlatUnit U = F.take(P, RootMu, Opts, Caps, Problem).freeze();
  if (Error)
    *Error = std::move(Problem);
  return U;
}

std::string rml::flat::renderCaptureReport(const FlatUnit &U) {
  if (!U.hasCaptures())
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
  return rml::renderCaptureReport(U.strat(), Rows);
}

//===----------------------------------------------------------------------===//
// The image
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[8] = {'R', 'M', 'L', 'F', 'L', 'A', 'T', '1'};
/// v2 added the HasCaptures flag and the Caps table; v3 resolved every
/// variable and region to a frame slot and packed each node into one
/// 24-byte record; v4 made the encoding the unit's in-memory image
/// (header, section table, aligned fixed-size records) and replaced the
/// strategy and captures bytes with the option bytes. Older bytes
/// are version-rejected (the disk cache degrades that to a counted
/// miss).
constexpr uint32_t FlatVersion = 4;

// The image is the in-memory layout of these records on a little-endian
// host; each must be padding-free so its bytes are fully determined.
static_assert(std::endian::native == std::endian::little,
              "a flat image is the in-memory layout of a little-endian host");
template <typename T>
constexpr bool IsRecord = std::is_trivially_copyable_v<T> &&
                          std::has_unique_object_representations_v<T> &&
                          alignof(T) <= 8;
static_assert(IsRecord<FlatNode> && sizeof(FlatNode) == 24);
static_assert(IsRecord<FlatFn> && sizeof(FlatFn) == 36);
static_assert(IsRecord<FlatCapture> && sizeof(FlatCapture) == 16);
static_assert(IsRecord<FlatMu> && sizeof(FlatMu) == 8);
static_assert(IsRecord<FlatTau> && sizeof(FlatTau) == 12);
static_assert(IsRecord<FlatRegion> && sizeof(FlatRegion) == 12);
static_assert(IsRecord<ImageHeader> && sizeof(ImageHeader) == 120);
static_assert(offsetof(ImageHeader, Options) == ImageHeader::ChecksumFrom);
static_assert(std::tuple_size_v<OptionBytes> <= sizeof(ImageHeader::Options),
              "the option bytes fit the header's option field");

/// Record size of each section, in Section order.
constexpr size_t RecordBytes[NumSections] = {
    sizeof(FlatNode), sizeof(FlatFn),  sizeof(FlatCapture), 4,
    sizeof(FlatMu),   sizeof(FlatTau), sizeof(FlatRegion),  4,
    4,                1};

constexpr uint64_t align8(uint64_t N) { return (N + 7) & ~uint64_t{7}; }

/// The canonical layout: fills each section's offset from the counts
/// and returns the image size.
uint64_t layOut(ImageHeader &H) {
  uint64_t At = sizeof(ImageHeader);
  for (uint32_t S = 0; S < NumSections; ++S) {
    H.Sections[S].Offset = static_cast<uint32_t>(At);
    At = align8(At + uint64_t{H.Sections[S].Count} * RecordBytes[S]);
  }
  return At;
}

/// Storage for an image, aligned for every record. Copying bytes into
/// allocated storage begins the lifetime of the trivially copyable
/// records they represent, so the section spans read real objects.
std::shared_ptr<unsigned char> allocImage(size_t Bytes) {
  constexpr std::align_val_t Align{alignof(uint64_t)};
  auto *P = static_cast<unsigned char *>(::operator new(Bytes, Align));
  return std::shared_ptr<unsigned char>(
      P, [Align](unsigned char *Q) { ::operator delete(Q, Align); });
}

template <typename T>
std::span<const T> sectionOf(const unsigned char *Img, const ImageHeader &H,
                             Section S) {
  const auto &E = H.Sections[static_cast<uint32_t>(S)];
  return {reinterpret_cast<const T *>(Img + E.Offset), E.Count};
}

} // namespace

void FlatUnit::attach(std::shared_ptr<const unsigned char> Img,
                      size_t Bytes) {
  ImageHeader H;
  std::memcpy(&H, Img.get(), sizeof(H));
  const unsigned char *P = Img.get();
  std::memcpy(Options.data(), H.Options, Options.size());
  Root = H.Root;
  RootMu = H.RootMu;
  Nodes = sectionOf<FlatNode>(P, H, Section::Nodes);
  Fns = sectionOf<FlatFn>(P, H, Section::Fns);
  Caps = sectionOf<FlatCapture>(P, H, Section::Caps);
  Aux = sectionOf<uint32_t>(P, H, Section::Aux);
  Mus = sectionOf<FlatMu>(P, H, Section::Mus);
  Taus = sectionOf<FlatTau>(P, H, Section::Taus);
  Regions = sectionOf<FlatRegion>(P, H, Section::Regions);
  ExnNames = sectionOf<uint32_t>(P, H, Section::ExnNames);
  StringEnds = sectionOf<uint32_t>(P, H, Section::StringEnds);
  std::span<const char> B = sectionOf<char>(P, H, Section::Blob);
  Blob = std::string_view(B.data(), B.size());
  Image = std::move(Img);
  Size = Bytes;
}

FlatBuilder::FlatBuilder(const FlatUnit &U)
    : Options(U.optionBytes()), Root(U.Root), RootMu(U.RootMu),
      Nodes(U.Nodes.begin(), U.Nodes.end()),
      Fns(U.Fns.begin(), U.Fns.end()), Caps(U.Caps.begin(), U.Caps.end()),
      Aux(U.Aux.begin(), U.Aux.end()), Mus(U.Mus.begin(), U.Mus.end()),
      Taus(U.Taus.begin(), U.Taus.end()),
      Regions(U.Regions.begin(), U.Regions.end()),
      ExnNames(U.ExnNames.begin(), U.ExnNames.end()),
      StringEnds(U.StringEnds.begin(), U.StringEnds.end()), Blob(U.Blob) {}

FlatUnit FlatBuilder::freeze() const {
  ImageHeader H;
  std::memset(&H, 0, sizeof(H));
  std::memcpy(H.Magic, Magic, sizeof(Magic));
  H.Version = FlatVersion;
  std::memcpy(H.Options, Options.data(), Options.size());
  H.Root = Root;
  H.RootMu = RootMu;
  struct Part {
    const void *Data;
    size_t Count;
  };
  const Part Parts[NumSections] = {
      {Nodes.data(), Nodes.size()},       {Fns.data(), Fns.size()},
      {Caps.data(), Caps.size()},         {Aux.data(), Aux.size()},
      {Mus.data(), Mus.size()},           {Taus.data(), Taus.size()},
      {Regions.data(), Regions.size()},   {ExnNames.data(), ExnNames.size()},
      {StringEnds.data(), StringEnds.size()}, {Blob.data(), Blob.size()}};
  for (uint32_t S = 0; S < NumSections; ++S)
    H.Sections[S].Count = static_cast<uint32_t>(Parts[S].Count);
  size_t Size = layOut(H);

  std::shared_ptr<unsigned char> Img = allocImage(Size);
  unsigned char *P = Img.get();
  std::memset(P, 0, Size); // the padding between sections
  for (uint32_t S = 0; S < NumSections; ++S)
    if (Parts[S].Count)
      std::memcpy(P + H.Sections[S].Offset, Parts[S].Data,
                  Parts[S].Count * RecordBytes[S]);
  std::memcpy(P, &H, sizeof(H));
  H.Checksum = wordChecksum(
      std::string_view(reinterpret_cast<const char *>(P), Size)
          .substr(ImageHeader::ChecksumFrom));
  std::memcpy(P + offsetof(ImageHeader, Checksum), &H.Checksum,
              sizeof(H.Checksum));

  FlatUnit U;
  U.attach(std::move(Img), Size);
  return U;
}

std::string rml::flat::encodeFlat(const FlatUnit &U) {
  return std::string(U.bytes());
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

namespace {

bool spanOk(uint32_t Begin, uint64_t Count, size_t Limit) {
  return static_cast<uint64_t>(Begin) + Count <= Limit;
}

bool strOk(uint32_t Id, const FlatUnit &U) {
  return Id == NoIndex || Id < U.numStrings();
}

/// The header and the section table: the fixed fields, the option
/// bytes, and every section at its canonical offset inside the image
/// with zero padding after it. An overlapping, misaligned, reordered or
/// past-the-end section therefore never gets this far.
bool imageOk(const unsigned char *Img, size_t Size) {
  ImageHeader H;
  std::memcpy(&H, Img, sizeof(H));
  if (H.Pad0 != 0)
    return false;
  OptionBytes Opts;
  std::memcpy(Opts.data(), H.Options, Opts.size());
  if (!decodeOptions(Opts))
    return false;
  for (size_t I = Opts.size(); I < sizeof(H.Options); ++I)
    if (H.Options[I] != 0)
      return false;
  ImageHeader Want = H;
  if (layOut(Want) != Size)
    return false;
  for (uint32_t S = 0; S < NumSections; ++S) {
    if (Want.Sections[S].Offset != H.Sections[S].Offset)
      return false;
    uint64_t End = H.Sections[S].Offset +
                   uint64_t{H.Sections[S].Count} * RecordBytes[S];
    for (uint64_t I = End; I < align8(End); ++I)
      if (Img[I] != 0)
        return false;
  }
  return true;
}

/// The scoped walk, as one descending pass. Children precede their
/// parents in the node table (the flattener appends a node after its
/// operands, and a memoized operand is older still), and a child at or
/// above its parent fails the unit, so the table is acyclic by
/// construction. Visiting nodes from the highest index down therefore
/// meets every parent before its children: Root starts in the empty
/// frame and each fn body in the frame its FlatFn fixes, every reached
/// node is checked once at the frame depths it was handed, and hands
/// its children theirs. A slot or region ref at or beyond its depth, or
/// a node handed two different depths, fails the unit — so the
/// evaluator can index frames unchecked. Nodes nothing reaches are never
/// run and not checked.
class ScopedWalk {
public:
  explicit ScopedWalk(const FlatUnit &U) : U(U), Depths(U.Nodes.size()) {}

  bool run() {
    if (!enter(U.Root, 0, 0))
      return false;
    for (const FlatFn &F : U.Fns)
      if (!enter(F.Body, F.varFrame(), F.regionFrame()))
        return false;
    for (uint32_t I = static_cast<uint32_t>(U.Nodes.size()); I-- > 0;) {
      Depth D = Depths[I];
      if (D.Vars == NoIndex)
        continue; // unreached
      Parent = I;
      if (!check(U.Nodes[I], D.Vars, D.Regions) || !ChildrenOk)
        return false;
    }
    return true;
  }

private:
  struct Depth {
    uint32_t Vars = NoIndex; ///< NoIndex: not reached (yet)
    uint32_t Regions = 0;
  };

  static bool ref(uint32_t R, uint32_t Regions) {
    return R == GlobalRegionRef || R < Regions;
  }

  /// Hands node \p I the depths (\p Vars, \p Regions).
  bool enter(uint32_t I, uint32_t Vars, uint32_t Regions) {
    if (I >= Depths.size())
      return false;
    Depth &D = Depths[I];
    if (D.Vars == NoIndex) {
      D = {Vars, Regions};
      return true;
    }
    return D.Vars == Vars && D.Regions == Regions; // one node, two depths
  }

  void child(uint32_t I, uint32_t Vars, uint32_t Regions) {
    if (I >= Parent || !enter(I, Vars, Regions))
      ChildrenOk = false;
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
      return N.A < U.numStrings() && ref(N.X, R);
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
  std::vector<Depth> Depths;
  uint32_t Parent = 0; ///< the node being checked
  bool ChildrenOk = true;
};

/// Full structural validation of the tables: every cross-reference lands
/// inside its table and every slot inside its frame, so the interpreter
/// can index without bounds checks.
bool tablesOk(const FlatUnit &U, std::span<const uint32_t> StringEnds,
              size_t BlobBytes) {
  // The capture table is all-or-nothing: parallel to Fns when the
  // option is set, absent when it is not.
  if (U.Caps.size() != (U.hasCaptures() ? U.Fns.size() : 0))
    return false;
  if (U.RootMu != NoIndex && U.RootMu >= U.Mus.size())
    return false;

  // The string ends ascend and tile the blob exactly.
  uint32_t Prev = 0;
  for (uint32_t End : StringEnds) {
    if (End < Prev)
      return false;
    Prev = End;
  }
  if (Prev != BlobBytes)
    return false;

  for (const FlatFn &F : U.Fns) {
    if (!strOk(F.Param, U) || !strOk(F.Self, U))
      return false;
    if (!spanOk(F.CapturesBegin, F.CapturesCount, U.Aux.size()) ||
        !spanOk(F.FreeRegionsBegin, F.FreeRegionsCount, U.Aux.size()) ||
        !spanOk(F.FormalsBegin, F.FormalsCount, U.Aux.size()))
      return false;
    for (uint32_t I = 0; I < F.CapturesCount; ++I)
      if (U.Aux[F.CapturesBegin + I] >= U.numStrings())
        return false;
  }

  for (const FlatCapture &C : U.Caps)
    if (!spanOk(C.ValueBegin, C.ValueCount, U.Aux.size()) ||
        !spanOk(C.EffectBegin, C.EffectCount, U.Aux.size()))
      return false;

  for (const FlatMu &M : U.Mus) {
    if (M.Kind > static_cast<uint8_t>(Mu::Kind::Boxed) || M.Pad[0] ||
        M.Pad[1] || M.Pad[2])
      return false;
    if (M.T != NoIndex && M.T >= U.Taus.size())
      return false;
    if (M.Kind == static_cast<uint8_t>(Mu::Kind::Boxed) && M.T == NoIndex)
      return false;
  }
  for (const FlatTau &T : U.Taus) {
    if (T.Kind > static_cast<uint8_t>(Tau::Kind::Exn) || T.Pad[0] ||
        T.Pad[1] || T.Pad[2])
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
    const FlatRegion &G = U.Regions[I];
    if (G.Kind > static_cast<uint8_t>(RegionKind::Mixed) || G.Finite > 1 ||
        G.Pad != 0)
      return false;
    if (I != 0 && U.Regions[I - 1].Id >= G.Id)
      return false;
  }

  for (uint32_t S : U.ExnNames)
    if (S >= U.numStrings())
      return false;

  return ScopedWalk(U).run();
}

} // namespace

std::shared_ptr<const FlatUnit> rml::flat::decodeFlat(std::string_view Bytes) {
  if (Bytes.size() < sizeof(ImageHeader) || Bytes.size() % 8 != 0 ||
      Bytes.size() > UINT32_MAX)
    return nullptr;
  // One copy into an owned, aligned image; everything below reads it.
  std::shared_ptr<unsigned char> Img = allocImage(Bytes.size());
  std::memcpy(Img.get(), Bytes.data(), Bytes.size());
  ImageHeader H;
  std::memcpy(&H, Img.get(), sizeof(H));
  // The checksum turns arbitrary in-body corruption (bit flips,
  // truncation mid-field) into a deterministic reject before any
  // structural check reads a count.
  if (std::memcmp(H.Magic, Magic, sizeof(Magic)) != 0 ||
      H.Version != FlatVersion ||
      H.Checksum !=
          wordChecksum(std::string_view(
                           reinterpret_cast<const char *>(Img.get()),
                           Bytes.size())
                           .substr(ImageHeader::ChecksumFrom)))
    return nullptr;
  if (!imageOk(Img.get(), Bytes.size()))
    return nullptr;
  auto U = std::make_shared<FlatUnit>();
  U->attach(std::move(Img), Bytes.size());
  if (!tablesOk(*U, U->StringEnds, U->Blob.size()))
    return nullptr;
  return U;
}
