//===- rt/FlatEval.cpp ----------------------------------------------------===//
//
// The interpreter over flat units. Allocation word counts, GC trigger
// points, rooting discipline, step accounting and error strings are
// observable: the runtime golden file (tests/golden/runtime.txt, see
// tests/runtime_golden.h) fails on any change to them.
//
//===----------------------------------------------------------------------===//

#include "rt/FlatEval.h"

#include "rt/Gc.h"

#include <cassert>
#include <cstring>

using namespace rml;
using namespace rml::rt;
using flat::FlatFn;
using flat::FlatNode;
using flat::FlatRegion;
using flat::FlatUnit;
using flat::NoIndex;

namespace {

constexpr uint32_t ScratchStaticId = UINT32_MAX - 1;

class FlatMachine {
public:
  FlatMachine(const FlatUnit &U, const EvalOptions &Opts) : U(U), Opts(Opts) {
    Heap.RetainReleasedPages = Opts.RetainReleasedPages;
    // The quarantine invariant, enforced at the single point where a
    // heap meets a pool: detection on => no shared pages.
    Heap.SharedPool = Opts.RetainReleasedPages ? nullptr : Opts.SharedPool;
    // The global region's representation follows the kind analysis like
    // any other region.
    Heap.region(0).Kind = staticKind(0);
    RegionEnv.emplace_back(0u, 0u); // global region
  }

  RunResult run() {
    char Base;
    StackBase = &Base;
    Value V = eval(U.Root);
    RunResult R;
    R.Heap = Heap.Stats;
    R.Regions = Heap.profiles();
    R.Output = std::move(Output);
    R.Steps = Steps;
    R.GcPauses = std::move(Pauses);
    R.Policy = Policy.stats();
    if (Fatal) {
      R.Outcome = FatalKind;
      R.Error = FatalMsg;
      return R;
    }
    if (Unwinding) {
      R.Outcome = RunOutcome::UncaughtException;
      R.Error = "uncaught exception " + exnNameOf(ExnVal);
      return R;
    }
    R.ResultText = render(V, U.RootMu, 0);
    return R;
  }

private:
  //===--------------------------------------------------------------------===//
  // Error handling and rooting
  //===--------------------------------------------------------------------===//

  Value fatal(RunOutcome Kind, std::string Msg) {
    if (!Fatal) {
      Fatal = true;
      FatalKind = Kind;
      FatalMsg = std::move(Msg);
    }
    return unitValue();
  }

  bool interrupted() const { return Fatal || Unwinding; }

  struct TempScope {
    FlatMachine &M;
    size_t Mark;
    explicit TempScope(FlatMachine &M) : M(M), Mark(M.Temps.size()) {}
    ~TempScope() { M.Temps.resize(Mark); }
    size_t push(Value V) {
      M.Temps.push_back(V);
      return M.Temps.size() - 1;
    }
  };

  void maybeGc() {
    if (!Opts.GcEnabled || !Policy.shouldCollect(Heap.allocSinceGc()))
      return;
    GcKind Kind = Policy.nextKind();
    std::vector<Value *> Roots;
    Roots.reserve(Env.size() + Temps.size() + Remembered.size() + 1);
    for (auto &[S, V] : Env)
      Roots.push_back(&V);
    for (Value &V : Temps)
      Roots.push_back(&V);
    // Old-to-young slots from the write barrier: roots for minor
    // collections (harmless extras for major ones).
    if (Kind == GcKind::Minor)
      for (Value *Slot : Remembered)
        Roots.push_back(Slot);
    Roots.push_back(&ExnVal);
    const uint64_t T0 = traceNowNanos();
    GcResult G = collectGarbage(Heap, Roots, Kind, Opts.Generational);
    GcPauseRecord Pause;
    Pause.StartNanos = T0;
    Pause.WallNanos = traceNowNanos() - T0;
    Pause.Minor = Kind == GcKind::Minor;
    Pause.CopiedWords = G.CopiedWords;
    Pause.LiveRegions = G.LiveRegions;
    Pauses.push_back(Pause);
    if (Opts.PauseSink)
      Opts.PauseSink->recordGcPause(Pause);
    if (Policy.observe(Pause) && Opts.PauseSink) {
      Opts.PauseSink->recordCounter("gc_threshold_words",
                                    Policy.thresholdWords());
      Opts.PauseSink->recordCounter("gc_minors_per_major",
                                    Policy.minorsPerMajor());
    }
    // After any collection every survivor is old: remembered slots are
    // obsolete (and, after a major, dangling into from-space).
    Remembered.clear();
    if (!G.Ok)
      fatal(RunOutcome::DanglingPointer, G.Error);
  }

  //===--------------------------------------------------------------------===//
  // Regions and allocation
  //===--------------------------------------------------------------------===//

  uint32_t resolveRegion(uint32_t StaticId) {
    if (StaticId == 0)
      return 0;
    for (size_t I = RegionEnv.size(); I-- > 0;)
      if (RegionEnv[I].first == StaticId)
        return RegionEnv[I].second;
    fatal(RunOutcome::RuntimeError,
          "internal: unbound region r" + std::to_string(StaticId));
    return 0;
  }

  RegionKind staticKind(uint32_t StaticId) const {
    if (!Opts.TagFreePairs)
      return RegionKind::Mixed;
    const FlatRegion *Info = U.regionInfo(StaticId);
    RegionKind K = Info ? static_cast<RegionKind>(Info->Kind)
                        : RegionKind::Empty;
    switch (K) {
    case RegionKind::Pair:
    case RegionKind::Cons:
    case RegionKind::Ref:
      return K;
    default:
      return RegionKind::Mixed;
    }
  }

  /// Drops remembered slots that pointed into pages of a just-released
  /// region (before the page pool can reuse the memory).
  void purgeRemembered() {
    if (!Opts.Generational || Remembered.empty())
      return;
    std::erase_if(Remembered, [&](Value *Slot) {
      return !Heap.ownerOf(reinterpret_cast<const uint64_t *>(Slot))
                  .has_value();
    });
  }

  bool tagFreeAt(const uint64_t *P, RegionKind &KindOut) {
    std::optional<uint32_t> Owner = Heap.ownerOf(P);
    if (!Owner) {
      KindOut = RegionKind::Mixed;
      return false;
    }
    KindOut = Heap.region(*Owner).Kind;
    return KindOut == RegionKind::Pair || KindOut == RegionKind::Cons ||
           KindOut == RegionKind::Ref;
  }

  uint64_t *allocAt(uint32_t StaticRho, size_t Words) {
    maybeGc();
    if (Fatal)
      return nullptr;
    uint32_t Handle = resolveRegion(StaticRho);
    if (Fatal)
      return nullptr;
    return Heap.alloc(Handle, Words);
  }

  Value makeString(uint32_t StaticRho, std::string_view S) {
    size_t DataWords = (S.size() + 7) / 8;
    uint64_t *Obj = allocAt(StaticRho, 1 + DataWords);
    if (!Obj)
      return unitValue();
    Obj[0] = makeHeader(ObjKind::String, S.size());
    if (DataWords != 0) {
      Obj[DataWords] = 0; // zero the tail for deterministic comparisons
      std::memcpy(Obj + 1, S.data(), S.size());
    }
    return fromPtr(Obj);
  }

  std::string_view readString(Value V) {
    const uint64_t *Obj = asPtr(V);
    assert(isHeader(Obj[0]) && headerKind(Obj[0]) == ObjKind::String);
    return std::string_view(reinterpret_cast<const char *>(Obj + 1),
                            headerPayload(Obj[0]));
  }

  /// Allocates a 2-field cell (pair or cons); tag-free when the *runtime*
  /// region's kind allows (a formal region variable may be instantiated
  /// with a mixed-kind region, so the decision is per region, not per
  /// allocation site).
  Value makeCell(uint32_t StaticRho, ObjKind Kind, Value A, Value B) {
    TempScope T(*this);
    size_t IA = T.push(A), IB = T.push(B);
    maybeGc();
    if (Fatal)
      return unitValue();
    uint32_t Handle = resolveRegion(StaticRho);
    if (Fatal)
      return unitValue();
    RegionKind RK = Heap.region(Handle).Kind;
    bool TagFree = RK == RegionKind::Pair || RK == RegionKind::Cons;
    uint64_t *Obj = Heap.alloc(Handle, TagFree ? 2 : 3);
    if (!Obj)
      return unitValue();
    size_t Off = 0;
    if (!TagFree)
      Obj[Off++] = makeHeader(Kind, 0);
    Obj[Off] = Temps[IA];
    Obj[Off + 1] = Temps[IB];
    return fromPtr(Obj);
  }

  /// Reads the fields of a 2-field cell.
  void readCell(Value V, Value &A, Value &B) {
    uint64_t *Obj = asPtr(V);
    RegionKind K;
    size_t Off = tagFreeAt(Obj, K) ? 0 : 1;
    A = Obj[Off];
    B = Obj[Off + 1];
  }

  //===--------------------------------------------------------------------===//
  // Closures
  //===--------------------------------------------------------------------===//

  std::string nameText(uint32_t NameId) const {
    return NameId < U.StringSpans.size() ? std::string(U.str(NameId))
                                         : "<name>";
  }

  Value lookupEnv(uint32_t NameId) {
    for (size_t I = Env.size(); I-- > 0;)
      if (Env[I].first == NameId)
        return Env[I].second;
    fatal(RunOutcome::RuntimeError,
          "internal: unbound variable '" + nameText(NameId) + "'");
    return unitValue();
  }

  static uint64_t packRegion(uint32_t StaticId, uint32_t Handle) {
    return (static_cast<uint64_t>(StaticId) << 32) | Handle;
  }

  Value makeClosure(uint32_t FnIdx, uint32_t AtRho) {
    const FlatFn &F = U.Fns[FnIdx];
    size_t NRegions = F.FreeRegionsCount;
    size_t NCaptures = F.CapturesCount;
    size_t Words = 3 + NRegions + NCaptures;
    uint64_t *Obj = allocAt(AtRho, Words);
    if (!Obj)
      return unitValue();
    Obj[0] = makeHeader(ObjKind::Closure, Words - 1);
    Obj[1] = FnIdx;
    Obj[2] = NRegions;
    for (size_t I = 0; I < NRegions; ++I) {
      uint32_t Static = U.Aux[F.FreeRegionsBegin + I];
      uint32_t Handle = resolveRegion(Static);
      Obj[3 + I] = packRegion(Static, Handle);
    }
    for (size_t I = 0; I < NCaptures; ++I)
      Obj[3 + NRegions + I] = lookupEnv(U.Aux[F.CapturesBegin + I]);
    return fromPtr(Obj);
  }

  //===--------------------------------------------------------------------===//
  // Rendering
  //===--------------------------------------------------------------------===//

  std::string exnNameOf(Value V) {
    if (!isPointer(V))
      return "<exn>";
    uint64_t *Obj = asPtr(V);
    uint32_t Id = static_cast<uint32_t>(Obj[1]);
    if (Id < U.ExnNames.size() && U.ExnNames[Id] != NoIndex)
      return std::string(U.str(U.ExnNames[Id]));
    return "<exn>";
  }

  std::string render(Value V, uint32_t MuIdx, unsigned Depth) {
    if (Depth > 16 || Fatal)
      return "...";
    if (MuIdx == NoIndex)
      return "<value>";
    const flat::FlatMu &M = U.Mus[MuIdx];
    switch (static_cast<Mu::Kind>(M.Kind)) {
    case Mu::Kind::Int:
      return std::to_string(unboxScalar(V));
    case Mu::Kind::Bool:
      return unboxBool(V) ? "true" : "false";
    case Mu::Kind::Unit:
      return "()";
    case Mu::Kind::TyVar:
      return "<poly>";
    case Mu::Kind::Boxed:
      break;
    }
    const flat::FlatTau &T = U.Taus[M.T];
    switch (static_cast<Tau::Kind>(T.Kind)) {
    case Tau::Kind::String:
      return "\"" + std::string(readString(V)) + "\"";
    case Tau::Kind::Arrow:
      return "fn";
    case Tau::Kind::Exn:
      return "exn " + exnNameOf(V);
    case Tau::Kind::Ref: {
      uint64_t *Obj = asPtr(V);
      RegionKind K;
      size_t Off = tagFreeAt(Obj, K) ? 0 : 1;
      return "ref " + render(Obj[Off], T.A, Depth + 1);
    }
    case Tau::Kind::Pair: {
      Value A, B;
      readCell(V, A, B);
      return "(" + render(A, T.A, Depth + 1) + ", " +
             render(B, T.B, Depth + 1) + ")";
    }
    case Tau::Kind::List: {
      std::string Out = "[";
      Value Cur = V;
      unsigned N = 0;
      while (Cur != NilValue && N < 24) {
        Value A, B;
        readCell(Cur, A, B);
        if (N != 0)
          Out += ", ";
        Out += render(A, T.A, Depth + 1);
        Cur = B;
        ++N;
      }
      if (Cur != NilValue)
        Out += ", ...";
      Out += "]";
      return Out;
    }
    }
    return "<value>";
  }

  //===--------------------------------------------------------------------===//
  // Evaluation
  //===--------------------------------------------------------------------===//

  Value eval(uint32_t NodeIdx) {
    if (interrupted())
      return unitValue();
    if (++Steps > Opts.StepLimit)
      return fatal(RunOutcome::RuntimeError, "step limit exceeded");
    // Native-stack budget: downward-growing stacks on every supported
    // platform; the probe's distance from run()'s base measures the
    // bytes consumed, so the depth the budget allows shrinks in builds
    // with larger frames (ASan).
    char Probe;
    if (StackBase > &Probe &&
        static_cast<size_t>(StackBase - &Probe) > Opts.StackLimitBytes)
      return fatal(RunOutcome::RuntimeError,
                   "recursion exhausted the interpreter stack budget "
                   "(no tail-call optimisation)");
    if (NodeIdx == NoIndex) // unreachable for flattener output
      return fatal(RunOutcome::RuntimeError, "internal: absent node");

    const FlatNode &E = U.Nodes[NodeIdx];
    switch (static_cast<RExpr::Kind>(E.Kind)) {
    case RExpr::Kind::IntLit:
      return boxScalar(E.Int);
    case RExpr::Kind::BoolLit:
      return boxBool(E.Int != 0);
    case RExpr::Kind::UnitLit:
      return unitValue();
    case RExpr::Kind::NilVal:
      return NilValue;
    case RExpr::Kind::StrE:
      return makeString(E.AtRho, U.str(E.Str));
    case RExpr::Kind::Var:
      return lookupEnv(E.Name);

    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind:
      return makeClosure(E.Fn, E.AtRho);

    case RExpr::Kind::Let: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      Env.emplace_back(E.Name, V);
      Value R = eval(E.B);
      Env.pop_back();
      return R;
    }

    case RExpr::Kind::App: {
      TempScope T(*this);
      size_t IF = T.push(eval(E.A));
      if (interrupted())
        return unitValue();
      size_t IX = T.push(eval(E.B));
      if (interrupted())
        return unitValue();
      Value FV = Temps[IF];
      if (!isPointer(FV))
        return fatal(RunOutcome::RuntimeError,
                     "internal: application of a non-closure");
      uint64_t *Obj = asPtr(FV);
      uint32_t FnIdx = static_cast<uint32_t>(Obj[1]);
      size_t NRegions = Obj[2];
      if (FnIdx >= U.Fns.size()) // only reachable applying a non-closure
        return fatal(RunOutcome::RuntimeError,
                     "internal: application of a non-closure");
      const FlatFn &F = U.Fns[FnIdx];
      size_t RMark = RegionEnv.size();
      for (size_t I = 0; I < NRegions; ++I) {
        uint64_t W = Obj[3 + I];
        RegionEnv.emplace_back(static_cast<uint32_t>(W >> 32),
                               static_cast<uint32_t>(W));
      }
      size_t EMark = Env.size();
      for (size_t I = 0; I < F.CapturesCount; ++I)
        Env.emplace_back(U.Aux[F.CapturesBegin + I], Obj[3 + NRegions + I]);
      if (F.Self != NoIndex)
        Env.emplace_back(F.Self, FV);
      Env.emplace_back(F.Param, Temps[IX]);
      // Obj may move from here on; no further reads.
      Value R = eval(F.Body);
      Env.resize(EMark);
      RegionEnv.resize(RMark);
      return R;
    }

    case RExpr::Kind::RApp: {
      TempScope T(*this);
      size_t IC = T.push(eval(E.A));
      if (interrupted())
        return unitValue();
      // Resolve the instantiating regions before allocating.
      std::vector<uint64_t> Extra;
      Extra.reserve(E.AuxCount / 2);
      for (uint32_t I = 0; I < E.AuxCount; I += 2) {
        uint32_t Formal = U.Aux[E.AuxBegin + I];
        uint32_t Target = U.Aux[E.AuxBegin + I + 1];
        uint32_t Handle = resolveRegion(Target);
        if (Fatal)
          return unitValue();
        Extra.push_back(packRegion(Formal, Handle));
      }
      uint64_t *Old = asPtr(Temps[IC]);
      size_t NRegions = Old[2];
      size_t Total = headerPayload(Old[0]) + 1;
      size_t NCaptures = Total - 3 - NRegions;
      // Self-calls (and repeated instantiations at the same regions) add
      // no information: when every region pair is already bound in the
      // closure, reuse it instead of copying — MLKit compiles such
      // region applications as direct calls.
      bool Redundant = true;
      for (uint64_t W : Extra) {
        bool Found = false;
        for (size_t I = 0; I < NRegions && !Found; ++I)
          Found = Old[3 + I] == W;
        if (!Found) {
          Redundant = false;
          break;
        }
      }
      if (Redundant)
        return Temps[IC];
      size_t Words = Total + Extra.size();
      uint64_t *Obj = allocAt(E.AtRho, Words);
      if (!Obj)
        return unitValue();
      Old = asPtr(Temps[IC]); // may have moved during allocation
      Obj[0] = makeHeader(ObjKind::Closure, Words - 1);
      Obj[1] = Old[1];
      Obj[2] = NRegions + Extra.size();
      for (size_t I = 0; I < NRegions; ++I)
        Obj[3 + I] = Old[3 + I];
      for (size_t I = 0; I < Extra.size(); ++I)
        Obj[3 + NRegions + I] = Extra[I];
      for (size_t I = 0; I < NCaptures; ++I)
        Obj[3 + NRegions + Extra.size() + I] = Old[3 + NRegions + I];
      return fromPtr(Obj);
    }

    case RExpr::Kind::LetRegion: {
      const FlatRegion *Info = U.regionInfo(E.BoundRho);
      unsigned FiniteWords = 0;
      if (Opts.UseFiniteRegions && Info && Info->Finite)
        FiniteWords = Info->Words;
      uint32_t Handle =
          Heap.create(E.BoundRho, staticKind(E.BoundRho), FiniteWords);
      RegionEnv.emplace_back(E.BoundRho, Handle);
      Value V = eval(E.A);
      RegionEnv.pop_back();
      Heap.release(Handle);
      purgeRemembered();
      return V;
    }

    case RExpr::Kind::PairE: {
      Value A = eval(E.A);
      if (interrupted())
        return unitValue();
      TempScope T(*this);
      size_t IA = T.push(A);
      Value B = eval(E.B);
      if (interrupted())
        return unitValue();
      return makeCell(E.AtRho, ObjKind::Pair, Temps[IA], B);
    }

    case RExpr::Kind::ConsE: {
      Value A = eval(E.A);
      if (interrupted())
        return unitValue();
      TempScope T(*this);
      size_t IA = T.push(A);
      Value B = eval(E.B);
      if (interrupted())
        return unitValue();
      return makeCell(E.AtRho, ObjKind::Cons, Temps[IA], B);
    }

    case RExpr::Kind::Sel: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      Value A, B;
      readCell(V, A, B);
      return E.Sel == 1 ? A : B;
    }

    case RExpr::Kind::If: {
      Value Cond = eval(E.A);
      if (interrupted())
        return unitValue();
      return unboxBool(Cond) ? eval(E.B) : eval(E.C);
    }

    case RExpr::Kind::BinOp:
      return evalBinOp(E);

    case RExpr::Kind::ListCase: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      if (V == NilValue)
        return eval(E.B);
      Value Head, Tail;
      readCell(V, Head, Tail);
      Env.emplace_back(E.HeadName, Head);
      Env.emplace_back(E.TailName, Tail);
      Value R = eval(E.C);
      Env.pop_back();
      Env.pop_back();
      return R;
    }

    case RExpr::Kind::RefE: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      TempScope T(*this);
      size_t IV = T.push(V);
      maybeGc();
      if (Fatal)
        return unitValue();
      uint32_t Handle = resolveRegion(E.AtRho);
      if (Fatal)
        return unitValue();
      bool TagFree = Heap.region(Handle).Kind == RegionKind::Ref;
      uint64_t *Obj = Heap.alloc(Handle, TagFree ? 1 : 2);
      if (!Obj)
        return unitValue();
      size_t Off = 0;
      if (!TagFree)
        Obj[Off++] = makeHeader(ObjKind::Ref, 0);
      Obj[Off] = Temps[IV];
      return fromPtr(Obj);
    }

    case RExpr::Kind::Deref: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      uint64_t *Obj = asPtr(V);
      RegionKind K;
      size_t Off = tagFreeAt(Obj, K) ? 0 : 1;
      return Obj[Off];
    }

    case RExpr::Kind::Assign: {
      Value R = eval(E.A);
      if (interrupted())
        return unitValue();
      TempScope T(*this);
      size_t IR = T.push(R);
      Value V = eval(E.B);
      if (interrupted())
        return unitValue();
      uint64_t *Obj = asPtr(Temps[IR]);
      RegionKind K;
      size_t Off = tagFreeAt(Obj, K) ? 0 : 1;
      Obj[Off] = V;
      // Write barrier: an old cell now referencing a (possibly young)
      // object must be a root of the next minor collection.
      if (Opts.Generational && isPointer(V) && Heap.isOldAddr(Obj))
        Remembered.push_back(&Obj[Off]);
      return unitValue();
    }

    case RExpr::Kind::Seq: {
      Value V = unitValue();
      for (uint32_t I = 0; I < E.AuxCount; ++I) {
        V = eval(U.Aux[E.AuxBegin + I]);
        if (interrupted())
          return unitValue();
      }
      return V;
    }

    case RExpr::Kind::Raise: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      Unwinding = true;
      ExnVal = V;
      return unitValue();
    }

    case RExpr::Kind::Handle: {
      Value V = eval(E.A);
      if (Fatal)
        return unitValue();
      if (!Unwinding)
        return V;
      // Match the handler (the want-id was resolved at flatten time).
      bool HasFilter = E.ExnId != NoIndex;
      uint64_t *Obj = isPointer(ExnVal) ? asPtr(ExnVal) : nullptr;
      uint32_t GotId = Obj ? static_cast<uint32_t>(Obj[1]) : UINT32_MAX - 3;
      if (HasFilter && E.ExnId != GotId)
        return unitValue(); // keep unwinding
      Unwinding = false;
      size_t EMark = Env.size();
      if (E.BindName != NoIndex && Obj && headerPayload(Obj[0]) == 1)
        Env.emplace_back(E.BindName, Obj[2]);
      else if (E.BindName != NoIndex)
        Env.emplace_back(E.BindName, unitValue());
      ExnVal = NilValue;
      Value R = eval(E.B);
      Env.resize(EMark);
      return R;
    }

    case RExpr::Kind::ExnConE: {
      Value Arg = unitValue();
      bool HasArg = E.A != NoIndex;
      if (HasArg) {
        Arg = eval(E.A);
        if (interrupted())
          return unitValue();
      }
      TempScope T(*this);
      size_t IA = T.push(Arg);
      uint64_t *Obj = allocAt(0, HasArg ? 3 : 2); // the global region
      if (!Obj)
        return unitValue();
      Obj[0] = makeHeader(ObjKind::Exn, HasArg ? 1 : 0);
      Obj[1] = E.ExnId;
      if (HasArg)
        Obj[2] = Temps[IA];
      return fromPtr(Obj);
    }

    case RExpr::Kind::Prim:
      return evalPrim(E);

    default:
      return fatal(RunOutcome::RuntimeError,
                   "internal: value form in executable position");
    }
  }

  Value evalBinOp(const FlatNode &E) {
    BinOpKind Op = static_cast<BinOpKind>(E.Op);
    // andalso / orelse are lazy.
    if (Op == BinOpKind::AndAlso || Op == BinOpKind::OrElse) {
      Value L = eval(E.A);
      if (interrupted())
        return unitValue();
      bool LB = unboxBool(L);
      if (Op == BinOpKind::AndAlso)
        return LB ? eval(E.B) : boxBool(false);
      return LB ? boxBool(true) : eval(E.B);
    }
    Value L = eval(E.A);
    if (interrupted())
      return unitValue();
    TempScope T(*this);
    size_t IL = T.push(L);
    Value R = eval(E.B);
    if (interrupted())
      return unitValue();
    L = Temps[IL];
    switch (Op) {
    case BinOpKind::Add:
      return boxScalar(unboxScalar(L) + unboxScalar(R));
    case BinOpKind::Sub:
      return boxScalar(unboxScalar(L) - unboxScalar(R));
    case BinOpKind::Mul:
      return boxScalar(unboxScalar(L) * unboxScalar(R));
    case BinOpKind::Div:
      if (unboxScalar(R) == 0)
        return fatal(RunOutcome::RuntimeError, "division by zero");
      return boxScalar(unboxScalar(L) / unboxScalar(R));
    case BinOpKind::Mod:
      if (unboxScalar(R) == 0)
        return fatal(RunOutcome::RuntimeError, "modulo by zero");
      return boxScalar(unboxScalar(L) % unboxScalar(R));
    case BinOpKind::Less:
      return boxBool(unboxScalar(L) < unboxScalar(R));
    case BinOpKind::LessEq:
      return boxBool(unboxScalar(L) <= unboxScalar(R));
    case BinOpKind::Greater:
      return boxBool(unboxScalar(L) > unboxScalar(R));
    case BinOpKind::GreaterEq:
      return boxBool(unboxScalar(L) >= unboxScalar(R));
    case BinOpKind::Eq:
    case BinOpKind::NotEq: {
      bool Equal;
      if (isScalar(L) || L == NilValue)
        Equal = L == R;
      else
        Equal = readString(L) == readString(R);
      return boxBool(Op == BinOpKind::Eq ? Equal : !Equal);
    }
    case BinOpKind::StrEq:
      return boxBool(readString(L) == readString(R));
    case BinOpKind::Concat: {
      std::string S(readString(L));
      S += readString(R);
      return makeString(E.AtRho, S);
    }
    case BinOpKind::Cons:
    case BinOpKind::AndAlso:
    case BinOpKind::OrElse:
      break; // Cons is ConsE; the lazy operators returned above
    }
    return fatal(RunOutcome::RuntimeError, "internal: bad operator");
  }

  Value evalPrim(const FlatNode &E) {
    Value V = eval(E.A);
    if (interrupted())
      return unitValue();
    switch (static_cast<Expr::PrimKind>(E.Prim)) {
    case Expr::PrimKind::Print:
      Output += readString(V);
      return unitValue();
    case Expr::PrimKind::Size:
      return boxScalar(static_cast<int64_t>(readString(V).size()));
    case Expr::PrimKind::Itos:
      return makeString(E.AtRho, std::to_string(unboxScalar(V)));
    case Expr::PrimKind::Global:
      return V; // purely a region-inference directive
    case Expr::PrimKind::Work: {
      // Allocation churn in a private scratch region: provokes the
      // collector (the "trigger gc" of Figure 1).
      int64_t N = unboxScalar(V);
      uint32_t Handle =
          Heap.create(ScratchStaticId, RegionKind::Mixed, 0);
      TempScope T(*this);
      size_t Slot = T.push(NilValue);
      for (int64_t I = 0; I < N && !Fatal; ++I) {
        maybeGc();
        if (Fatal)
          break;
        uint64_t *Obj = Heap.alloc(Handle, 3);
        Obj[0] = makeHeader(ObjKind::Pair, 0);
        Obj[1] = boxScalar(I);
        Obj[2] = Temps[Slot] == NilValue ? boxScalar(0) : Temps[Slot];
        Temps[Slot] = fromPtr(Obj);
      }
      Temps[Slot] = NilValue;
      Heap.release(Handle);
      purgeRemembered();
      return unitValue();
    }
    }
    return unitValue();
  }

  const FlatUnit &U;
  EvalOptions Opts;

  RegionHeap Heap;
  std::vector<std::pair<uint32_t, Value>> Env; // keyed by name (string) id
  std::vector<Value> Temps;
  std::vector<std::pair<uint32_t, uint32_t>> RegionEnv;
  bool Unwinding = false;
  Value ExnVal = NilValue;
  std::vector<Value *> Remembered; // old-to-young slots (write barrier)
  std::vector<GcPauseRecord> Pauses; // every collection of this run
  GcPolicy Policy{Opts.AdaptiveGc, Opts.GcThresholdWords, Opts.MinorsPerMajor,
                  Opts.Generational, Opts.GcPauseBudgetNanos};
  bool Fatal = false;
  RunOutcome FatalKind = RunOutcome::Ok;
  std::string FatalMsg;
  uint64_t Steps = 0;
  const char *StackBase = nullptr;
  std::string Output;
};

} // namespace

RunResult rml::rt::runFlatUnit(const flat::FlatUnit &U,
                               const EvalOptions &Opts) {
  FlatMachine M(U, Opts);
  return M.run();
}
