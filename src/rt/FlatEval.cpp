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

#include <algorithm>
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
/// What a formal's slot holds when its closure was never instantiated
/// by a region application (no heap ever hands out this handle).
constexpr uint32_t UnboundHandle = UINT32_MAX;

class FlatMachine {
public:
  FlatMachine(const FlatUnit &U, const EvalOptions &Opts) : U(U), Opts(Opts) {
    Heap.RetainReleasedPages = Opts.RetainReleasedPages;
    // The quarantine invariant, enforced at the single point where a
    // heap meets a pool: detection on => no shared pages.
    Heap.SharedPool = Opts.RetainReleasedPages ? nullptr : Opts.SharedPool;
    // The global region's representation follows the kind analysis like
    // any other region.
    Heap.region(0).Kind = staticKind(U.Regions[0]);
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

  [[gnu::cold, gnu::noinline]] Value fatal(RunOutcome Kind,
                                           std::string Msg) {
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

  bool gcDue() const {
    return Opts.GcEnabled && Heap.allocSinceGc() >= GcThreshold;
  }

  /// Collects if a collection is due. \p Keep are operands held in no
  /// root yet: they are rooted (and read back, moved) only then.
  template <typename... Vs> void maybeGc(Vs &...Keep) {
    if (!gcDue()) [[likely]]
      return;
    TempScope T(*this);
    (T.push(Keep), ...);
    collect();
    size_t I = T.Mark;
    ((Keep = Temps[I++]), ...);
  }

  [[gnu::noinline]] void collect() {
    GcKind Kind = Opts.Generational && ++GcTick % MinorsPerMajor != 0
                      ? GcKind::Minor
                      : GcKind::Major;
    Roots.clear();
    for (Value &V : Env)
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
    // After any collection every survivor is old: remembered slots are
    // obsolete (and, after a major, dangling into from-space).
    Remembered.clear();
    if (!G.Ok)
      fatal(RunOutcome::DanglingPointer, G.Error);
  }

  //===--------------------------------------------------------------------===//
  // Regions and allocation
  //===--------------------------------------------------------------------===//

  /// The runtime handle behind region ref \p Ref; \p Rho is its static
  /// id, for the error when the slot holds an uninstantiated formal.
  uint32_t regionOf(uint32_t Ref, uint32_t Rho) {
    if (Ref == flat::GlobalRegionRef)
      return 0;
    uint32_t Handle = RegionEnv[RBase + Ref];
    if (Handle == UnboundHandle) [[unlikely]] {
      fatal(RunOutcome::RuntimeError,
            "internal: unbound region r" + std::to_string(Rho));
      return 0;
    }
    return Handle;
  }

  /// The runtime representation for a region with facts \p Info.
  RegionKind staticKind(const FlatRegion &Info) const {
    if (!Opts.TagFreePairs)
      return RegionKind::Mixed;
    RegionKind K = static_cast<RegionKind>(Info.Kind);
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

  /// Allocates \p Words in the region behind \p Ref after any due
  /// collection; null once the run has failed.
  uint64_t *allocAt(uint32_t Ref, uint32_t Rho, size_t Words) {
    maybeGc();
    if (Fatal)
      return nullptr;
    uint32_t Handle = regionOf(Ref, Rho);
    if (Fatal)
      return nullptr;
    return Heap.alloc(Handle, Words);
  }

  Value makeString(uint32_t Ref, uint32_t Rho, std::string_view S) {
    size_t DataWords = (S.size() + 7) / 8;
    uint64_t *Obj = allocAt(Ref, Rho, 1 + DataWords);
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
  Value makeCell(const FlatNode &E, ObjKind Kind, Value A, Value B) {
    maybeGc(A, B);
    if (Fatal)
      return unitValue();
    uint32_t Handle = regionOf(E.X, E.Y);
    if (Fatal)
      return unitValue();
    RegionKind RK = Heap.region(Handle).Kind;
    bool TagFree = RK == RegionKind::Pair || RK == RegionKind::Cons;
    uint64_t *Obj = Heap.alloc(Handle, TagFree ? 2 : 3);
    size_t Off = 0;
    if (!TagFree)
      Obj[Off++] = makeHeader(Kind, 0);
    Obj[Off] = A;
    Obj[Off + 1] = B;
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

  static uint64_t packRegion(uint32_t StaticId, uint32_t Handle) {
    return (static_cast<uint64_t>(StaticId) << 32) | Handle;
  }

  /// The closure for site \p E: its captures and free regions read
  /// from the slots the site resolved them to in the defining frame.
  Value makeClosure(const FlatNode &E) {
    const FlatFn &F = U.Fns[E.A];
    size_t NRegions = F.FreeRegionsCount;
    size_t NCaptures = F.CapturesCount;
    size_t Words = 3 + NRegions + NCaptures;
    uint64_t *Obj = allocAt(E.X, E.Y, Words);
    if (!Obj)
      return unitValue();
    const uint32_t *Site = U.Aux.data() + E.B;
    Obj[0] = makeHeader(ObjKind::Closure, Words - 1);
    Obj[1] = E.A;
    Obj[2] = NRegions;
    for (size_t I = 0; I < NRegions; ++I) {
      uint32_t Static = U.Aux[F.FreeRegionsBegin + I];
      Obj[3 + I] = packRegion(Static, regionOf(Site[NCaptures + I], Static));
    }
    for (size_t I = 0; I < NCaptures; ++I)
      Obj[3 + NRegions + I] = Env[EBase + Site[I]];
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
    case Tau::Kind::String: {
      std::string Out = "\"";
      Out.append(readString(V));
      Out += '"';
      return Out;
    }
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
      std::string Out = "(";
      Out.append(render(A, T.A, Depth + 1));
      Out.append(", ");
      Out.append(render(B, T.B, Depth + 1));
      Out += ')';
      return Out;
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

  /// Evaluates node \p I. A leaf — a variable or a literal — is read in
  /// place, with the same interrupt and step accounting as any node;
  /// every other kind goes through evalNode.
  [[gnu::always_inline]] Value eval(uint32_t I) {
    const FlatNode &E = U.Nodes[I];
    switch (static_cast<RExpr::Kind>(E.Kind)) {
    case RExpr::Kind::Var:
    case RExpr::Kind::IntLit:
    case RExpr::Kind::BoolLit:
    case RExpr::Kind::UnitLit:
    case RExpr::Kind::NilVal:
      if (interrupted())
        return unitValue();
      if (++Steps > Opts.StepLimit)
        return fatal(RunOutcome::RuntimeError, "step limit exceeded");
      switch (static_cast<RExpr::Kind>(E.Kind)) {
      case RExpr::Kind::Var:
        return Env[EBase + E.A];
      case RExpr::Kind::IntLit:
        return boxScalar(static_cast<int64_t>(uint64_t{E.A} |
                                              uint64_t{E.B} << 32));
      case RExpr::Kind::BoolLit:
        return boxBool(E.A != 0);
      case RExpr::Kind::UnitLit:
        return unitValue();
      default:
        return NilValue;
      }
    default:
      return evalNode(E);
    }
  }

  Value evalNode(const FlatNode &E) {
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

    switch (static_cast<RExpr::Kind>(E.Kind)) {
    case RExpr::Kind::StrE:
      return makeString(E.X, E.Y, U.str(E.A));

    case RExpr::Kind::Lam:
    case RExpr::Kind::FunBind:
      return makeClosure(E);

    case RExpr::Kind::Let: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      Env.push_back(V);
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
      // The callee's region frame: the closure's free regions, then its
      // formals as the latest region application appended them, or
      // unbound when none did. Each application appends (formal, handle)
      // pairs in formal order, so the last NFormals pairs must name
      // exactly the formals; anything else is a closure this function
      // cannot have produced.
      size_t NFree = F.FreeRegionsCount, NFormals = F.FormalsCount;
      size_t FormalsAt = 0;
      if (NRegions != NFree) {
        FormalsAt = 3 + NRegions - NFormals;
        bool Fits = NFormals != 0 && NRegions >= NFree + NFormals;
        for (size_t I = 0; Fits && I < NFormals; ++I)
          Fits = Obj[FormalsAt + I] >> 32 == U.Aux[F.FormalsBegin + I];
        if (!Fits)
          return fatal(RunOutcome::RuntimeError,
                       "internal: closure carries " +
                           std::to_string(NRegions) +
                           " regions, not its function's " +
                           std::to_string(NFree) + " free and " +
                           std::to_string(NFormals) + " formal regions");
      }
      size_t RMark = RegionEnv.size(), SavedRBase = RBase;
      for (size_t I = 0; I < NFree; ++I)
        RegionEnv.push_back(static_cast<uint32_t>(Obj[3 + I]));
      for (size_t I = 0; I < NFormals; ++I)
        RegionEnv.push_back(FormalsAt != 0
                                ? static_cast<uint32_t>(Obj[FormalsAt + I])
                                : UnboundHandle);
      size_t EMark = Env.size(), SavedEBase = EBase;
      for (size_t I = 0; I < F.CapturesCount; ++I)
        Env.push_back(Obj[3 + NRegions + I]);
      if (F.Self != NoIndex)
        Env.push_back(FV);
      Env.push_back(Temps[IX]);
      // Obj may move from here on; no further reads.
      RBase = RMark;
      EBase = EMark;
      Value R = eval(F.Body);
      Env.resize(EMark);
      RegionEnv.resize(RMark);
      EBase = SavedEBase;
      RBase = SavedRBase;
      return R;
    }

    case RExpr::Kind::RApp: {
      Value C = eval(E.A);
      if (interrupted())
        return unitValue();
      // Resolve the instantiating regions before allocating. Nothing
      // between here and the copy below evaluates, so one scratch
      // buffer serves every RApp.
      std::vector<uint64_t> &Extra = RAppExtra;
      Extra.clear();
      const uint32_t *Arg = U.Aux.data() + E.B;
      for (uint32_t I = 0; I < E.C; ++I, Arg += 3) {
        uint32_t Handle = regionOf(Arg[2], Arg[1]);
        if (Fatal)
          return unitValue();
        Extra.push_back(packRegion(Arg[0], Handle));
      }
      uint64_t *Old = asPtr(C);
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
        return C;
      size_t Words = Total + Extra.size();
      maybeGc(C);
      if (Fatal)
        return unitValue();
      uint32_t Handle = regionOf(E.X, E.Y);
      if (Fatal)
        return unitValue();
      uint64_t *Obj = Heap.alloc(Handle, Words);
      Old = asPtr(C); // may have moved during the collection
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
      const FlatRegion &Info = U.Regions[E.B];
      unsigned FiniteWords =
          Opts.UseFiniteRegions && Info.Finite ? Info.Words : 0;
      if (Heap.depth() == RegionHeap::MaxDepth)
        return fatal(RunOutcome::RuntimeError, "region stack overflow");
      uint32_t Handle = Heap.create(E.C, staticKind(Info), FiniteWords, E.B);
      RegionEnv.push_back(Handle);
      Value V = eval(E.A);
      RegionEnv.pop_back();
      Heap.release(Handle);
      purgeRemembered();
      return V;
    }

    case RExpr::Kind::PairE:
    case RExpr::Kind::ConsE: {
      Value A = eval(E.A);
      if (interrupted())
        return unitValue();
      TempScope T(*this);
      size_t IA = T.push(A);
      Value B = eval(E.B);
      if (interrupted())
        return unitValue();
      return makeCell(E,
                      E.Kind == static_cast<uint8_t>(RExpr::Kind::PairE)
                          ? ObjKind::Pair
                          : ObjKind::Cons,
                      Temps[IA], B);
    }

    case RExpr::Kind::Sel: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      Value A, B;
      readCell(V, A, B);
      return E.Sub == 1 ? A : B;
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
      Env.push_back(Head);
      Env.push_back(Tail);
      Value R = eval(E.C);
      Env.pop_back();
      Env.pop_back();
      return R;
    }

    case RExpr::Kind::RefE: {
      Value V = eval(E.A);
      if (interrupted())
        return unitValue();
      maybeGc(V);
      if (Fatal)
        return unitValue();
      uint32_t Handle = regionOf(E.X, E.Y);
      if (Fatal)
        return unitValue();
      bool TagFree = Heap.region(Handle).Kind == RegionKind::Ref;
      uint64_t *Obj = Heap.alloc(Handle, TagFree ? 1 : 2);
      size_t Off = 0;
      if (!TagFree)
        Obj[Off++] = makeHeader(ObjKind::Ref, 0);
      Obj[Off] = V;
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
      for (uint32_t I = 0; I < E.C; ++I) {
        V = eval(U.Aux[E.B + I]);
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
      bool HasFilter = E.C != NoIndex;
      uint64_t *Obj = isPointer(ExnVal) ? asPtr(ExnVal) : nullptr;
      uint32_t GotId = Obj ? static_cast<uint32_t>(Obj[1]) : UINT32_MAX - 3;
      if (HasFilter && E.C != GotId)
        return unitValue(); // keep unwinding
      Unwinding = false;
      size_t EMark = Env.size();
      if (E.X != NoIndex)
        Env.push_back(Obj && headerPayload(Obj[0]) == 1 ? Obj[2]
                                                         : unitValue());
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
      maybeGc(Arg);
      if (Fatal)
        return unitValue();
      uint64_t *Obj = Heap.alloc(0, HasArg ? 3 : 2); // the global region
      Obj[0] = makeHeader(ObjKind::Exn, HasArg ? 1 : 0);
      Obj[1] = E.B;
      if (HasArg)
        Obj[2] = Arg;
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
    BinOpKind Op = static_cast<BinOpKind>(E.Sub);
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
      return makeString(E.X, E.Y, S);
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
    switch (static_cast<Expr::PrimKind>(E.Sub)) {
    case Expr::PrimKind::Print:
      Output += readString(V);
      return unitValue();
    case Expr::PrimKind::Size:
      return boxScalar(static_cast<int64_t>(readString(V).size()));
    case Expr::PrimKind::Itos:
      return makeString(E.X, E.Y, std::to_string(unboxScalar(V)));
    case Expr::PrimKind::Global:
      return V; // purely a region-inference directive
    case Expr::PrimKind::Work: {
      // Allocation churn in a private scratch region: provokes the
      // collector (the "trigger gc" of Figure 1).
      int64_t N = unboxScalar(V);
      if (Heap.depth() == RegionHeap::MaxDepth)
        return fatal(RunOutcome::RuntimeError, "region stack overflow");
      // The scratch region's profile slot follows the unit's regions.
      uint32_t Handle = Heap.create(ScratchStaticId, RegionKind::Mixed, 0,
                                    static_cast<uint32_t>(U.Regions.size()));
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
  /// The two frame stacks. A function's frames start at EBase / RBase
  /// and slots index from there; App saves and restores both bases.
  /// Every Env entry is a GC root, in stack order.
  std::vector<Value> Env;
  std::vector<uint32_t> RegionEnv; // region handles
  size_t EBase = 0, RBase = 0;
  std::vector<Value> Temps;
  bool Unwinding = false;
  Value ExnVal = NilValue;
  std::vector<Value *> Remembered; // old-to-young slots (write barrier)
  std::vector<Value *> Roots;      // maybeGc's root set, reused
  std::vector<uint64_t> RAppExtra; // RApp's instantiating regions, reused
  std::vector<GcPauseRecord> Pauses; // every collection of this run
  /// The static trigger: collect once GcThreshold words were allocated
  /// since the last collection; in generational mode every
  /// MinorsPerMajor-th collection is major.
  const uint64_t GcThreshold = std::max<uint64_t>(1, Opts.GcThresholdWords);
  const unsigned MinorsPerMajor = std::max(1u, Opts.MinorsPerMajor);
  uint64_t GcTick = 0;
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
