//===- core/Pipeline.cpp --------------------------------------------------===//

#include "core/Pipeline.h"

#include "rt/FlatEval.h"

#include <unordered_set>

using namespace rml;

//===----------------------------------------------------------------------===//
// The phase registry and the individual steps
//===----------------------------------------------------------------------===//

const std::vector<Compiler::PhaseDef> &Compiler::staticPhaseRegistry() {
  // Const and magic-static-initialised: safe to read from any number of
  // threads (see the thread-safety contract in Pipeline.h).
  static const std::vector<PhaseDef> Registry = {
      {"parse", &Compiler::phaseParse},
      {"typecheck", &Compiler::phaseTypecheck},
      {"spurious", &Compiler::phaseSpurious},
      {"infer", &Compiler::phaseInfer},
      {"check", &Compiler::phaseCheck},
      {"multiplicity", &Compiler::phaseMultiplicity},
      {"kinds", &Compiler::phaseKinds},
      {"drops", &Compiler::phaseDrops},
      {"captures", &Compiler::phaseCaptures},
      {"flatten", &Compiler::phaseFlatten},
  };
  return Registry;
}

std::vector<std::string> Compiler::staticPhaseNames() {
  std::vector<std::string> Names;
  Names.reserve(staticPhaseRegistry().size());
  for (const PhaseDef &PD : staticPhaseRegistry())
    Names.push_back(PD.Name);
  return Names;
}

bool Compiler::phaseParse(std::string_view Source, CompiledUnit &Unit) {
  std::optional<Program> P = parseString(Source, Ast, Names, Diags);
  if (!P)
    return false;
  Unit.Ast = std::move(*P);
  // Lint: a top-level binding that reuses an earlier top-level name
  // silently shadows it — legal, but in a serving setting it is almost
  // always a copy-paste slip, and scheme queries only ever see the
  // outermost binding. Exceptions declare constructors, not values, so
  // they are exempt.
  std::unordered_set<Symbol> Seen;
  for (const Dec *D : Unit.Ast.Decs) {
    if (D->K == Dec::Kind::Exn)
      continue;
    if (!Seen.insert(D->Name).second)
      Diags.warning(D->Loc, "top-level binding '" + Names.text(D->Name) +
                                "' shadows an earlier binding of the same "
                                "name");
  }
  return true;
}

bool Compiler::phaseTypecheck(std::string_view, CompiledUnit &Unit) {
  return checkProgram(Unit.Ast, Types, Names, Diags, Unit.Types);
}

bool Compiler::phaseSpurious(std::string_view, CompiledUnit &Unit) {
  Unit.Spurious = analyzeSpurious(Unit.Ast, Unit.Types);
  return true;
}

bool Compiler::phaseInfer(std::string_view, CompiledUnit &Unit) {
  InferOptions IOpts;
  IOpts.Strat = Unit.Options.Strat;
  IOpts.Spurious = Unit.Options.Spurious;
  std::optional<InferResult> Inf =
      inferRegions(Unit.Ast, Unit.Types, Unit.Spurious, IOpts, RTypes,
                   RExprs, Names, Diags);
  if (!Inf)
    return false;
  Unit.Inferred = std::move(*Inf);
  return true;
}

bool Compiler::phaseCheck(std::string_view, CompiledUnit &Unit) {
  // The GC-safety side conditions are exactly what rg guarantees; the
  // rg- and r strategies produce Tofte-Talpin-correct programs that may
  // harbour dangling pointers, so they are checked with safety off.
  GcSafety Safety =
      Unit.Options.Strat == Strategy::Rg ? GcSafety::On : GcSafety::Off;
  Unit.Checked =
      checkRProgram(Unit.Inferred.Prog, RTypes, Names, Diags, Safety);
  return Unit.Checked.has_value();
}

bool Compiler::phaseMultiplicity(std::string_view, CompiledUnit &Unit) {
  Unit.Mult = analyzeMultiplicity(Unit.Inferred.Prog);
  return true;
}

bool Compiler::phaseKinds(std::string_view, CompiledUnit &Unit) {
  Unit.Kinds = analyzeRegionKinds(Unit.Inferred.Prog);
  return true;
}

bool Compiler::phaseDrops(std::string_view, CompiledUnit &Unit) {
  Unit.Drops = analyzeDropRegions(Unit.Inferred.Prog);
  return true;
}

bool Compiler::phaseCaptures(std::string_view, CompiledUnit &Unit) {
  Unit.Captures = analyzeCaptures(Unit.Inferred.Prog);
  return true;
}

bool Compiler::phaseFlatten(std::string_view, CompiledUnit &Unit) {
  // The last static phase: every analysis the runtime consults is
  // resolved into the self-contained flat form the caches persist —
  // including, when the captures phase ran, its per-closure table.
  std::string Problem;
  auto Flat = std::make_shared<flat::FlatUnit>(flat::flattenProgram(
      Unit.Inferred.Prog, Unit.Inferred.RootMu, Unit.Mult, Unit.Kinds,
      Unit.Drops, Names, Unit.Options,
      Unit.Captures ? &*Unit.Captures : nullptr, &Problem));
  if (!Problem.empty()) {
    Diags.error(Unit.Inferred.Prog.Root ? Unit.Inferred.Prog.Root->Loc
                                        : SrcLoc(),
                Problem);
    return false;
  }
  Unit.Flat = std::move(Flat);
  return true;
}

//===----------------------------------------------------------------------===//
// The phase manager
//===----------------------------------------------------------------------===//

std::unique_ptr<CompiledUnit> Compiler::compile(std::string_view Source,
                                                const CompileOptions &Opts) {
  Diags.clear();
  LastProfiles.clear();
  auto Unit = std::make_unique<CompiledUnit>();
  Unit->Options = Opts;

  for (const PhaseDef &PD : staticPhaseRegistry()) {
    size_t NodesBefore = arenaFootprint().total();
    size_t DiagsBefore = Diags.all().size();
    // Optional phases stay in the profile list (the phase shape is
    // stable across options) marked Skipped.
    bool Skip = (PD.Run == &Compiler::phaseCheck && !Opts.Check) ||
                (PD.Run == &Compiler::phaseCaptures && !Opts.Captures);
    bool Ok = true;
    {
      PhaseTimer Timer(PD.Name, Sink);
      if (!Skip)
        Ok = (this->*PD.Run)(Source, *Unit);
      PhaseProfile &P = Timer.stop();
      if (Skip) {
        // A skipped phase costs nothing: the few clock ticks the timer
        // itself took would otherwise leak into every aggregate.
        P.Skipped = true;
        P.WallNanos = 0;
      }
      P.DiagnosticsEmitted = Diags.all().size() - DiagsBefore;
      P.ArenaNodeDelta = arenaFootprint().total() - NodesBefore;
      LastProfiles.push_back(P);
      // Timer's destructor forwards the finished profile to the sink.
    }
    if (!Ok)
      return nullptr; // early exit: later phases never run or record
  }

  Unit->Profiles = LastProfiles;
  return Unit;
}

rt::RunResult Compiler::run(const CompiledUnit &Unit,
                            rt::EvalOptions EvalOpts) const {
  return runFlat(*Unit.Flat, EvalOpts, Sink);
}

rt::RunResult Compiler::runFlat(const flat::FlatUnit &Flat,
                                rt::EvalOptions EvalOpts, TraceSink *Sink) {
  PhaseTimer Timer(RunPhaseName, Sink);
  if (Flat.strat() == Strategy::R)
    EvalOpts.GcEnabled = false;
  // Exact dangling detection and cross-request page pooling are
  // mutually exclusive: a pooled page could be handed to another run
  // while the detector can still attribute it to a dead region.
  if (EvalOpts.RetainReleasedPages)
    EvalOpts.SharedPool = nullptr;
  rt::RunResult R = rt::runFlatUnit(Flat, EvalOpts);
  PhaseProfile &P = Timer.stop();
  P.GcCount = R.Heap.GcCount;
  P.AllocWords = R.Heap.AllocWords;
  P.CopiedWords = R.Heap.CopiedWords;
  // Fold the run's collector stalls into the profile so the sink (and
  // anyone reading RunResult::Phase) sees them nested inside this span.
  P.GcPauses = R.GcPauses;
  R.Phase = P;
  return R;
}

CompileAndRunResult Compiler::compileAndRun(std::string_view Source,
                                            const CompileOptions &Opts,
                                            rt::EvalOptions EvalOpts) {
  CompileAndRunResult Out;
  Out.Unit = compile(Source, Opts);
  if (Out.Unit)
    Out.Run = run(*Out.Unit, EvalOpts);
  return Out;
}

Compiler::ArenaFootprint Compiler::arenaFootprint() const {
  ArenaFootprint F;
  F.AstNodes = Ast.exprCount();
  F.TypeNodes = Types.size();
  F.RTypeNodes = RTypes.size();
  F.RExprNodes = RExprs.size();
  return F;
}

std::string Compiler::printProgram(const CompiledUnit &Unit) const {
  return printRExpr(Unit.program().Root, Names);
}

namespace {

/// Finds the FunBind bound under \p Name along the top-level let chain.
const RExpr *findTopLevelFun(const RExpr *Root, Symbol Name) {
  const RExpr *E = Root;
  while (E) {
    if (E->K == RExpr::Kind::LetRegion) {
      E = E->A;
      continue;
    }
    if (E->K == RExpr::Kind::Let) {
      if (E->Name == Name && E->A && E->A->K == RExpr::Kind::FunBind)
        return E->A;
      E = E->B;
      continue;
    }
    return nullptr;
  }
  return nullptr;
}

} // namespace

std::string Compiler::schemeOf(const CompiledUnit &Unit,
                               std::string_view Name) const {
  // A name that was never interned cannot be bound in the unit, so the
  // const lookup suffices and shared read-only units stay untouched.
  std::optional<Symbol> S = Names.lookup(Name);
  if (!S)
    return "";
  const RExpr *Fun = findTopLevelFun(Unit.program().Root, *S);
  if (!Fun)
    return "";
  return printScheme(Fun->Sigma);
}

std::string Compiler::captureReport(const CompiledUnit &Unit) const {
  if (!Unit.Captures)
    return "";
  return renderCaptureReport(Unit.Options.Strat,
                             captureReportRows(*Unit.Captures, Names));
}

std::vector<std::pair<std::string, std::string>>
Compiler::topLevelSchemes(const CompiledUnit &Unit) const {
  // The same walk as findTopLevelFun, collecting every function binding;
  // first-wins dedupe matches its outermost-binding-wins semantics.
  std::vector<std::pair<std::string, std::string>> Out;
  std::unordered_set<Symbol> Seen;
  const RExpr *E = Unit.program().Root;
  while (E) {
    if (E->K == RExpr::Kind::LetRegion) {
      E = E->A;
      continue;
    }
    if (E->K == RExpr::Kind::Let) {
      if (E->A && E->A->K == RExpr::Kind::FunBind && Seen.insert(E->Name).second)
        Out.emplace_back(Names.text(E->Name), printScheme(E->A->Sigma));
      E = E->B;
      continue;
    }
    break;
  }
  return Out;
}
