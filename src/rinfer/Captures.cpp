//===- rinfer/Captures.cpp ------------------------------------------------===//

#include "rinfer/Captures.h"

#include "region/RegionType.h"

#include <algorithm>
#include <set>

using namespace rml;

namespace {

/// Collects the free region variables of the types of \p E's free
/// program-variable occurrences. The binder scoping mirrors
/// FreeVarTable (region/RExpr.cpp) exactly: a symbol bound between the
/// closure and the occurrence is not captured.
void collectValueRegions(const RExpr *E, std::vector<Symbol> &Bound,
                         std::set<uint32_t> &Out) {
  if (!E)
    return;
  auto IsBound = [&](Symbol S) {
    return std::find(Bound.begin(), Bound.end(), S) != Bound.end();
  };

  switch (E->K) {
  case RExpr::Kind::Var:
    if (!IsBound(E->Name) && E->MuOf)
      for (RegionVar R : frevOf(E->MuOf).regions())
        if (R.Id != 0)
          Out.insert(R.Id);
    return;
  case RExpr::Kind::Lam:
  case RExpr::Kind::ClosVal: {
    Bound.push_back(E->Param);
    collectValueRegions(E->A, Bound, Out);
    Bound.pop_back();
    return;
  }
  case RExpr::Kind::FunBind:
  case RExpr::Kind::FunVal: {
    Bound.push_back(E->Name);
    Bound.push_back(E->Param);
    collectValueRegions(E->A, Bound, Out);
    Bound.pop_back();
    Bound.pop_back();
    return;
  }
  case RExpr::Kind::Let: {
    collectValueRegions(E->A, Bound, Out);
    Bound.push_back(E->Name);
    collectValueRegions(E->B, Bound, Out);
    Bound.pop_back();
    return;
  }
  case RExpr::Kind::ListCase: {
    collectValueRegions(E->A, Bound, Out);
    collectValueRegions(E->B, Bound, Out);
    Bound.push_back(E->HeadName);
    Bound.push_back(E->TailName);
    collectValueRegions(E->C, Bound, Out);
    Bound.pop_back();
    Bound.pop_back();
    return;
  }
  case RExpr::Kind::Handle: {
    collectValueRegions(E->A, Bound, Out);
    if (E->BindName.isValid())
      Bound.push_back(E->BindName);
    collectValueRegions(E->B, Bound, Out);
    if (E->BindName.isValid())
      Bound.pop_back();
    return;
  }
  default:
    collectValueRegions(E->A, Bound, Out);
    collectValueRegions(E->B, Bound, Out);
    collectValueRegions(E->C, Bound, Out);
    for (const RExpr *Item : E->Items)
      collectValueRegions(Item, Bound, Out);
    return;
  }
}

/// The latent arrow effect's region set. For a lambda that is the
/// recorded nu; for a fun binding the scheme body's nu minus the
/// scheme's own quantifiers (those regions are formals, instantiated
/// per application, not captures).
std::vector<uint32_t> latentRegions(const RExpr *E) {
  Effect Latent;
  if (E->K == RExpr::Kind::Lam) {
    Latent = E->LatentNu.frev();
  } else if (E->Sigma.Body && E->Sigma.Body->K == Tau::Kind::Arrow) {
    Latent = E->Sigma.Body->Nu.frev().minus(E->Sigma.boundVars());
  }
  std::vector<uint32_t> Out;
  for (RegionVar R : Latent.regions())
    if (R.Id != 0)
      Out.push_back(R.Id);
  return Out;
}

/// Enumerates closures in exactly the flattener's FnPass pre-order
/// (flat/Flat.cpp), so CaptureInfo::Closures[i] describes
/// FlatUnit::Fns[i].
void walk(const RExpr *E, CaptureInfo &Info) {
  if (!E)
    return;
  switch (E->K) {
  case RExpr::Kind::Lam:
  case RExpr::Kind::FunBind: {
    ClosureCapture C;
    C.IsFun = E->K == RExpr::Kind::FunBind;
    if (C.IsFun)
      C.Self = E->Name;
    C.Param = E->Param;
    std::vector<Symbol> Bound;
    std::set<uint32_t> Value;
    if (C.IsFun)
      Bound.push_back(E->Name);
    Bound.push_back(E->Param);
    collectValueRegions(E->A, Bound, Value);
    C.ViaValue.assign(Value.begin(), Value.end());
    C.ViaEffect = latentRegions(E);
    Info.Closures.push_back(std::move(C));
    walk(E->A, Info);
    return;
  }
  default:
    walk(E->A, Info);
    walk(E->B, Info);
    walk(E->C, Info);
    for (const RExpr *Item : E->Items)
      walk(Item, Info);
    return;
  }
}

void appendRegionSet(std::string &Out, const std::vector<uint32_t> &Rs) {
  Out += '{';
  for (size_t I = 0; I < Rs.size(); ++I) {
    if (I)
      Out += ',';
    Out += 'r';
    Out += std::to_string(Rs[I]);
  }
  Out += '}';
}

} // namespace

CaptureInfo rml::analyzeCaptures(const RProgram &P) {
  CaptureInfo Info;
  walk(P.Root, Info);
  return Info;
}

std::string
rml::renderCaptureReport(Strategy Strat,
                         const std::vector<CaptureReportRow> &Rows) {
  std::string Out = "captures v1 strategy=";
  Out += strategyName(Strat);
  Out += " closures=" + std::to_string(Rows.size()) + "\n";

  std::set<uint32_t> Distinct;
  size_t Escaping = 0;
  for (size_t I = 0; I < Rows.size(); ++I) {
    const CaptureReportRow &R = Rows[I];
    Out += '#' + std::to_string(I) + ' ';
    if (R.IsFun) {
      Out += "fun ";
      Out += R.Self.empty() ? "_" : R.Self;
    } else {
      Out += "lam";
    }
    Out += '(';
    Out += R.Param.empty() ? "_" : R.Param;
    Out += ") value=";
    appendRegionSet(Out, R.ViaValue);
    Out += " latent=";
    appendRegionSet(Out, R.ViaEffect);
    Distinct.insert(R.ViaValue.begin(), R.ViaValue.end());
    Distinct.insert(R.ViaEffect.begin(), R.ViaEffect.end());
    // The GC-safety residue: value-captured regions the latent effect
    // does not promise to keep alive. Empty under rg by construction;
    // under rg- this is the observable unsoundness window.
    std::vector<uint32_t> Residue;
    std::set_difference(R.ViaValue.begin(), R.ViaValue.end(),
                        R.ViaEffect.begin(), R.ViaEffect.end(),
                        std::back_inserter(Residue));
    if (!Residue.empty()) {
      Out += " escaped=";
      appendRegionSet(Out, Residue);
      Escaping += Residue.size();
    }
    Out += '\n';
  }
  Out += "total closures=" + std::to_string(Rows.size()) +
         " regions=" + std::to_string(Distinct.size()) +
         " escaped=" + std::to_string(Escaping) + "\n";
  return Out;
}

std::vector<CaptureReportRow>
rml::captureReportRows(const CaptureInfo &Info, const Interner &Names) {
  std::vector<CaptureReportRow> Rows;
  Rows.reserve(Info.Closures.size());
  for (const ClosureCapture &C : Info.Closures) {
    CaptureReportRow R;
    R.IsFun = C.IsFun;
    if (C.Self.isValid())
      R.Self = std::string(Names.text(C.Self));
    if (C.Param.isValid())
      R.Param = std::string(Names.text(C.Param));
    R.ViaValue = C.ViaValue;
    R.ViaEffect = C.ViaEffect;
    Rows.push_back(std::move(R));
  }
  return Rows;
}
