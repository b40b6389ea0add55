//===- region/RExpr.cpp ---------------------------------------------------===//

#include "region/RExpr.h"

#include <algorithm>
#include <cassert>

using namespace rml;

void FreeVarTable::fill(const RExpr *E) {
  if (!E || has(E))
    return;
  fill(E->A);
  fill(E->B);
  fill(E->C);
  for (const RExpr *Item : E->Items)
    fill(Item);
  compute(E);
}

void FreeVarTable::compute(const RExpr *E) {
  if (++Epoch == 0) { // wrapped: forget every mark
    std::fill(Seen.begin(), Seen.end(), 0);
    Epoch = 1;
  }
  uint32_t Begin = static_cast<uint32_t>(Syms.size());
  Entry First; // the first child that contributed, if any
  auto Take = [&](Symbol S) {
    if (S.Id >= Seen.size())
      Seen.resize(S.Id + 1, 0);
    if (Seen[S.Id] == Epoch)
      return;
    Seen[S.Id] = Epoch;
    Syms.push_back(S);
  };
  // Child C's list without the binders \p B1 and \p B2 (invalid symbols
  // bind nothing).
  auto TakeChild = [&](const RExpr *C, Symbol B1 = Symbol(),
                       Symbol B2 = Symbol()) {
    if (!C)
      return;
    Entry X = *find(C);
    if (First.Size == 0)
      First = X;
    // Indices, not pointers: Take may reallocate Syms.
    for (uint32_t I = X.Begin, End = X.Begin + X.Size; I < End; ++I) {
      Symbol S = Syms[I];
      if ((B1.isValid() && S == B1) || (B2.isValid() && S == B2))
        continue;
      Take(S);
    }
  };

  switch (E->K) {
  case RExpr::Kind::Var:
    Take(E->Name);
    break;
  case RExpr::Kind::Lam:
  case RExpr::Kind::ClosVal:
    TakeChild(E->A, E->Param);
    break;
  case RExpr::Kind::FunBind:
  case RExpr::Kind::FunVal:
    TakeChild(E->A, E->Name, E->Param);
    break;
  case RExpr::Kind::Let:
    TakeChild(E->A);
    TakeChild(E->B, E->Name);
    break;
  case RExpr::Kind::ListCase:
    TakeChild(E->A);
    TakeChild(E->B);
    TakeChild(E->C, E->HeadName, E->TailName);
    break;
  case RExpr::Kind::Handle:
    TakeChild(E->A);
    TakeChild(E->B, E->BindName);
    break;
  default:
    TakeChild(E->A);
    TakeChild(E->B);
    TakeChild(E->C);
    for (const RExpr *Item : E->Items)
      TakeChild(Item);
    break;
  }

  Entry Mine{E, Begin, static_cast<uint32_t>(Syms.size() - Begin)};
  if (Mine.Size == 0) {
    Mine.Begin = 0;
  } else if (First.Size == Mine.Size &&
             std::equal(Syms.begin() + Begin, Syms.end(),
                        Syms.begin() + First.Begin)) {
    Mine.Begin = First.Begin;
    Syms.resize(Begin);
  }
  if (E->Id >= FirstId) {
    size_t I = E->Id - FirstId;
    if (I >= Dense.size())
      Dense.resize(I + 1);
    if (!Dense[I].Node) {
      Dense[I] = Mine;
      return;
    }
  }
  Spill.emplace(E, Mine);
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

class RPrinter {
public:
  explicit RPrinter(const Interner &Names) : Names(Names) {}

  std::string run(const RExpr *E) {
    print(E, 0);
    return std::move(Out);
  }

private:
  void indent(unsigned Depth) {
    Out += '\n';
    Out.append(2 * Depth, ' ');
  }

  void printQuantifiers(const RScheme &S) {
    Out += '[';
    bool First = true;
    for (RegionVar R : S.QRegions) {
      if (!First)
        Out += ',';
      First = false;
      Out += printRegionVar(R);
    }
    for (EffectVar E : S.QEffects) {
      if (!First)
        Out += ',';
      First = false;
      Out += printEffectVar(E);
    }
    for (const auto &[A, Nu] : S.Delta) {
      if (!First)
        Out += ',';
      First = false;
      Out += printTyVar(A);
      if (Nu) {
        Out += ':';
        Out += printArrowEff(*Nu);
      }
    }
    Out += ']';
  }

  void print(const RExpr *E, unsigned Depth) {
    if (!E) {
      Out += "<null>";
      return;
    }
    switch (E->K) {
    case RExpr::Kind::IntLit:
      Out += std::to_string(E->IntValue);
      return;
    case RExpr::Kind::BoolLit:
      Out += E->BoolValue ? "true" : "false";
      return;
    case RExpr::Kind::UnitLit:
      Out += "()";
      return;
    case RExpr::Kind::Var:
      Out += Names.text(E->Name);
      return;
    case RExpr::Kind::Lam:
      Out += "(fn ";
      Out += Names.text(E->Param);
      Out += " => ";
      print(E->A, Depth);
      Out += ") at ";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::ClosVal:
      Out += "<fn ";
      Out += Names.text(E->Param);
      Out += " => ";
      print(E->A, Depth);
      Out += ">^";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::FunBind:
    case RExpr::Kind::FunVal: {
      bool IsVal = E->K == RExpr::Kind::FunVal;
      Out += IsVal ? "<fun " : "fun ";
      Out += Names.text(E->Name);
      printQuantifiers(E->Sigma);
      Out += ' ';
      Out += Names.text(E->Param);
      Out += " = ";
      print(E->A, Depth + 1);
      if (IsVal) {
        Out += ">^";
      } else {
        Out += " at ";
      }
      Out += printRegionVar(E->AtRho);
      return;
    }
    case RExpr::Kind::PairE:
      Out += '(';
      print(E->A, Depth);
      Out += ", ";
      print(E->B, Depth);
      Out += ") at ";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::PairVal:
      Out += '<';
      print(E->A, Depth);
      Out += ", ";
      print(E->B, Depth);
      Out += ">^";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::StrE:
      Out += '"';
      Out += E->StrValue;
      Out += "\" at ";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::StrVal:
      Out += "<\"";
      Out += E->StrValue;
      Out += "\">^";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::ConsE:
      Out += '(';
      print(E->A, Depth);
      Out += " :: ";
      print(E->B, Depth);
      Out += ") at ";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::ConsVal:
      Out += '<';
      print(E->A, Depth);
      Out += " :: ";
      print(E->B, Depth);
      Out += ">^";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::NilVal:
      Out += "nil";
      return;
    case RExpr::Kind::RefE:
      Out += "(ref ";
      print(E->A, Depth);
      Out += ") at ";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::RApp:
      print(E->A, Depth);
      Out += ' ';
      Out += E->Inst.str();
      Out += " at ";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::ExnConE:
      Out += Names.text(E->ExnName);
      if (E->A) {
        Out += ' ';
        print(E->A, Depth);
      }
      Out += " at ";
      Out += printRegionVar(E->AtRho);
      return;
    case RExpr::Kind::Let:
      Out += "let val ";
      Out += Names.text(E->Name);
      if (E->A && E->A->MuOf) {
        Out += " : ";
        Out += printMu(E->A->MuOf);
      }
      Out += " =";
      indent(Depth + 1);
      print(E->A, Depth + 1);
      indent(Depth);
      Out += "in ";
      print(E->B, Depth + 1);
      Out += " end";
      return;
    case RExpr::Kind::App:
      Out += '(';
      print(E->A, Depth);
      Out += ' ';
      print(E->B, Depth);
      Out += ')';
      return;
    case RExpr::Kind::LetRegion: {
      // Coalesce nested binders into the paper's "letregion r1,r2,r3 in"
      // notation (Figure 2).
      Out += "letregion ";
      const RExpr *Cur = E;
      bool First = true;
      while (true) {
        if (!First)
          Out += ',';
        First = false;
        Out += printRegionVar(Cur->BoundRho);
        for (EffectVar Ev : Cur->BoundEffs) {
          Out += ',';
          Out += printEffectVar(Ev);
        }
        if (Cur->A->K != RExpr::Kind::LetRegion)
          break;
        Cur = Cur->A;
      }
      Out += " in";
      indent(Depth + 1);
      print(Cur->A, Depth + 1);
      indent(Depth);
      Out += "end";
      return;
    }
    case RExpr::Kind::Sel:
      Out += '#';
      Out += std::to_string(E->SelIndex);
      Out += ' ';
      print(E->A, Depth);
      return;
    case RExpr::Kind::If:
      Out += "(if ";
      print(E->A, Depth);
      Out += " then ";
      print(E->B, Depth);
      Out += " else ";
      print(E->C, Depth);
      Out += ')';
      return;
    case RExpr::Kind::BinOp:
      Out += '(';
      print(E->A, Depth);
      Out += ' ';
      Out += binOpName(E->Op);
      if (E->AtRho.isValid()) {
        Out += '[';
        Out += printRegionVar(E->AtRho);
        Out += ']';
      }
      Out += ' ';
      print(E->B, Depth);
      Out += ')';
      return;
    case RExpr::Kind::ListCase:
      Out += "(case ";
      print(E->A, Depth);
      Out += " of nil => ";
      print(E->B, Depth);
      Out += " | ";
      Out += Names.text(E->HeadName);
      Out += "::";
      Out += Names.text(E->TailName);
      Out += " => ";
      print(E->C, Depth);
      Out += ')';
      return;
    case RExpr::Kind::Deref:
      Out += '!';
      print(E->A, Depth);
      return;
    case RExpr::Kind::Assign:
      Out += '(';
      print(E->A, Depth);
      Out += " := ";
      print(E->B, Depth);
      Out += ')';
      return;
    case RExpr::Kind::Seq: {
      Out += '(';
      bool First = true;
      for (const RExpr *Item : E->Items) {
        if (!First)
          Out += "; ";
        First = false;
        print(Item, Depth);
      }
      Out += ')';
      return;
    }
    case RExpr::Kind::Raise:
      Out += "(raise ";
      print(E->A, Depth);
      Out += ')';
      return;
    case RExpr::Kind::Handle:
      Out += '(';
      print(E->A, Depth);
      Out += " handle ";
      Out += E->ExnName.isValid() ? Names.text(E->ExnName) : "_";
      if (E->BindName.isValid()) {
        Out += ' ';
        Out += Names.text(E->BindName);
      }
      Out += " => ";
      print(E->B, Depth);
      Out += ')';
      return;
    case RExpr::Kind::Prim: {
      const char *Name = "?";
      switch (E->PrimK) {
      case Expr::PrimKind::Print:
        Name = "print";
        break;
      case Expr::PrimKind::Itos:
        Name = "itos";
        break;
      case Expr::PrimKind::Size:
        Name = "size";
        break;
      case Expr::PrimKind::Work:
        Name = "work";
        break;
      case Expr::PrimKind::Global:
        Name = "global";
        break;
      }
      Out += '(';
      Out += Name;
      if (E->AtRho.isValid()) {
        Out += '[';
        Out += printRegionVar(E->AtRho);
        Out += ']';
      }
      Out += ' ';
      print(E->A, Depth);
      Out += ')';
      return;
    }
    }
  }

  const Interner &Names;
  std::string Out;
};

} // namespace

std::string rml::printRExpr(const RExpr *E, const Interner &Names) {
  return RPrinter(Names).run(E);
}
