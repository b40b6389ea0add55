//===- types/TypeCheck.cpp ------------------------------------------------===//

#include "types/TypeCheck.h"

#include <algorithm>
#include <cassert>

using namespace rml;

namespace {

class Checker {
public:
  Checker(TopLevelTypeEnv &Env, TypeArena &Arena, Interner &Names,
          DiagnosticEngine &Diags, TypeInfo &Info)
      : Arena(Arena), Names(Names), Diags(Diags), Info(Info),
        Bindings(Env.Values), Exns(Env.Exns) {}

  bool run(std::span<const Dec *const> Decs, const Expr *Result) {
    for (const Dec *D : Decs)
      checkDec(D);
    if (Result)
      checkExp(Result);
    return !Diags.hasErrors();
  }

private:
  //===--------------------------------------------------------------------===//
  // Environment
  //===--------------------------------------------------------------------===//

  using Scope = size_t;

  Scope openScope() { return Bindings.size(); }
  void closeScope(Scope S) { Bindings.resize(S); }

  void bindMono(Symbol Name, Type *T) {
    TypeBinding E;
    E.Scheme.Body = T;
    Bindings.emplace_back(Name, std::move(E));
  }

  void bindScheme(Symbol Name, TypeScheme S, const Dec *Origin) {
    TypeBinding E;
    E.Scheme = std::move(S);
    E.Origin = Origin;
    Bindings.emplace_back(Name, std::move(E));
  }

  const TypeBinding *lookup(Symbol Name) const {
    for (size_t I = Bindings.size(); I-- > 0;)
      if (Bindings[I].first == Name)
        return &Bindings[I].second;
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Helpers
  //===--------------------------------------------------------------------===//

  void reportUnifyError(SrcLoc Loc, Type *Want, Type *Got,
                        const char *Context) {
    Diags.error(Loc, std::string("type mismatch in ") + Context +
                         ": expected " + printType(Want) + ", found " +
                         printType(Got));
  }

  bool unifyAt(SrcLoc Loc, Type *Want, Type *Got, const char *Context) {
    if (unify(Want, Got))
      return true;
    reportUnifyError(Loc, Want, Got, Context);
    return false;
  }

  /// Converts a surface annotation into a type, mapping annotation type
  /// variables ('a) to per-top-level-declaration unification variables.
  Type *tyFromAnnot(const TyExpr *T) {
    switch (T->K) {
    case TyExpr::Kind::Int:
      return Arena.intTy();
    case TyExpr::Kind::Bool:
      return Arena.boolTy();
    case TyExpr::Kind::String:
      return Arena.stringTy();
    case TyExpr::Kind::Unit:
      return Arena.unitTy();
    case TyExpr::Kind::Exn:
      return Arena.exnTy();
    case TyExpr::Kind::Var: {
      auto It = AnnotVars.find(T->VarName);
      if (It != AnnotVars.end())
        return It->second;
      Type *V = Arena.freshVar(Level);
      AnnotVars.emplace(T->VarName, V);
      return V;
    }
    case TyExpr::Kind::Arrow:
      return Arena.arrow(tyFromAnnot(T->A), tyFromAnnot(T->B));
    case TyExpr::Kind::Pair:
      return Arena.pair(tyFromAnnot(T->A), tyFromAnnot(T->B));
    case TyExpr::Kind::List:
      return Arena.list(tyFromAnnot(T->A));
    case TyExpr::Kind::Ref:
      return Arena.ref(tyFromAnnot(T->A));
    }
    return Arena.unitTy();
  }

  /// Instantiates \p S with fresh variables; records the per-variable
  /// instances so region inference can apply substitution coverage.
  Type *instantiate(const TypeScheme &S, std::vector<Type *> *ArgsOut) {
    if (S.Quantified.empty())
      return S.Body;
    std::unordered_map<Type *, Type *> Map;
    for (Type *Q : S.Quantified) {
      Type *Fresh = Arena.freshVar(Level);
      Map.emplace(Q, Fresh);
      if (ArgsOut)
        ArgsOut->push_back(Fresh);
    }
    return copy(S.Body, Map);
  }

  Type *copy(Type *T, std::unordered_map<Type *, Type *> &Map) {
    T = resolve(T);
    auto It = Map.find(T);
    if (It != Map.end())
      return It->second;
    switch (T->K) {
    case TypeKind::Var:
    case TypeKind::Int:
    case TypeKind::Bool:
    case TypeKind::String:
    case TypeKind::Unit:
    case TypeKind::Exn:
      return T;
    case TypeKind::Arrow:
    case TypeKind::Pair: {
      Type *A = copy(T->A, Map);
      Type *B = copy(T->B, Map);
      if (A == T->A && B == T->B)
        return T;
      return Arena.make(T->K, A, B);
    }
    case TypeKind::List:
    case TypeKind::Ref: {
      Type *A = copy(T->A, Map);
      if (A == T->A)
        return T;
      return Arena.make(T->K, A);
    }
    }
    return T;
  }

  /// The value restriction: only syntactic values may be generalised.
  static bool isSyntacticValue(const Expr *E) {
    switch (E->K) {
    case Expr::Kind::IntLit:
    case Expr::Kind::StrLit:
    case Expr::Kind::BoolLit:
    case Expr::Kind::UnitLit:
    case Expr::Kind::Var:
    case Expr::Kind::Fn:
    case Expr::Kind::Nil:
      return true;
    case Expr::Kind::Pair:
      return isSyntacticValue(E->A) && isSyntacticValue(E->B);
    case Expr::Kind::BinOp:
      return E->Op == BinOpKind::Cons && isSyntacticValue(E->A) &&
             isSyntacticValue(E->B);
    case Expr::Kind::ExnCon:
      return !E->A || isSyntacticValue(E->A);
    case Expr::Kind::Annot:
      return isSyntacticValue(E->A);
    default:
      return false;
    }
  }

  /// Generalises \p T at the current level, freezing quantified variables
  /// as rigid nodes.
  TypeScheme generalize(Type *T) {
    TypeScheme S;
    S.Body = T;
    collectGeneralizable(T, Level, S.Quantified);
    for (Type *V : S.Quantified)
      V->Rigid = true;
    return S;
  }

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  void checkDec(const Dec *D) {
    // Annotation type variables ('a) scope over the smallest enclosing
    // declaration, so each val/fun gets a fresh annotation-variable map.
    std::unordered_map<Symbol, Type *> SavedAnnotVars;
    std::swap(SavedAnnotVars, AnnotVars);
    checkDecInner(D);
    std::swap(SavedAnnotVars, AnnotVars);
  }

  void checkDecInner(const Dec *D) {
    switch (D->K) {
    case Dec::Kind::Val: {
      ++Level;
      Type *T = checkExp(D->Body);
      if (D->Annot)
        unifyAt(D->Loc, tyFromAnnot(D->Annot), T, "val annotation");
      --Level;
      TypeScheme S;
      if (isSyntacticValue(D->Body)) {
        S = generalize(T);
      } else {
        S.Body = T;
        // Keep inner variables from being generalised later.
        std::vector<Type *> Escaping;
        collectGeneralizable(T, Level, Escaping);
        for (Type *V : Escaping)
          V->Level = Level;
      }
      Info.DecSchemes.emplace(D, S);
      bindScheme(D->Name, S, D);
      return;
    }
    case Dec::Kind::Fun: {
      ++Level;
      Type *ParamT = Arena.freshVar(Level);
      Type *ResultT = Arena.freshVar(Level);
      Type *FnT = Arena.arrow(ParamT, ResultT);
      if (D->ParamAnnot)
        unifyAt(D->Loc, tyFromAnnot(D->ParamAnnot), ParamT,
                "parameter annotation");
      if (D->ResultAnnot)
        unifyAt(D->Loc, tyFromAnnot(D->ResultAnnot), ResultT,
                "result annotation");
      Scope Sc = openScope();
      bindMono(D->Name, FnT); // monomorphic recursion
      bindMono(D->Param, ParamT);
      Type *BodyT = checkExp(D->Body);
      closeScope(Sc);
      unifyAt(D->Loc, ResultT, BodyT, "function body");
      --Level;
      TypeScheme S = generalize(FnT);
      Info.DecSchemes.emplace(D, S);
      Info.DecParamTypes.emplace(D, ParamT);
      bindScheme(D->Name, S, D);
      return;
    }
    case Dec::Kind::Exn: {
      Type *ArgT = D->Annot ? tyFromAnnot(D->Annot) : nullptr;
      Info.ExnArgTypes.emplace(D, ArgT);
      Exns.emplace_back(D->Name, D);
      return;
    }
    }
  }

  const Dec *lookupExn(Symbol Name) const {
    for (size_t I = Exns.size(); I-- > 0;)
      if (Exns[I].first == Name)
        return Exns[I].second;
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Type *checkExp(const Expr *E) {
    Type *T = checkExpInner(E);
    Info.ExprTypes[E] = T;
    return T;
  }

  Type *checkExpInner(const Expr *E) {
    switch (E->K) {
    case Expr::Kind::IntLit:
      return Arena.intTy();
    case Expr::Kind::StrLit:
      return Arena.stringTy();
    case Expr::Kind::BoolLit:
      return Arena.boolTy();
    case Expr::Kind::UnitLit:
      return Arena.unitTy();

    case Expr::Kind::Var: {
      const TypeBinding *Entry = lookup(E->Name);
      if (!Entry) {
        Diags.error(E->Loc, "unbound variable '" + Names.text(E->Name) + "'");
        return Arena.freshVar(Level);
      }
      if (Entry->Scheme.isMono())
        return Entry->Scheme.Body;
      InstInfo Inst;
      Inst.Origin = Entry->Origin;
      Type *T = instantiate(Entry->Scheme, &Inst.Args);
      Info.VarInsts.emplace(E, std::move(Inst));
      return T;
    }

    case Expr::Kind::Fn: {
      Type *ParamT = Arena.freshVar(Level);
      if (E->Ty)
        unifyAt(E->Loc, tyFromAnnot(E->Ty), ParamT, "parameter annotation");
      Scope Sc = openScope();
      bindMono(E->Name, ParamT);
      Type *BodyT = checkExp(E->A);
      closeScope(Sc);
      Info.BinderTypes[E] = ParamT;
      return Arena.arrow(ParamT, BodyT);
    }

    case Expr::Kind::App: {
      Type *FnT = checkExp(E->A);
      Type *ArgT = checkExp(E->B);
      Type *ResT = Arena.freshVar(Level);
      if (!unify(FnT, Arena.arrow(ArgT, ResT))) {
        Type *R = resolve(FnT);
        if (R->K != TypeKind::Arrow && R->K != TypeKind::Var)
          Diags.error(E->Loc, "applied expression is not a function (type " +
                                  printType(FnT) + ")");
        else
          Diags.error(E->Loc,
                      "argument type mismatch: function expects " +
                          printType(R->K == TypeKind::Arrow ? R->A : FnT) +
                          ", found " + printType(ArgT));
      }
      return ResT;
    }

    case Expr::Kind::Pair:
      return Arena.pair(checkExp(E->A), checkExp(E->B));

    case Expr::Kind::Sel: {
      Type *PairT = checkExp(E->A);
      Type *L = Arena.freshVar(Level);
      Type *R = Arena.freshVar(Level);
      unifyAt(E->Loc, Arena.pair(L, R), PairT, "pair projection");
      return E->SelIndex == 1 ? L : R;
    }

    case Expr::Kind::Let: {
      Scope Sc = openScope();
      size_t ExnMark = Exns.size();
      for (const Dec *D : E->Decs)
        checkDec(D);
      Type *T = checkExp(E->A);
      closeScope(Sc);
      Exns.resize(ExnMark);
      return T;
    }

    case Expr::Kind::If: {
      Type *CondT = checkExp(E->A);
      unifyAt(E->A->Loc, Arena.boolTy(), CondT, "if condition");
      Type *ThenT = checkExp(E->B);
      Type *ElseT = checkExp(E->C);
      unifyAt(E->Loc, ThenT, ElseT, "if branches");
      return ThenT;
    }

    case Expr::Kind::BinOp:
      return checkBinOp(E);

    case Expr::Kind::Nil:
      return Arena.list(Arena.freshVar(Level));

    case Expr::Kind::ListCase: {
      Type *ScrutT = checkExp(E->A);
      Type *ElemT = Arena.freshVar(Level);
      unifyAt(E->A->Loc, Arena.list(ElemT), ScrutT, "case scrutinee");
      Type *NilT = checkExp(E->B);
      Scope Sc = openScope();
      bindMono(E->HeadName, ElemT);
      bindMono(E->TailName, Arena.list(ElemT));
      Type *ConsT = checkExp(E->C);
      closeScope(Sc);
      unifyAt(E->Loc, NilT, ConsT, "case branches");
      Info.BinderTypes[E] = ElemT;
      return NilT;
    }

    case Expr::Kind::Ref:
      return Arena.ref(checkExp(E->A));

    case Expr::Kind::Deref: {
      Type *RefT = checkExp(E->A);
      Type *ElemT = Arena.freshVar(Level);
      unifyAt(E->Loc, Arena.ref(ElemT), RefT, "dereference");
      return ElemT;
    }

    case Expr::Kind::Assign: {
      Type *RefT = checkExp(E->A);
      Type *ValT = checkExp(E->B);
      unifyAt(E->Loc, Arena.ref(ValT), RefT, "assignment");
      return Arena.unitTy();
    }

    case Expr::Kind::Seq: {
      assert(!E->Items.empty() && "empty sequence");
      Type *T = nullptr;
      for (const Expr *Item : E->Items)
        T = checkExp(Item);
      return T;
    }

    case Expr::Kind::Raise: {
      Type *ExnT = checkExp(E->A);
      unifyAt(E->Loc, Arena.exnTy(), ExnT, "raise");
      return Arena.freshVar(Level);
    }

    case Expr::Kind::Handle: {
      Type *BodyT = checkExp(E->A);
      Scope Sc = openScope();
      if (E->ExnName.isValid()) {
        const Dec *ExnD = lookupExn(E->ExnName);
        if (!ExnD) {
          Diags.error(E->Loc, "unbound exception constructor '" +
                                  Names.text(E->ExnName) + "'");
        } else {
          Info.ExnRefs.emplace(E, ExnD);
          Type *ArgT = Info.ExnArgTypes.at(ExnD);
          if (E->BindName.isValid()) {
            if (!ArgT) {
              Diags.error(E->Loc, "exception '" + Names.text(E->ExnName) +
                                      "' carries no argument");
              ArgT = Arena.unitTy();
            }
            bindMono(E->BindName, ArgT);
            Info.BinderTypes[E] = ArgT;
          }
        }
      }
      Type *HandlerT = checkExp(E->B);
      closeScope(Sc);
      unifyAt(E->Loc, BodyT, HandlerT, "handle branches");
      return BodyT;
    }

    case Expr::Kind::ExnCon: {
      const Dec *ExnD = lookupExn(E->Name);
      if (!ExnD) {
        Diags.error(E->Loc, "unbound exception constructor '" +
                                Names.text(E->Name) + "'");
        if (E->A)
          checkExp(E->A);
        return Arena.exnTy();
      }
      Info.ExnRefs.emplace(E, ExnD);
      Type *ArgT = Info.ExnArgTypes.at(ExnD);
      if (E->A) {
        Type *GotT = checkExp(E->A);
        if (!ArgT)
          Diags.error(E->Loc, "exception '" + Names.text(E->Name) +
                                  "' carries no argument");
        else
          unifyAt(E->Loc, ArgT, GotT, "exception argument");
      } else if (ArgT) {
        Diags.error(E->Loc, "exception '" + Names.text(E->Name) +
                                "' requires an argument");
      }
      return Arena.exnTy();
    }

    case Expr::Kind::Annot: {
      Type *T = checkExp(E->A);
      unifyAt(E->Loc, tyFromAnnot(E->Ty), T, "type annotation");
      return T;
    }

    case Expr::Kind::Prim: {
      Type *ArgT = checkExp(E->A);
      switch (E->Prim) {
      case Expr::PrimKind::Print:
        unifyAt(E->Loc, Arena.stringTy(), ArgT, "print");
        return Arena.unitTy();
      case Expr::PrimKind::Itos:
        unifyAt(E->Loc, Arena.intTy(), ArgT, "itos");
        return Arena.stringTy();
      case Expr::PrimKind::Size:
        unifyAt(E->Loc, Arena.stringTy(), ArgT, "size");
        return Arena.intTy();
      case Expr::PrimKind::Work:
        unifyAt(E->Loc, Arena.intTy(), ArgT, "work");
        return Arena.unitTy();
      case Expr::PrimKind::Global:
        return ArgT; // identity; only region inference cares
      }
      return Arena.unitTy();
    }
    }
    assert(false && "unhandled expression kind");
    return Arena.unitTy();
  }

  Type *checkBinOp(const Expr *E) {
    Type *L = checkExp(E->A);
    Type *R = checkExp(E->B);
    switch (E->Op) {
    case BinOpKind::Add:
    case BinOpKind::Sub:
    case BinOpKind::Mul:
    case BinOpKind::Div:
    case BinOpKind::Mod:
      unifyAt(E->A->Loc, Arena.intTy(), L, "arithmetic operand");
      unifyAt(E->B->Loc, Arena.intTy(), R, "arithmetic operand");
      return Arena.intTy();
    case BinOpKind::Less:
    case BinOpKind::LessEq:
    case BinOpKind::Greater:
    case BinOpKind::GreaterEq:
      unifyAt(E->A->Loc, Arena.intTy(), L, "comparison operand");
      unifyAt(E->B->Loc, Arena.intTy(), R, "comparison operand");
      return Arena.boolTy();
    case BinOpKind::Eq:
    case BinOpKind::NotEq: {
      unifyAt(E->Loc, L, R, "equality");
      Type *T = resolve(L);
      // Overloaded equality on the ground scalar and string types;
      // unconstrained operands default to int.
      if (T->K == TypeKind::Var && !T->Rigid)
        unify(T, Arena.intTy());
      else if (T->K != TypeKind::Int && T->K != TypeKind::Bool &&
               T->K != TypeKind::String && T->K != TypeKind::Unit)
        Diags.error(E->Loc,
                    "equality is only defined on int, bool, string and "
                    "unit, not " +
                        printType(T));
      return Arena.boolTy();
    }
    case BinOpKind::StrEq:
      unifyAt(E->A->Loc, Arena.stringTy(), L, "string equality");
      unifyAt(E->B->Loc, Arena.stringTy(), R, "string equality");
      return Arena.boolTy();
    case BinOpKind::Concat:
      unifyAt(E->A->Loc, Arena.stringTy(), L, "string concatenation");
      unifyAt(E->B->Loc, Arena.stringTy(), R, "string concatenation");
      return Arena.stringTy();
    case BinOpKind::Cons:
      unifyAt(E->Loc, Arena.list(L), R, "cons");
      return Arena.list(L);
    case BinOpKind::AndAlso:
    case BinOpKind::OrElse:
      unifyAt(E->A->Loc, Arena.boolTy(), L, "boolean operand");
      unifyAt(E->B->Loc, Arena.boolTy(), R, "boolean operand");
      return Arena.boolTy();
    }
    return Arena.unitTy();
  }

  TypeArena &Arena;
  Interner &Names;
  DiagnosticEngine &Diags;
  TypeInfo &Info;
  uint32_t Level = 0;
  std::vector<std::pair<Symbol, TypeBinding>> &Bindings;
  std::vector<std::pair<Symbol, const Dec *>> &Exns;
  std::unordered_map<Symbol, Type *> AnnotVars;
};

/// True when every variable reachable from \p T is in \p Own.
bool onlyVarsOf(Type *T, const std::vector<Type *> &Own) {
  std::vector<Type *> Vars;
  collectAllVars(T, Vars);
  for (Type *V : Vars)
    if (std::find(Own.begin(), Own.end(), V) == Own.end())
      return false;
  return true;
}

/// Points every link reachable from \p T at its representative.
void compressFrom(Type *T) {
  while (T->K == TypeKind::Var && T->Link) {
    Type *Rep = resolve(T);
    T->Link = Rep;
    T = Rep;
  }
  if (T->A)
    compressFrom(T->A);
  if (T->B)
    compressFrom(T->B);
}

} // namespace

bool TopLevelTypeEnv::closed(const TypeInfo &Info) const {
  for (const auto &[Name, B] : Values)
    if (!onlyVarsOf(B.Scheme.Body, B.Scheme.Quantified))
      return false;
  for (const auto &[Name, D] : Exns) {
    auto It = Info.ExnArgTypes.find(D);
    if (It != Info.ExnArgTypes.end() && It->second &&
        !onlyVarsOf(It->second, {}))
      return false;
  }
  return true;
}

void TopLevelTypeEnv::compressLinks() {
  for (auto &[Name, B] : Values)
    compressFrom(B.Scheme.Body);
}

bool rml::checkProgram(const Program &P, TypeArena &Arena, Interner &Names,
                       DiagnosticEngine &Diags, TypeInfo &Info) {
  TopLevelTypeEnv Env;
  return checkTopLevel(P.Decs, P.Result, Env, Arena, Names, Diags, Info);
}

bool rml::checkTopLevel(std::span<const Dec *const> Decs, const Expr *Result,
                        TopLevelTypeEnv &Env, TypeArena &Arena,
                        Interner &Names, DiagnosticEngine &Diags,
                        TypeInfo &Info) {
  Checker C(Env, Arena, Names, Diags, Info);
  return C.run(Decs, Result);
}
