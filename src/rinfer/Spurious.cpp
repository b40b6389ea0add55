//===- rinfer/Spurious.cpp ------------------------------------------------===//

#include "rinfer/Spurious.h"

#include <algorithm>

using namespace rml;

namespace {

/// One enclosing function expression during the walk: the type variables
/// of the function's own type, plus every symbol bound inside it so far.
struct FunFrame {
  std::unordered_set<const Type *> OwnTyVars;
};

class Walker {
public:
  Walker(const TypeInfo &Info, SpuriousInfo &Out) : Info(Info), Out(Out) {}

  void run(std::span<const Dec *const> Decs, const Expr *Result) {
    for (const Dec *D : Decs)
      walkDec(D);
    walk(Result);
  }

private:
  static std::unordered_set<const Type *> tyVarsOf(Type *T) {
    std::unordered_set<const Type *> Set;
    if (!T)
      return Set;
    std::vector<Type *> Vars;
    collectAllVars(T, Vars);
    Set.insert(Vars.begin(), Vars.end());
    return Set;
  }

  void bind(Symbol S) { Bindings.emplace_back(S, Frames.size()); }
  void unbind(size_t Mark) { Bindings.resize(Mark); }

  /// Frame index at which \p S was bound (0 = outside every function).
  size_t bindingDepth(Symbol S) const {
    for (size_t I = Bindings.size(); I-- > 0;)
      if (Bindings[I].first == S)
        return Bindings[I].second;
    return 0; // unbound/top-level: free in every frame
  }

  /// Marks the variables of \p UseTy that are hidden from the types of
  /// all function frames strictly enclosing the binding (case (1) of the
  /// analysis).
  void markOccurrence(Symbol S, Type *UseTy) {
    if (!UseTy || Frames.empty())
      return;
    size_t Depth = bindingDepth(S);
    if (Depth >= Frames.size())
      return; // bound within the innermost function
    std::vector<Type *> Vars;
    collectAllVars(UseTy, Vars);
    if (Vars.empty())
      return;
    for (size_t F = Depth; F < Frames.size(); ++F) {
      for (Type *V : Vars) {
        V = resolve(V);
        if (V->K != TypeKind::Var || !V->Rigid)
          continue;
        if (!Frames[F].OwnTyVars.count(V))
          Out.SpuriousVars.insert(V);
      }
    }
  }

  void enterFunction(Type *FnTy, Symbol Name, Symbol Param) {
    Frames.push_back(FunFrame{tyVarsOf(FnTy)});
    if (Name.isValid())
      bind(Name);
    bind(Param);
  }

  void walkDec(const Dec *D) {
    switch (D->K) {
    case Dec::Kind::Val:
      walk(D->Body);
      bind(D->Name);
      return;
    case Dec::Kind::Fun: {
      ++Out.TotalFunctions;
      auto SchemeIt = Info.DecSchemes.find(D);
      Type *FnTy =
          SchemeIt != Info.DecSchemes.end() ? SchemeIt->second.Body : nullptr;
      size_t Mark = Bindings.size();
      enterFunction(FnTy, D->Name, D->Param);
      walk(D->Body);
      unbind(Mark);
      Frames.pop_back();
      bind(D->Name);
      return;
    }
    case Dec::Kind::Exn: {
      // Section 4.4: type variables in exception argument types are
      // spurious and pinned to the global region.
      auto It = Info.ExnArgTypes.find(D);
      if (It != Info.ExnArgTypes.end() && It->second) {
        std::vector<Type *> Vars;
        collectAllVars(It->second, Vars);
        for (Type *V : Vars) {
          V = resolve(V);
          if (V->K == TypeKind::Var && V->Rigid) {
            Out.SpuriousVars.insert(V);
            Out.ExnForcedVars.insert(V);
          }
        }
      }
      return;
    }
    }
  }

  void walk(const Expr *E) {
    if (!E)
      return;
    switch (E->K) {
    case Expr::Kind::Var:
      markOccurrence(E->Name, lookupType(E));
      return;
    case Expr::Kind::Fn: {
      ++Out.TotalFunctions;
      size_t Mark = Bindings.size();
      enterFunction(lookupType(E), Symbol(), E->Name);
      walk(E->A);
      unbind(Mark);
      Frames.pop_back();
      return;
    }
    case Expr::Kind::Let: {
      size_t Mark = Bindings.size();
      for (const Dec *D : E->Decs)
        walkDec(D);
      walk(E->A);
      unbind(Mark);
      return;
    }
    case Expr::Kind::ListCase: {
      walk(E->A);
      walk(E->B);
      size_t Mark = Bindings.size();
      bind(E->HeadName);
      bind(E->TailName);
      walk(E->C);
      unbind(Mark);
      return;
    }
    case Expr::Kind::Handle: {
      walk(E->A);
      size_t Mark = Bindings.size();
      if (E->BindName.isValid())
        bind(E->BindName);
      walk(E->B);
      unbind(Mark);
      return;
    }
    default:
      walk(E->A);
      walk(E->B);
      walk(E->C);
      for (const Expr *Item : E->Items)
        walk(Item);
      return;
    }
  }

  Type *lookupType(const Expr *E) const {
    auto It = Info.ExprTypes.find(E);
    return It == Info.ExprTypes.end() ? nullptr : resolve(It->second);
  }

  const TypeInfo &Info;
  SpuriousInfo &Out;
  std::vector<FunFrame> Frames;
  std::vector<std::pair<Symbol, size_t>> Bindings;
};

bool isBoxedMLType(Type *T) {
  switch (resolve(T)->K) {
  case TypeKind::Arrow:
  case TypeKind::Pair:
  case TypeKind::List:
  case TypeKind::Ref:
  case TypeKind::String:
  case TypeKind::Exn:
    return true;
  default:
    return false;
  }
}

} // namespace

SpuriousInfo rml::analyzeSpurious(const Program &P, const TypeInfo &Info) {
  return analyzeSpurious(P.Decs, P.Result, Info, SpuriousInfo());
}

SpuriousInfo rml::analyzeSpurious(std::span<const Dec *const> Decs,
                                  const Expr *Result, const TypeInfo &Info,
                                  const SpuriousInfo &Prefix) {
  SpuriousInfo Out = Prefix;
  // Top-level names sit outside every function frame, so the walk
  // needs nothing of the prefix's.
  Walker W(Info, Out);
  W.run(Decs, Result);

  // Case (2): close under "occurs in a type instantiated for another
  // spurious variable" (the Figure 8 chain).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &[Use, Inst] : Info.VarInsts) {
      auto SchemeIt = Info.DecSchemes.find(Inst.Origin);
      if (SchemeIt == Info.DecSchemes.end())
        continue;
      const TypeScheme &S = SchemeIt->second;
      for (size_t I = 0; I < S.Quantified.size() && I < Inst.Args.size();
           ++I) {
        const Type *Q = resolve(S.Quantified[I]);
        if (!Out.SpuriousVars.count(Q))
          continue;
        std::vector<Type *> Vars;
        collectAllVars(Inst.Args[I], Vars);
        for (Type *V : Vars) {
          V = resolve(V);
          if (V->K != TypeKind::Var || !V->Rigid)
            continue;
          if (Out.SpuriousVars.insert(V).second)
            Changed = true;
          // Exception-forcing also propagates: an instance of an
          // exn-forced variable must itself be globally allocatable.
          if (Out.ExnForcedVars.count(Q) &&
              Out.ExnForcedVars.insert(V).second)
            Changed = true;
        }
      }
    }
  }

  // Ownership: which declarations quantify a spurious variable.
  for (const auto &[D, S] : Info.DecSchemes) {
    bool Spurious = false;
    for (Type *Q : S.Quantified)
      if (Out.SpuriousVars.count(resolve(Q)))
        Spurious = true;
    if (Spurious)
      Out.SpuriousDecs.insert(D);
  }

  // Figure 9 statistics.
  Out.SpuriousFunctions = 0;
  for (const Dec *D : Out.SpuriousDecs) {
    if (D->K == Dec::Kind::Fun ||
        (D->K == Dec::Kind::Val && D->Body &&
         D->Body->K == Expr::Kind::Fn))
      ++Out.SpuriousFunctions;
  }
  for (const auto &[Use, Inst] : Info.VarInsts) {
    auto SchemeIt = Info.DecSchemes.find(Inst.Origin);
    if (SchemeIt == Info.DecSchemes.end())
      continue;
    const TypeScheme &S = SchemeIt->second;
    for (size_t I = 0; I < S.Quantified.size() && I < Inst.Args.size();
         ++I) {
      ++Out.TotalInsts;
      if (Out.SpuriousVars.count(resolve(S.Quantified[I])) &&
          isBoxedMLType(Inst.Args[I]))
        ++Out.SpuriousBoxedInsts;
    }
  }
  return Out;
}
