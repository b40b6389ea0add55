//===- ast/Ast.cpp - AST printing -----------------------------------------===//

#include "ast/Ast.h"

using namespace rml;

const char *rml::binOpName(BinOpKind K) {
  switch (K) {
  case BinOpKind::Add:
    return "+";
  case BinOpKind::Sub:
    return "-";
  case BinOpKind::Mul:
    return "*";
  case BinOpKind::Div:
    return "div";
  case BinOpKind::Mod:
    return "mod";
  case BinOpKind::Less:
    return "<";
  case BinOpKind::LessEq:
    return "<=";
  case BinOpKind::Greater:
    return ">";
  case BinOpKind::GreaterEq:
    return ">=";
  case BinOpKind::Eq:
    return "=";
  case BinOpKind::NotEq:
    return "<>";
  case BinOpKind::Concat:
    return "^";
  case BinOpKind::Cons:
    return "::";
  case BinOpKind::AndAlso:
    return "andalso";
  case BinOpKind::OrElse:
    return "orelse";
  case BinOpKind::StrEq:
    return "seq";
  }
  return "?";
}

std::string rml::printTyExpr(const TyExpr *T, const Interner &Names) {
  if (!T)
    return "<null-ty>";
  switch (T->K) {
  case TyExpr::Kind::Int:
    return "int";
  case TyExpr::Kind::Bool:
    return "bool";
  case TyExpr::Kind::String:
    return "string";
  case TyExpr::Kind::Unit:
    return "unit";
  case TyExpr::Kind::Exn:
    return "exn";
  case TyExpr::Kind::Var:
    return Names.text(T->VarName);
  case TyExpr::Kind::Arrow:
  case TyExpr::Kind::Pair: {
    std::string Out = "(";
    Out += printTyExpr(T->A, Names);
    Out += T->K == TyExpr::Kind::Arrow ? " -> " : " * ";
    Out += printTyExpr(T->B, Names);
    Out += ')';
    return Out;
  }
  case TyExpr::Kind::List:
    return printTyExpr(T->A, Names) + " list";
  case TyExpr::Kind::Ref:
    return printTyExpr(T->A, Names) + " ref";
  }
  return "?";
}

static void printDec(const Dec *D, const Interner &Names, std::string &Out);

static void print(const Expr *E, const Interner &Names, std::string &Out) {
  if (!E) {
    Out += "<null>";
    return;
  }
  switch (E->K) {
  case Expr::Kind::IntLit:
    Out += std::to_string(E->IntValue);
    return;
  case Expr::Kind::StrLit:
    Out += '"';
    Out += E->StrValue;
    Out += '"';
    return;
  case Expr::Kind::BoolLit:
    Out += E->BoolValue ? "true" : "false";
    return;
  case Expr::Kind::UnitLit:
    Out += "()";
    return;
  case Expr::Kind::Var:
    Out += Names.text(E->Name);
    return;
  case Expr::Kind::Fn:
    Out += "(fn ";
    Out += Names.text(E->Name);
    Out += " => ";
    print(E->A, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::App:
    Out += "(";
    print(E->A, Names, Out);
    Out += " ";
    print(E->B, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::Pair:
    Out += "(";
    print(E->A, Names, Out);
    Out += ", ";
    print(E->B, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::Sel:
    Out += "#";
    Out += std::to_string(E->SelIndex);
    Out += " ";
    print(E->A, Names, Out);
    return;
  case Expr::Kind::Let:
    Out += "let ";
    for (const Dec *D : E->Decs) {
      printDec(D, Names, Out);
      Out += " ";
    }
    Out += "in ";
    print(E->A, Names, Out);
    Out += " end";
    return;
  case Expr::Kind::If:
    Out += "(if ";
    print(E->A, Names, Out);
    Out += " then ";
    print(E->B, Names, Out);
    Out += " else ";
    print(E->C, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::BinOp:
    Out += "(";
    print(E->A, Names, Out);
    Out += " ";
    Out += binOpName(E->Op);
    Out += " ";
    print(E->B, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::Nil:
    Out += "nil";
    return;
  case Expr::Kind::ListCase:
    Out += "(case ";
    print(E->A, Names, Out);
    Out += " of nil => ";
    print(E->B, Names, Out);
    Out += " | ";
    Out += Names.text(E->HeadName);
    Out += " :: ";
    Out += Names.text(E->TailName);
    Out += " => ";
    print(E->C, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::Ref:
    Out += "(ref ";
    print(E->A, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::Deref:
    Out += "!";
    print(E->A, Names, Out);
    return;
  case Expr::Kind::Assign:
    Out += "(";
    print(E->A, Names, Out);
    Out += " := ";
    print(E->B, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::Seq: {
    Out += "(";
    bool First = true;
    for (const Expr *Item : E->Items) {
      if (!First)
        Out += "; ";
      First = false;
      print(Item, Names, Out);
    }
    Out += ")";
    return;
  }
  case Expr::Kind::Raise:
    Out += "(raise ";
    print(E->A, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::Handle:
    Out += "(";
    print(E->A, Names, Out);
    Out += " handle ";
    Out += E->ExnName.isValid() ? Names.text(E->ExnName) : "_";
    if (E->BindName.isValid()) {
      Out += " ";
      Out += Names.text(E->BindName);
    }
    Out += " => ";
    print(E->B, Names, Out);
    Out += ")";
    return;
  case Expr::Kind::ExnCon:
    Out += Names.text(E->Name);
    if (E->A) {
      Out += " ";
      print(E->A, Names, Out);
    }
    return;
  case Expr::Kind::Annot:
    Out += "(";
    print(E->A, Names, Out);
    Out += " : ";
    Out += printTyExpr(E->Ty, Names);
    Out += ")";
    return;
  case Expr::Kind::Prim: {
    const char *Name = "?";
    switch (E->Prim) {
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
    Out += "(";
    Out += Name;
    Out += " ";
    print(E->A, Names, Out);
    Out += ")";
    return;
  }
  }
}

static void printDec(const Dec *D, const Interner &Names, std::string &Out) {
  switch (D->K) {
  case Dec::Kind::Val:
    Out += "val ";
    Out += Names.text(D->Name);
    if (D->Annot) {
      Out += " : ";
      Out += printTyExpr(D->Annot, Names);
    }
    Out += " = ";
    print(D->Body, Names, Out);
    return;
  case Dec::Kind::Fun:
    Out += "fun ";
    Out += Names.text(D->Name);
    Out += " ";
    Out += Names.text(D->Param);
    if (D->ParamAnnot) {
      Out += " : ";
      Out += printTyExpr(D->ParamAnnot, Names);
    }
    Out += " = ";
    print(D->Body, Names, Out);
    return;
  case Dec::Kind::Exn:
    Out += "exception ";
    Out += Names.text(D->Name);
    if (D->Annot) {
      Out += " of ";
      Out += printTyExpr(D->Annot, Names);
    }
    return;
  }
}

std::string rml::printExpr(const Expr *E, const Interner &Names) {
  std::string Out;
  print(E, Names, Out);
  return Out;
}
