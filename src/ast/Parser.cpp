//===- ast/Parser.cpp -----------------------------------------------------===//

#include "ast/Parser.h"

#include "ast/Lexer.h"

#include <cassert>
#include <cctype>

using namespace rml;

bool Parser::expect(TokKind K, const char *Context) {
  if (accept(K))
    return true;
  Diags.error(peek().Loc, std::string("expected ") + tokKindName(K) +
                              " in " + Context + ", found " +
                              tokKindName(peek().Kind));
  return false;
}

bool Parser::isUpperIdent(const std::string &S) {
  return !S.empty() && std::isupper(static_cast<unsigned char>(S[0]));
}

std::optional<Expr::PrimKind> Parser::primForName(const std::string &S) {
  if (S == "print")
    return Expr::PrimKind::Print;
  if (S == "itos")
    return Expr::PrimKind::Itos;
  if (S == "size")
    return Expr::PrimKind::Size;
  if (S == "work")
    return Expr::PrimKind::Work;
  if (S == "global")
    return Expr::PrimKind::Global;
  return std::nullopt;
}

const Expr *Parser::mkVar(Symbol S, SrcLoc Loc) {
  Expr *E = Arena.expr(Expr::Kind::Var, Loc);
  E->Name = S;
  return E;
}

/// Builtin primitives used in value position become "fn x => prim x".
const Expr *Parser::etaExpandPrim(Expr::PrimKind P, SrcLoc Loc) {
  Symbol X = Names.fresh("p");
  Expr *Body = Arena.expr(Expr::Kind::Prim, Loc);
  Body->Prim = P;
  Body->A = mkVar(X, Loc);
  Expr *Fn = Arena.expr(Expr::Kind::Fn, Loc);
  Fn->Name = X;
  Fn->A = Body;
  return Fn;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

const TyExpr *Parser::parseTyAtom() {
  SrcLoc Loc = peek().Loc;
  const TyExpr *T = nullptr;
  switch (peek().Kind) {
  case TokKind::KwInt:
    advance();
    T = Arena.ty(TyExpr::Kind::Int, Loc);
    break;
  case TokKind::KwBool:
    advance();
    T = Arena.ty(TyExpr::Kind::Bool, Loc);
    break;
  case TokKind::KwString:
    advance();
    T = Arena.ty(TyExpr::Kind::String, Loc);
    break;
  case TokKind::KwUnit:
    advance();
    T = Arena.ty(TyExpr::Kind::Unit, Loc);
    break;
  case TokKind::TyVar: {
    TyExpr *V = Arena.ty(TyExpr::Kind::Var, Loc);
    V->VarName = Names.intern(advance().Text);
    T = V;
    break;
  }
  case TokKind::Ident:
    if (peek().Text == "exn") {
      advance();
      T = Arena.ty(TyExpr::Kind::Exn, Loc);
      break;
    }
    Diags.error(Loc, "unknown type constructor '" + peek().Text + "'");
    advance();
    return Arena.ty(TyExpr::Kind::Unit, Loc);
  case TokKind::LParen: {
    advance();
    const TyExpr *Inner = parseTy();
    expect(TokKind::RParen, "type");
    T = Inner;
    break;
  }
  default:
    Diags.error(Loc, std::string("expected a type, found ") +
                         tokKindName(peek().Kind));
    return Arena.ty(TyExpr::Kind::Unit, Loc);
  }
  // Postfix "list" / "ref" applications.
  while (true) {
    if (check(TokKind::KwList)) {
      advance();
      TyExpr *L = Arena.ty(TyExpr::Kind::List, Loc);
      L->A = T;
      T = L;
      continue;
    }
    if (check(TokKind::KwRef)) {
      advance();
      TyExpr *R = Arena.ty(TyExpr::Kind::Ref, Loc);
      R->A = T;
      T = R;
      continue;
    }
    return T;
  }
}

const TyExpr *Parser::parseTyProduct() {
  const TyExpr *L = parseTyAtom();
  if (!check(TokKind::Star))
    return L;
  advance();
  const TyExpr *R = parseTyProduct(); // right-nested products
  TyExpr *P = Arena.ty(TyExpr::Kind::Pair, L->Loc);
  P->A = L;
  P->B = R;
  return P;
}

const TyExpr *Parser::parseTy() {
  const TyExpr *L = parseTyProduct();
  if (!accept(TokKind::Arrow))
    return L;
  const TyExpr *R = parseTy(); // arrows are right associative
  TyExpr *A = Arena.ty(TyExpr::Kind::Arrow, L->Loc);
  A->A = L;
  A->B = R;
  return A;
}

//===----------------------------------------------------------------------===//
// Parameters and declarations
//===----------------------------------------------------------------------===//

std::optional<Parser::Param> Parser::parseParam() {
  SrcLoc Loc = peek().Loc;
  if (check(TokKind::Ident)) {
    Param P;
    P.Name = Names.intern(advance().Text);
    return P;
  }
  if (accept(TokKind::Wild)) {
    Param P;
    P.Name = Names.fresh("_w");
    return P;
  }
  if (check(TokKind::LParen)) {
    advance();
    if (accept(TokKind::RParen)) {
      // Unit parameter "()": bind a fresh variable annotated with unit.
      Param P;
      P.Name = Names.fresh("_u");
      P.Annot = Arena.ty(TyExpr::Kind::Unit, Loc);
      return P;
    }
    Param P;
    if (check(TokKind::Ident))
      P.Name = Names.intern(advance().Text);
    else if (accept(TokKind::Wild))
      P.Name = Names.fresh("_w");
    else {
      Diags.error(peek().Loc, "expected parameter name");
      return std::nullopt;
    }
    if (accept(TokKind::Colon))
      P.Annot = parseTy();
    if (!expect(TokKind::RParen, "parameter"))
      return std::nullopt;
    return P;
  }
  Diags.error(Loc, std::string("expected a parameter, found ") +
                       tokKindName(peek().Kind));
  return std::nullopt;
}

bool Parser::atDecStart() const {
  TokKind K = peek().Kind;
  return K == TokKind::KwVal || K == TokKind::KwFun ||
         K == TokKind::KwException;
}

const Dec *Parser::parseDec() {
  SrcLoc Loc = peek().Loc;
  if (accept(TokKind::KwVal)) {
    Dec *D = Arena.dec(Dec::Kind::Val, Loc);
    if (check(TokKind::Ident))
      D->Name = Names.intern(advance().Text);
    else if (accept(TokKind::Wild))
      D->Name = Names.fresh("_w");
    else {
      Diags.error(peek().Loc, "expected name after 'val'");
      return D;
    }
    if (accept(TokKind::Colon))
      D->Annot = parseTy();
    expect(TokKind::Eq, "val declaration");
    D->Body = parseExp();
    return D;
  }
  if (accept(TokKind::KwFun)) {
    Dec *D = Arena.dec(Dec::Kind::Fun, Loc);
    if (!check(TokKind::Ident)) {
      Diags.error(peek().Loc, "expected function name after 'fun'");
      return D;
    }
    D->Name = Names.intern(advance().Text);
    std::vector<Param> Params;
    std::optional<Param> First = parseParam();
    if (!First)
      return D;
    Params.push_back(*First);
    while (!check(TokKind::Colon) && !check(TokKind::Eq)) {
      std::optional<Param> P = parseParam();
      if (!P)
        return D;
      Params.push_back(*P);
    }
    if (accept(TokKind::Colon))
      D->ResultAnnot = parseTy();
    expect(TokKind::Eq, "fun declaration");
    const Expr *Body = parseExp();
    // Desugar extra curried parameters into nested fn.
    for (size_t I = Params.size(); I-- > 1;) {
      Expr *Fn = Arena.expr(Expr::Kind::Fn, Loc);
      Fn->Name = Params[I].Name;
      Fn->Ty = Params[I].Annot;
      Fn->A = Body;
      Body = Fn;
    }
    D->Param = Params[0].Name;
    D->ParamAnnot = Params[0].Annot;
    D->Body = Body;
    return D;
  }
  if (accept(TokKind::KwException)) {
    Dec *D = Arena.dec(Dec::Kind::Exn, Loc);
    if (!check(TokKind::Ident)) {
      Diags.error(peek().Loc, "expected exception name");
      return D;
    }
    D->Name = Names.intern(advance().Text);
    if (check(TokKind::KwOf)) {
      advance();
      D->Annot = parseTy();
    }
    return D;
  }
  Diags.error(Loc, "expected a declaration");
  advance();
  Dec *D = Arena.dec(Dec::Kind::Val, Loc);
  D->Name = Names.fresh("_err");
  Expr *U = Arena.expr(Expr::Kind::UnitLit, Loc);
  D->Body = U;
  return D;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

namespace {
struct OpInfo {
  BinOpKind Op;
  int Prec;
  bool RightAssoc;
};
} // namespace

static std::optional<OpInfo> infixInfo(TokKind K) {
  switch (K) {
  case TokKind::KwOrelse:
    return OpInfo{BinOpKind::OrElse, 1, false};
  case TokKind::KwAndalso:
    return OpInfo{BinOpKind::AndAlso, 2, false};
  case TokKind::Assign:
    return std::nullopt; // handled separately (non-associative, prec 3)
  case TokKind::Eq:
    return OpInfo{BinOpKind::Eq, 4, false};
  case TokKind::NotEq:
    return OpInfo{BinOpKind::NotEq, 4, false};
  case TokKind::Less:
    return OpInfo{BinOpKind::Less, 4, false};
  case TokKind::LessEq:
    return OpInfo{BinOpKind::LessEq, 4, false};
  case TokKind::Greater:
    return OpInfo{BinOpKind::Greater, 4, false};
  case TokKind::GreaterEq:
    return OpInfo{BinOpKind::GreaterEq, 4, false};
  case TokKind::Cons:
    return OpInfo{BinOpKind::Cons, 5, true};
  case TokKind::Plus:
    return OpInfo{BinOpKind::Add, 6, false};
  case TokKind::Minus:
    return OpInfo{BinOpKind::Sub, 6, false};
  case TokKind::Caret:
    return OpInfo{BinOpKind::Concat, 6, false};
  case TokKind::Star:
    return OpInfo{BinOpKind::Mul, 7, false};
  case TokKind::KwDiv:
    return OpInfo{BinOpKind::Div, 7, false};
  case TokKind::KwMod:
    return OpInfo{BinOpKind::Mod, 7, false};
  default:
    return std::nullopt;
  }
}

const Expr *Parser::parseExp() {
  SrcLoc Loc = peek().Loc;
  if (accept(TokKind::KwRaise)) {
    Expr *E = Arena.expr(Expr::Kind::Raise, Loc);
    E->A = parseExp();
    return E;
  }
  if (check(TokKind::KwFn)) {
    advance();
    std::optional<Param> P = parseParam();
    expect(TokKind::DArrow, "fn expression");
    Expr *E = Arena.expr(Expr::Kind::Fn, Loc);
    E->Name = P ? P->Name : Names.fresh("_err");
    E->Ty = P ? P->Annot : nullptr;
    E->A = parseExp();
    return parseHandleTail(E);
  }
  if (check(TokKind::KwIf)) {
    advance();
    Expr *E = Arena.expr(Expr::Kind::If, Loc);
    E->A = parseExp();
    expect(TokKind::KwThen, "if expression");
    E->B = parseExp();
    expect(TokKind::KwElse, "if expression");
    E->C = parseExp();
    return parseHandleTail(E);
  }
  if (check(TokKind::KwCase)) {
    advance();
    Expr *E = Arena.expr(Expr::Kind::ListCase, Loc);
    E->A = parseExp();
    expect(TokKind::KwOf, "case expression");
    expect(TokKind::KwNil, "case expression (the nil branch must be first)");
    expect(TokKind::DArrow, "case expression");
    E->B = parseExp();
    expect(TokKind::Bar, "case expression");
    // Head and tail binders (identifier or wildcard).
    auto parseBinder = [&]() -> Symbol {
      if (check(TokKind::Ident))
        return Names.intern(advance().Text);
      if (accept(TokKind::Wild))
        return Names.fresh("_w");
      Diags.error(peek().Loc, "expected cons-pattern binder");
      return Names.fresh("_err");
    };
    E->HeadName = parseBinder();
    expect(TokKind::Cons, "cons pattern");
    E->TailName = parseBinder();
    expect(TokKind::DArrow, "case expression");
    E->C = parseExp();
    return parseHandleTail(E);
  }
  const Expr *E = parseInfix(1);
  // ":=" at precedence 3, non-associative.
  if (check(TokKind::Assign)) {
    SrcLoc ALoc = advance().Loc;
    Expr *Asg = Arena.expr(Expr::Kind::Assign, ALoc);
    Asg->A = E;
    Asg->B = parseInfix(1);
    E = Asg;
  }
  return parseHandleTail(E);
}

const Expr *Parser::parseHandleTail(const Expr *Scrut) {
  if (!check(TokKind::KwHandle))
    return Scrut;
  SrcLoc Loc = advance().Loc;
  Expr *H = Arena.expr(Expr::Kind::Handle, Loc);
  H->A = Scrut;
  if (accept(TokKind::Wild)) {
    // wildcard handler: ExnName stays invalid.
  } else if (check(TokKind::Ident) && isUpperIdent(peek().Text)) {
    H->ExnName = Names.intern(advance().Text);
    if (check(TokKind::Ident))
      H->BindName = Names.intern(advance().Text);
    else if (accept(TokKind::Wild))
      H->BindName = Names.fresh("_w");
  } else {
    Diags.error(peek().Loc, "expected exception constructor or '_' after "
                            "'handle'");
  }
  expect(TokKind::DArrow, "handle expression");
  H->B = parseExp();
  return H;
}

const Expr *Parser::parseInfix(int MinPrec) {
  const Expr *Lhs = parseApp();
  while (true) {
    std::optional<OpInfo> Info = infixInfo(peek().Kind);
    if (!Info || Info->Prec < MinPrec)
      return Lhs;
    SrcLoc Loc = advance().Loc;
    const Expr *Rhs =
        parseInfix(Info->RightAssoc ? Info->Prec : Info->Prec + 1);
    Expr *E = Arena.expr(Expr::Kind::BinOp, Loc);
    E->Op = Info->Op;
    E->A = Lhs;
    E->B = Rhs;
    Lhs = E;
  }
}

static bool startsAtExp(TokKind K) {
  switch (K) {
  case TokKind::IntLit:
  case TokKind::StringLit:
  case TokKind::Ident:
  case TokKind::KwTrue:
  case TokKind::KwFalse:
  case TokKind::KwNil:
  case TokKind::KwLet:
  case TokKind::KwRef:
  case TokKind::LParen:
  case TokKind::LBracket:
  case TokKind::Bang:
  case TokKind::Tilde:
  case TokKind::Hash1:
  case TokKind::Hash2:
    return true;
  default:
    return false;
  }
}

const Expr *Parser::parseApp() {
  const Expr *Lhs = parseAtExp();
  while (startsAtExp(peek().Kind)) {
    const Expr *Arg = parseAtExp();
    // Exception construction "E e" and builtin primitive application
    // "print e" get dedicated nodes.
    if (Lhs->K == Expr::Kind::ExnCon && !Lhs->A) {
      Expr *Con = Arena.expr(Expr::Kind::ExnCon, Lhs->Loc);
      Con->Name = Lhs->Name;
      Con->A = Arg;
      Lhs = Con;
      continue;
    }
    if (Lhs->K == Expr::Kind::Fn && Lhs->A && Lhs->A->K == Expr::Kind::Prim &&
        Lhs->A->A && Lhs->A->A->K == Expr::Kind::Var &&
        Lhs->A->A->Name == Lhs->Name) {
      // "(fn p => prim p) arg" produced by eta expansion: contract back.
      Expr *P = Arena.expr(Expr::Kind::Prim, Lhs->Loc);
      P->Prim = Lhs->A->Prim;
      P->A = Arg;
      Lhs = P;
      continue;
    }
    Expr *App = Arena.expr(Expr::Kind::App, Arg->Loc);
    App->A = Lhs;
    App->B = Arg;
    Lhs = App;
  }
  return Lhs;
}

const Expr *Parser::parseSeqOrParen(SrcLoc Loc) {
  // Already consumed "(". Handles: () | (e) | (e, e) | (e; e; ...) |
  // (e : ty).
  if (accept(TokKind::RParen))
    return Arena.expr(Expr::Kind::UnitLit, Loc);
  const Expr *First = parseExp();
  if (accept(TokKind::Comma)) {
    const Expr *Second = parseExp();
    // Wider tuples become right-nested pairs.
    while (accept(TokKind::Comma)) {
      const Expr *Next = parseExp();
      Expr *P = Arena.expr(Expr::Kind::Pair, Loc);
      P->A = Second;
      P->B = Next;
      Second = P;
    }
    expect(TokKind::RParen, "pair");
    Expr *P = Arena.expr(Expr::Kind::Pair, Loc);
    P->A = First;
    P->B = Second;
    return P;
  }
  if (check(TokKind::Semi)) {
    Expr *Seq = Arena.expr(Expr::Kind::Seq, Loc);
    Seq->Items.push_back(First);
    while (accept(TokKind::Semi))
      Seq->Items.push_back(parseExp());
    expect(TokKind::RParen, "sequence");
    return Seq;
  }
  if (accept(TokKind::Colon)) {
    Expr *An = Arena.expr(Expr::Kind::Annot, Loc);
    An->A = First;
    An->Ty = parseTy();
    expect(TokKind::RParen, "type annotation");
    return An;
  }
  expect(TokKind::RParen, "parenthesised expression");
  return First;
}

const Expr *Parser::parseAtExp() {
  SrcLoc Loc = peek().Loc;
  switch (peek().Kind) {
  case TokKind::IntLit: {
    Expr *E = Arena.expr(Expr::Kind::IntLit, Loc);
    E->IntValue = advance().IntValue;
    return E;
  }
  case TokKind::StringLit: {
    Expr *E = Arena.expr(Expr::Kind::StrLit, Loc);
    E->StrValue = advance().Text;
    return E;
  }
  case TokKind::KwTrue:
  case TokKind::KwFalse: {
    Expr *E = Arena.expr(Expr::Kind::BoolLit, Loc);
    E->BoolValue = advance().Kind == TokKind::KwTrue;
    return E;
  }
  case TokKind::KwNil:
    advance();
    return Arena.expr(Expr::Kind::Nil, Loc);
  case TokKind::Ident: {
    const std::string &Text = peek().Text;
    if (std::optional<Expr::PrimKind> P = primForName(Text)) {
      advance();
      if (startsAtExp(peek().Kind)) {
        Expr *E = Arena.expr(Expr::Kind::Prim, Loc);
        E->Prim = *P;
        E->A = parseAtExp();
        return E;
      }
      return etaExpandPrim(*P, Loc);
    }
    if (isUpperIdent(Text)) {
      Expr *E = Arena.expr(Expr::Kind::ExnCon, Loc);
      E->Name = Names.intern(advance().Text);
      return E;
    }
    return mkVar(Names.intern(advance().Text), Loc);
  }
  case TokKind::KwLet: {
    advance();
    Expr *E = Arena.expr(Expr::Kind::Let, Loc);
    if (!atDecStart())
      Diags.error(peek().Loc, "expected a declaration after 'let'");
    while (atDecStart())
      E->Decs.push_back(parseDec());
    expect(TokKind::KwIn, "let expression");
    const Expr *Body = parseExp();
    // "let d in e1; e2 end" sequencing.
    if (check(TokKind::Semi)) {
      Expr *Seq = Arena.expr(Expr::Kind::Seq, Body->Loc);
      Seq->Items.push_back(Body);
      while (accept(TokKind::Semi))
        Seq->Items.push_back(parseExp());
      Body = Seq;
    }
    E->A = Body;
    expect(TokKind::KwEnd, "let expression");
    return E;
  }
  case TokKind::KwRef: {
    advance();
    Expr *E = Arena.expr(Expr::Kind::Ref, Loc);
    E->A = parseAtExp();
    return E;
  }
  case TokKind::Bang: {
    advance();
    Expr *E = Arena.expr(Expr::Kind::Deref, Loc);
    E->A = parseAtExp();
    return E;
  }
  case TokKind::Tilde: {
    advance();
    // Unary negation: desugar "~e" into "0 - e".
    Expr *Zero = Arena.expr(Expr::Kind::IntLit, Loc);
    Zero->IntValue = 0;
    Expr *E = Arena.expr(Expr::Kind::BinOp, Loc);
    E->Op = BinOpKind::Sub;
    E->A = Zero;
    E->B = parseAtExp();
    return E;
  }
  case TokKind::Hash1:
  case TokKind::Hash2: {
    unsigned Index = peek().Kind == TokKind::Hash1 ? 1 : 2;
    advance();
    Expr *E = Arena.expr(Expr::Kind::Sel, Loc);
    E->SelIndex = Index;
    E->A = parseAtExp();
    return E;
  }
  case TokKind::LParen:
    advance();
    return parseSeqOrParen(Loc);
  case TokKind::LBracket: {
    advance();
    // [a, b, c] => a :: b :: c :: nil
    std::vector<const Expr *> Elems;
    if (!check(TokKind::RBracket)) {
      Elems.push_back(parseExp());
      while (accept(TokKind::Comma))
        Elems.push_back(parseExp());
    }
    expect(TokKind::RBracket, "list literal");
    const Expr *Tail = Arena.expr(Expr::Kind::Nil, Loc);
    for (size_t I = Elems.size(); I-- > 0;) {
      Expr *ConsE = Arena.expr(Expr::Kind::BinOp, Loc);
      ConsE->Op = BinOpKind::Cons;
      ConsE->A = Elems[I];
      ConsE->B = Tail;
      Tail = ConsE;
    }
    return Tail;
  }
  default:
    Diags.error(Loc, std::string("expected an expression, found ") +
                         tokKindName(peek().Kind));
    advance();
    return Arena.expr(Expr::Kind::UnitLit, Loc);
  }
}

//===----------------------------------------------------------------------===//
// Program entry points
//===----------------------------------------------------------------------===//

std::optional<Program> Parser::parseProgram() {
  Program P;
  parseTopDecs(Tokens.size(), P.Decs);
  if (!check(TokKind::Eof))
    P.Result = parseExp();
  else
    P.Result = Arena.expr(Expr::Kind::UnitLit, peek().Loc);
  if (!check(TokKind::Eof))
    Diags.error(peek().Loc, std::string("unexpected ") +
                                tokKindName(peek().Kind) +
                                " after program end");
  if (Diags.hasErrors())
    return std::nullopt;
  return P;
}

bool Parser::parseTopDecs(size_t End, std::vector<const Dec *> &Decs) {
  while (Pos < End && atDecStart()) {
    Decs.push_back(parseDec());
    // SML-style optional ';' terminator; required before a result
    // expression that could otherwise be swallowed as application
    // arguments of the preceding declaration's body.
    accept(TokKind::Semi);
  }
  return Pos == End && !Diags.hasErrors();
}

const Expr *Parser::parseExprOnly() {
  const Expr *E = parseExp();
  if (!check(TokKind::Eof))
    Diags.error(peek().Loc, "trailing tokens after expression");
  return E;
}

std::vector<size_t> rml::topLevelDecStarts(const std::vector<Token> &Tokens) {
  std::vector<size_t> Starts;
  int Depth = 0;
  for (size_t I = 0; I < Tokens.size(); ++I) {
    switch (Tokens[I].Kind) {
    case TokKind::KwLet:
    case TokKind::LParen:
    case TokKind::LBracket:
      ++Depth;
      break;
    case TokKind::KwEnd:
    case TokKind::RParen:
    case TokKind::RBracket:
      --Depth;
      break;
    case TokKind::KwVal:
    case TokKind::KwFun:
    case TokKind::KwException:
      if (Depth == 0)
        Starts.push_back(I);
      break;
    default:
      break;
    }
  }
  return Starts;
}

std::optional<Program> rml::parseString(std::string_view Source,
                                        AstArena &Arena, Interner &Names,
                                        DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  std::vector<Token> Toks = Lex.lexAll();
  if (Diags.hasErrors())
    return std::nullopt;
  Parser P(std::move(Toks), Arena, Names, Diags);
  return P.parseProgram();
}
