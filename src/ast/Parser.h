//===- ast/Parser.h - MiniML parser -----------------------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniML with SML-like operator precedence.
/// Curried `fun f x y = e` declarations are desugared into unary `fun`
/// plus nested `fn`, `[a, b]` into cons chains, and unit/wildcard
/// parameters into fresh variables, so later passes only see the small
/// term language of the paper (Section 3.6) plus its documented
/// extensions.
///
//===----------------------------------------------------------------------===//

#ifndef RML_AST_PARSER_H
#define RML_AST_PARSER_H

#include "ast/Ast.h"
#include "ast/Token.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"

#include <optional>
#include <vector>

namespace rml {

class Parser {
public:
  Parser(std::vector<Token> Tokens, AstArena &Arena, Interner &Names,
         DiagnosticEngine &Diags)
      : Tokens(std::move(Tokens)), Arena(Arena), Names(Names), Diags(Diags) {}

  /// Parses a whole program: a sequence of top-level declarations followed
  /// by an optional result expression. Returns std::nullopt after emitting
  /// diagnostics on malformed input.
  std::optional<Program> parseProgram();

  /// Parses the top-level declarations that begin before token \p End,
  /// each with its optional ';' terminator, into \p Decs. \returns
  /// false unless they parse without error and end exactly at \p End:
  /// this is how a declaration prefix is compiled on its own.
  bool parseTopDecs(size_t End, std::vector<const Dec *> &Decs);

  /// Continues at token \p Index: a compile that resumes after a
  /// declaration prefix parses only the rest of the program.
  void seek(size_t Index) { Pos = Index; }

  /// Parses a single expression (tests).
  const Expr *parseExprOnly();

private:
  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  const Token &advance() {
    const Token &T = Tokens[Pos];
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }
  bool check(TokKind K) const { return peek().Kind == K; }
  bool accept(TokKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokKind K, const char *Context);

  bool atDecStart() const;
  const Dec *parseDec();
  const Expr *parseExp();
  const Expr *parseHandleTail(const Expr *Scrut);
  const Expr *parseInfix(int MinPrec);
  const Expr *parseApp();
  const Expr *parseAtExp();
  const Expr *parseSeqOrParen(SrcLoc Loc);
  const TyExpr *parseTy();
  const TyExpr *parseTyProduct();
  const TyExpr *parseTyAtom();

  /// Parses a parameter form: x | _ | () | (x) | (x : ty). Returns the
  /// bound symbol (fresh for _ and ()) and an optional annotation.
  struct Param {
    Symbol Name;
    const TyExpr *Annot = nullptr;
  };
  std::optional<Param> parseParam();

  const Expr *mkVar(Symbol S, SrcLoc Loc);
  const Expr *etaExpandPrim(Expr::PrimKind P, SrcLoc Loc);
  static bool isUpperIdent(const std::string &S);
  static std::optional<Expr::PrimKind> primForName(const std::string &S);

  std::vector<Token> Tokens;
  AstArena &Arena;
  Interner &Names;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
};

/// The index of every token that begins a top-level declaration: each
/// `val`, `fun` and `exception` outside every `let ... end`,
/// parenthesis and bracket. In a program that parses these are exactly
/// where parseProgram() starts its declarations, found without parsing.
std::vector<size_t> topLevelDecStarts(const std::vector<Token> &Tokens);

/// Convenience: lex + parse \p Source.
std::optional<Program> parseString(std::string_view Source, AstArena &Arena,
                                   Interner &Names, DiagnosticEngine &Diags);

} // namespace rml

#endif // RML_AST_PARSER_H
