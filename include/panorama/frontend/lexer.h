// Tokenizer for the Fortran 77 subset. Free-form-friendly: statements end at
// newline, comments start with '!' anywhere or 'C'/'c'/'*' in column 1, a
// trailing '&' continues a statement onto the next line. Keywords and names
// are case-insensitive and lower-cased during lexing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "panorama/support/diagnostics.h"

namespace panorama {

enum class TokKind : std::uint8_t {
  Eof,
  Newline,     ///< statement separator
  Ident,       ///< identifiers and keywords (keyword detection is contextual)
  IntLit,
  RealLit,
  Plus, Minus, Star, Slash, Power,   // + - * / **
  LParen, RParen, Comma, Colon, Assign,  // ( ) , : =
  Lt, Le, Gt, Ge, EqEq, Ne,          // relationals (both .LT. and < styles)
  And, Or, Not,                      // .AND. .OR. .NOT.  (&& || ! in C-like)
  TrueLit, FalseLit,                 // .TRUE. .FALSE.  (true/false in C-like)
  LBrace, RBrace,                    // { }  (C-like dialect only)
  LBracket, RBracket,                // [ ]  (C-like dialect only)
  Semicolon,                         // ;    (C-like dialect only)
};

/// The two surface syntaxes sharing this tokenizer. `Fortran` is the
/// newline-terminated F77 subset; `CLike` is free-form (newlines are
/// whitespace, statements end at ';'), comments are `//`, logical operators
/// are `&& || !`, and braces/brackets are real tokens.
enum class LexDialect : std::uint8_t { Fortran, CLike };

struct Token {
  TokKind kind = TokKind::Eof;
  SourceLoc loc;
  std::string text;        ///< lower-cased identifier text
  std::int64_t intValue = 0;
  double realValue = 0.0;

  bool is(TokKind k) const { return kind == k; }
  /// Keyword test against a lower-case word.
  bool isWord(std::string_view w) const { return kind == TokKind::Ident && text == w; }
};

/// Tokenizes `source`. Lexical errors are reported into `diags`; the token
/// stream is still returned (error tokens are skipped) so the parser can
/// recover enough to report further problems.
std::vector<Token> lex(std::string_view source, DiagnosticEngine& diags,
                       LexDialect dialect = LexDialect::Fortran);

const char* tokKindName(TokKind k);

/// The identifier rule both dialects lex by: a letter or '_', then letters,
/// digits and '_'. ProgramBuilder holds every symbol name to the same rule.
bool isIdentifier(std::string_view name);

}  // namespace panorama
