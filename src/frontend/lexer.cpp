#include "panorama/frontend/lexer.h"

#include <cctype>

namespace panorama {

namespace {

bool isIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool isIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

char lower(char c) { return static_cast<char>(std::tolower(static_cast<unsigned char>(c))); }

class Lexer {
 public:
  Lexer(std::string_view src, DiagnosticEngine& diags, LexDialect dialect)
      : src_(src), diags_(diags), clike_(dialect == LexDialect::CLike) {}

  std::vector<Token> run() {
    if (clike_) return runCLike();
    while (!atEnd()) lexLine();
    push(TokKind::Eof);
    return std::move(tokens_);
  }

 private:
  bool atEnd() const { return pos_ >= src_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char advance() {
    char c = src_[pos_++];
    ++col_;
    return c;
  }
  SourceLoc here() const { return {line_, col_}; }

  void push(TokKind k, SourceLoc loc = {}) {
    Token t;
    t.kind = k;
    t.loc = loc.isValid() ? loc : here();
    tokens_.push_back(std::move(t));
  }

  void newline() {
    ++pos_;
    ++line_;
    col_ = 1;
  }

  void lexLine() {
    // Column-1 comment markers (classic fixed-form style).
    if (col_ == 1 && (peek() == 'C' || peek() == 'c' || peek() == '*')) {
      skipToEol();
      emitNewline();
      return;
    }
    while (!atEnd()) {
      char c = peek();
      if (c == '\n') {
        emitNewline();
        return;
      }
      if (c == ' ' || c == '\t' || c == '\r') {
        advance();
        continue;
      }
      if (c == '!') {
        skipToEol();
        emitNewline();
        return;
      }
      if (c == '&') {
        // Continuation: swallow to and including the newline.
        advance();
        while (!atEnd() && peek() != '\n') {
          if (peek() != ' ' && peek() != '\t' && peek() != '\r' && peek() != '!') {
            diags_.error(here(), "unexpected text after continuation '&'");
            skipToEol();
            break;
          }
          if (peek() == '!') {
            skipToEol();
            break;
          }
          advance();
        }
        if (!atEnd() && peek() == '\n') newline();
        continue;
      }
      lexToken();
    }
    if (atEnd()) emitNewlineIfNeeded();
  }

  std::vector<Token> runCLike() {
    // Free-form: newlines are ordinary whitespace (no Newline tokens),
    // statements end at ';', comments run from "//" to end of line.
    while (!atEnd()) {
      char c = peek();
      if (c == '\n') {
        newline();
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r') {
        advance();
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        skipToEol();
        continue;
      }
      lexToken();
    }
    push(TokKind::Eof);
    return std::move(tokens_);
  }

  void emitNewline() {
    newline();
    emitNewlineIfNeeded();
  }

  void emitNewlineIfNeeded() {
    if (!tokens_.empty() && tokens_.back().kind != TokKind::Newline) push(TokKind::Newline);
  }

  void skipToEol() {
    while (!atEnd() && peek() != '\n') advance();
    if (!atEnd()) return;  // newline handled by caller via emitNewline
  }

  void lexToken() {
    SourceLoc loc = here();
    char c = peek();
    if (isIdentStart(c)) {
      std::string word;
      while (!atEnd() && isIdentChar(peek())) word.push_back(lower(advance()));
      if (clike_ && (word == "true" || word == "false")) {
        push(word == "true" ? TokKind::TrueLit : TokKind::FalseLit, loc);
        return;
      }
      Token t;
      t.kind = TokKind::Ident;
      t.loc = loc;
      t.text = std::move(word);
      tokens_.push_back(std::move(t));
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      lexNumber(loc);
      return;
    }
    if (c == '.' && !clike_) {
      lexDotWord(loc);
      return;
    }
    advance();
    if (clike_) {
      switch (c) {
        case '{': push(TokKind::LBrace, loc); return;
        case '}': push(TokKind::RBrace, loc); return;
        case '[': push(TokKind::LBracket, loc); return;
        case ']': push(TokKind::RBracket, loc); return;
        case ';': push(TokKind::Semicolon, loc); return;
        case '!':
          if (peek() == '=') {
            advance();
            push(TokKind::Ne, loc);
          } else {
            push(TokKind::Not, loc);
          }
          return;
        case '&':
          if (peek() == '&') {
            advance();
            push(TokKind::And, loc);
          } else {
            diags_.error(loc, "expected '&&'");
          }
          return;
        case '|':
          if (peek() == '|') {
            advance();
            push(TokKind::Or, loc);
          } else {
            diags_.error(loc, "expected '||'");
          }
          return;
        case '/': push(TokKind::Slash, loc); return;  // '/=' is Fortran-only
        default: break;
      }
    }
    switch (c) {
      case '+': push(TokKind::Plus, loc); return;
      case '-': push(TokKind::Minus, loc); return;
      case '*':
        if (peek() == '*') {
          advance();
          push(TokKind::Power, loc);
        } else {
          push(TokKind::Star, loc);
        }
        return;
      case '/':
        if (peek() == '=') {
          advance();
          push(TokKind::Ne, loc);
        } else {
          push(TokKind::Slash, loc);
        }
        return;
      case '(': push(TokKind::LParen, loc); return;
      case ')': push(TokKind::RParen, loc); return;
      case ',': push(TokKind::Comma, loc); return;
      case ':': push(TokKind::Colon, loc); return;
      case '=':
        if (peek() == '=') {
          advance();
          push(TokKind::EqEq, loc);
        } else {
          push(TokKind::Assign, loc);
        }
        return;
      case '<':
        if (peek() == '=') {
          advance();
          push(TokKind::Le, loc);
        } else {
          push(TokKind::Lt, loc);
        }
        return;
      case '>':
        if (peek() == '=') {
          advance();
          push(TokKind::Ge, loc);
        } else {
          push(TokKind::Gt, loc);
        }
        return;
      default:
        diags_.error(loc, std::string("unexpected character '") + c + "'");
        return;
    }
  }

  void lexNumber(SourceLoc loc) {
    std::string digits;
    bool isReal = false;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) digits.push_back(advance());
    // A '.' begins a fraction only if NOT followed by a letter (else it is a
    // dotted operator like 1.EQ.J).
    if (peek() == '.' && !isIdentStart(peek(1)) && peek(1) != '.') {
      isReal = true;
      digits.push_back(advance());
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) digits.push_back(advance());
    }
    if (peek() == 'e' || peek() == 'E' || peek() == 'd' || peek() == 'D') {
      char next = peek(1);
      char next2 = peek(2);
      if (std::isdigit(static_cast<unsigned char>(next)) ||
          ((next == '+' || next == '-') && std::isdigit(static_cast<unsigned char>(next2)))) {
        isReal = true;
        advance();
        digits.push_back('e');
        if (peek() == '+' || peek() == '-') digits.push_back(advance());
        while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
          digits.push_back(advance());
      }
    }
    Token t;
    t.loc = loc;
    if (isReal) {
      t.kind = TokKind::RealLit;
      t.realValue = std::stod(digits);
    } else {
      t.kind = TokKind::IntLit;
      t.intValue = std::stoll(digits);
    }
    tokens_.push_back(std::move(t));
  }

  void lexDotWord(SourceLoc loc) {
    // .LT. .LE. .GT. .GE. .EQ. .NE. .AND. .OR. .NOT. .TRUE. .FALSE.
    advance();  // consume '.'
    std::string word;
    while (!atEnd() && isIdentStart(peek())) word.push_back(lower(advance()));
    if (peek() != '.') {
      diags_.error(loc, "malformed dotted operator '." + word + "'");
      return;
    }
    advance();  // trailing '.'
    TokKind k;
    if (word == "lt") k = TokKind::Lt;
    else if (word == "le") k = TokKind::Le;
    else if (word == "gt") k = TokKind::Gt;
    else if (word == "ge") k = TokKind::Ge;
    else if (word == "eq") k = TokKind::EqEq;
    else if (word == "ne") k = TokKind::Ne;
    else if (word == "and") k = TokKind::And;
    else if (word == "or") k = TokKind::Or;
    else if (word == "not") k = TokKind::Not;
    else if (word == "true") k = TokKind::TrueLit;
    else if (word == "false") k = TokKind::FalseLit;
    else {
      diags_.error(loc, "unknown dotted operator '." + word + ".'");
      return;
    }
    push(k, loc);
  }

  std::string_view src_;
  DiagnosticEngine& diags_;
  bool clike_ = false;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view source, DiagnosticEngine& diags, LexDialect dialect) {
  return Lexer(source, diags, dialect).run();
}

bool isIdentifier(std::string_view name) {
  if (name.empty() || !isIdentStart(name.front())) return false;
  for (char c : name.substr(1))
    if (!isIdentChar(c)) return false;
  return true;
}

const char* tokKindName(TokKind k) {
  switch (k) {
    case TokKind::Eof: return "end of input";
    case TokKind::Newline: return "end of statement";
    case TokKind::Ident: return "identifier";
    case TokKind::IntLit: return "integer literal";
    case TokKind::RealLit: return "real literal";
    case TokKind::Plus: return "'+'";
    case TokKind::Minus: return "'-'";
    case TokKind::Star: return "'*'";
    case TokKind::Slash: return "'/'";
    case TokKind::Power: return "'**'";
    case TokKind::LParen: return "'('";
    case TokKind::RParen: return "')'";
    case TokKind::Comma: return "','";
    case TokKind::Colon: return "':'";
    case TokKind::Assign: return "'='";
    case TokKind::Lt: return "'<'";
    case TokKind::Le: return "'<='";
    case TokKind::Gt: return "'>'";
    case TokKind::Ge: return "'>='";
    case TokKind::EqEq: return "'=='";
    case TokKind::Ne: return "'/='";
    case TokKind::And: return "'.and.'";
    case TokKind::Or: return "'.or.'";
    case TokKind::Not: return "'.not.'";
    case TokKind::TrueLit: return "'.true.'";
    case TokKind::FalseLit: return "'.false.'";
    case TokKind::LBrace: return "'{'";
    case TokKind::RBrace: return "'}'";
    case TokKind::LBracket: return "'['";
    case TokKind::RBracket: return "']'";
    case TokKind::Semicolon: return "';'";
  }
  return "?";
}

}  // namespace panorama
