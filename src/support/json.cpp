#include "panorama/support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace panorama::support {

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::makeBool(bool v) {
  JsonValue out;
  out.kind_ = Kind::Bool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::makeNumber(double v) {
  JsonValue out;
  out.kind_ = Kind::Number;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::makeString(std::string v) {
  JsonValue out;
  out.kind_ = Kind::String;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::makeArray(std::vector<JsonValue> v) {
  JsonValue out;
  out.kind_ = Kind::Array;
  out.items_ = std::move(v);
  return out;
}

JsonValue JsonValue::makeObject(std::vector<std::pair<std::string, JsonValue>> v) {
  JsonValue out;
  out.kind_ = Kind::Object;
  out.members_ = std::move(v);
  return out;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error{};

  bool atEnd() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skipWs() {
    while (!atEnd() && (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                        text[pos] == '\r'))
      ++pos;
  }

  bool fail(const std::string& why) {
    if (error.empty()) error = why + " at offset " + std::to_string(pos);
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("invalid literal");
    pos += word.size();
    return true;
  }

  bool parseString(std::string& out) {
    if (atEnd() || peek() != '"') return fail("expected '\"'");
    ++pos;
    while (!atEnd()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (atEnd()) return fail("truncated escape");
        char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("invalid \\u escape");
            }
            // The producers in this repo only escape control characters;
            // encode the code point as UTF-8 without surrogate handling.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("invalid escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parseValue(JsonValue& out) {
    skipWs();
    if (atEnd()) return fail("unexpected end of input");
    char c = peek();
    if (c == '{') {
      ++pos;
      std::vector<std::pair<std::string, JsonValue>> members;
      skipWs();
      if (!atEnd() && peek() == '}') {
        ++pos;
        out = JsonValue::makeObject(std::move(members));
        return true;
      }
      while (true) {
        skipWs();
        std::string key;
        if (!parseString(key)) return false;
        skipWs();
        if (atEnd() || peek() != ':') return fail("expected ':'");
        ++pos;
        JsonValue value;
        if (!parseValue(value)) return false;
        members.emplace_back(std::move(key), std::move(value));
        skipWs();
        if (atEnd()) return fail("unterminated object");
        if (peek() == ',') {
          ++pos;
          continue;
        }
        if (peek() == '}') {
          ++pos;
          out = JsonValue::makeObject(std::move(members));
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      std::vector<JsonValue> items;
      skipWs();
      if (!atEnd() && peek() == ']') {
        ++pos;
        out = JsonValue::makeArray(std::move(items));
        return true;
      }
      while (true) {
        JsonValue value;
        if (!parseValue(value)) return false;
        items.push_back(std::move(value));
        skipWs();
        if (atEnd()) return fail("unterminated array");
        if (peek() == ',') {
          ++pos;
          continue;
        }
        if (peek() == ']') {
          ++pos;
          out = JsonValue::makeArray(std::move(items));
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      std::string s;
      if (!parseString(s)) return false;
      out = JsonValue::makeString(std::move(s));
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      out = JsonValue::makeBool(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      out = JsonValue::makeBool(false);
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return false;
      out = JsonValue::makeNull();
      return true;
    }
    // Number.
    std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (!atEnd() && (std::isdigit(static_cast<unsigned char>(peek())) || peek() == '.' ||
                        peek() == 'e' || peek() == 'E' || peek() == '+' || peek() == '-'))
      ++pos;
    if (pos == start) return fail("invalid value");
    std::string num(text.substr(start, pos - start));
    char* end = nullptr;
    double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return fail("invalid number");
    // A literal too large for a double (1e999) would come back as ±inf,
    // which no JSON document can carry.
    if (std::isinf(v)) return fail("number out of range");
    out = JsonValue::makeNumber(v);
    return true;
  }
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view text, std::string* error) {
  Parser p{text};
  JsonValue out;
  if (!p.parseValue(out)) {
    if (error) *error = p.error;
    return std::nullopt;
  }
  p.skipWs();
  if (!p.atEnd()) {
    if (error) *error = "trailing content at offset " + std::to_string(p.pos);
    return std::nullopt;
  }
  return out;
}

void appendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace panorama::support
