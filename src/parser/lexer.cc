#include "parser/lexer.h"

#include <cctype>
#include <limits>

#include "common/strings.h"

namespace mmv {
namespace parser {

const char* TokKindName(TokKind k) {
  switch (k) {
    case TokKind::kIdent:
      return "identifier";
    case TokKind::kVar:
      return "variable";
    case TokKind::kInt:
      return "integer";
    case TokKind::kFloat:
      return "float";
    case TokKind::kString:
      return "string";
    case TokKind::kLParen:
      return "'('";
    case TokKind::kRParen:
      return "')'";
    case TokKind::kLBracket:
      return "'['";
    case TokKind::kRBracket:
      return "']'";
    case TokKind::kComma:
      return "','";
    case TokKind::kDot:
      return "'.'";
    case TokKind::kColon:
      return "':'";
    case TokKind::kArrow:
      return "'<-'";
    case TokKind::kEq:
      return "'='";
    case TokKind::kNeq:
      return "'!='";
    case TokKind::kLt:
      return "'<'";
    case TokKind::kLe:
      return "'<='";
    case TokKind::kGt:
      return "'>'";
    case TokKind::kGe:
      return "'>='";
    case TokKind::kAmp:
      return "'&'";
    case TokKind::kEof:
      return "end of input";
  }
  return "?";
}

Result<std::vector<Token>> Lex(std::string_view src) {
  std::vector<Token> out;
  int line = 1, col = 1;
  size_t i = 0;
  auto make = [&](TokKind k) {
    Token t;
    t.kind = k;
    t.line = line;
    t.col = col;
    return t;
  };
  auto error = [&](const std::string& msg) {
    return Status::ParseError(msg + " at line " + std::to_string(line) +
                              ", col " + std::to_string(col));
  };

  while (i < src.size()) {
    char ch = src[i];
    if (ch == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (ch == ' ' || ch == '\t' || ch == '\r') {
      ++col;
      ++i;
      continue;
    }
    // Comments: % ... or // ...
    if (ch == '%' || (ch == '/' && i + 1 < src.size() && src[i + 1] == '/')) {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(ch)) || ch == '_') {
      size_t start = i;
      while (i < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[i])) ||
              src[i] == '_')) {
        ++i;
      }
      Token t = make(std::isupper(static_cast<unsigned char>(ch)) ||
                             ch == '_'
                         ? TokKind::kVar
                         : TokKind::kIdent);
      t.text = std::string(src.substr(start, i - start));
      col += static_cast<int>(i - start);
      out.push_back(std::move(t));
      continue;
    }
    if (ch == '-' && src.substr(i + 1, 3) == "inf" &&
        (i + 4 >= src.size() ||
         !(std::isalnum(static_cast<unsigned char>(src[i + 4])) ||
           src[i + 4] == '_'))) {
      // `-inf`: how operator<<(Value) prints negative infinity (`inf` and
      // `nan` stay identifiers; the parser reads them as doubles).
      Token t = make(TokKind::kFloat);
      t.text = "-inf";
      t.float_val = -std::numeric_limits<double>::infinity();
      col += 4;
      i += 4;
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(ch)) ||
        (ch == '-' && i + 1 < src.size() &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      size_t start = i;
      if (ch == '-') ++i;
      bool is_float = false;
      while (i < src.size() &&
             (std::isdigit(static_cast<unsigned char>(src[i])) ||
              src[i] == '.')) {
        if (src[i] == '.') {
          // Lookahead: "3." followed by non-digit is INT then DOT.
          if (i + 1 >= src.size() ||
              !std::isdigit(static_cast<unsigned char>(src[i + 1]))) {
            break;
          }
          is_float = true;
        }
        ++i;
      }
      // Exponent: [eE][+-]?digits, only when digits follow.
      if (i < src.size() && (src[i] == 'e' || src[i] == 'E')) {
        size_t digits = i + 1;
        if (digits < src.size() &&
            (src[digits] == '+' || src[digits] == '-')) {
          ++digits;
        }
        if (digits < src.size() &&
            std::isdigit(static_cast<unsigned char>(src[digits]))) {
          i = digits;
          while (i < src.size() &&
                 std::isdigit(static_cast<unsigned char>(src[i]))) {
            ++i;
          }
          is_float = true;
        }
      }
      std::string_view text = src.substr(start, i - start);
      Token t = make(is_float ? TokKind::kFloat : TokKind::kInt);
      t.text = std::string(text);
      // Checked parses: a literal out of range is a ParseError, never an
      // exception or a wrapped value.
      if (is_float) {
        Result<double> v = ParseDecimal<double>(text, "float literal");
        if (!v.ok()) return error(v.status().message());
        t.float_val = *v;
      } else {
        Result<int64_t> v = ParseDecimal<int64_t>(text, "integer literal");
        if (!v.ok()) return error(v.status().message());
        t.int_val = *v;
      }
      col += static_cast<int>(i - start);
      out.push_back(std::move(t));
      continue;
    }
    if (ch == '"' || ch == '\'') {
      // Either quote kind; escapes \\, \", \' and \n. A raw newline or
      // any other escape is an error.
      char quote = ch;
      size_t start = i++;
      Token t = make(TokKind::kString);
      while (true) {
        if (i >= src.size() || src[i] == '\n') {
          return error("unterminated string literal");
        }
        char c = src[i++];
        if (c == quote) break;
        if (c != '\\') {
          t.text.push_back(c);
          continue;
        }
        // A backslash at the end of the line: the loop reports it.
        if (i >= src.size() || src[i] == '\n') continue;
        char esc = src[i++];
        if (esc == 'n') {
          t.text.push_back('\n');
        } else if (esc == '\\' || esc == '"' || esc == '\'') {
          t.text.push_back(esc);
        } else {
          return error(std::string("unknown escape '\\") + esc +
                       "' in string literal");
        }
      }
      col += static_cast<int>(i - start);
      out.push_back(std::move(t));
      continue;
    }
    switch (ch) {
      case '(':
        out.push_back(make(TokKind::kLParen));
        ++i;
        ++col;
        continue;
      case ')':
        out.push_back(make(TokKind::kRParen));
        ++i;
        ++col;
        continue;
      case '[':
        out.push_back(make(TokKind::kLBracket));
        ++i;
        ++col;
        continue;
      case ']':
        out.push_back(make(TokKind::kRBracket));
        ++i;
        ++col;
        continue;
      case ',':
        out.push_back(make(TokKind::kComma));
        ++i;
        ++col;
        continue;
      case '.':
        out.push_back(make(TokKind::kDot));
        ++i;
        ++col;
        continue;
      case ':':
        out.push_back(make(TokKind::kColon));
        ++i;
        ++col;
        continue;
      case '&':
        out.push_back(make(TokKind::kAmp));
        ++i;
        ++col;
        continue;
      case '|':
        if (i + 1 < src.size() && src[i + 1] == '|') {
          out.push_back(make(TokKind::kAmp));  // '||' == '&'
          i += 2;
          col += 2;
          continue;
        }
        return error("stray '|'");
      case '=':
        out.push_back(make(TokKind::kEq));
        ++i;
        ++col;
        continue;
      case '!':
        if (i + 1 < src.size() && src[i + 1] == '=') {
          out.push_back(make(TokKind::kNeq));
          i += 2;
          col += 2;
          continue;
        }
        return error("stray '!'");
      case '<':
        if (i + 1 < src.size() && src[i + 1] == '-') {
          out.push_back(make(TokKind::kArrow));
          i += 2;
          col += 2;
          continue;
        }
        if (i + 1 < src.size() && src[i + 1] == '=') {
          out.push_back(make(TokKind::kLe));
          i += 2;
          col += 2;
          continue;
        }
        out.push_back(make(TokKind::kLt));
        ++i;
        ++col;
        continue;
      case '>':
        if (i + 1 < src.size() && src[i + 1] == '=') {
          out.push_back(make(TokKind::kGe));
          i += 2;
          col += 2;
          continue;
        }
        out.push_back(make(TokKind::kGt));
        ++i;
        ++col;
        continue;
      default:
        return error(std::string("unexpected character '") + ch + "'");
    }
  }
  out.push_back(make(TokKind::kEof));
  return out;
}

}  // namespace parser
}  // namespace mmv
