#include "common/value.h"

#include <charconv>
#include <cmath>
#include <functional>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/hash.h"

namespace mmv {

const char* ValueKindName(ValueKind k) {
  switch (k) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kDouble:
      return "double";
    case ValueKind::kString:
      return "string";
    case ValueKind::kList:
      return "list";
  }
  return "unknown";
}

namespace {

// Collapses kInt/kDouble into one ordering class so 2 == 2.0.
int KindClass(ValueKind k) {
  switch (k) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool:
      return 1;
    case ValueKind::kInt:
    case ValueKind::kDouble:
      return 2;
    case ValueKind::kString:
      return 3;
    case ValueKind::kList:
      return 4;
  }
  return 5;
}

}  // namespace

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return as_int() == other.as_int();
    return numeric() == other.numeric();
  }
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBool:
      return as_bool() == other.as_bool();
    case ValueKind::kString:
      return as_string() == other.as_string();
    case ValueKind::kList:
      return as_list() == other.as_list();
    default:
      return false;  // numeric handled above
  }
}

bool Value::operator<(const Value& other) const {
  int ka = KindClass(kind()), kb = KindClass(other.kind());
  if (ka != kb) return ka < kb;
  switch (kind()) {
    case ValueKind::kNull:
      return false;
    case ValueKind::kBool:
      return as_bool() < other.as_bool();
    case ValueKind::kInt:
    case ValueKind::kDouble: {
      if (is_int() && other.is_int()) return as_int() < other.as_int();
      return numeric() < other.numeric();
    }
    case ValueKind::kString:
      return as_string() < other.as_string();
    case ValueKind::kList: {
      const ValueList& a = as_list();
      const ValueList& b = other.as_list();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        if (a[i] < b[i]) return true;
        if (b[i] < a[i]) return false;
      }
      return a.size() < b.size();
    }
  }
  return false;
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(KindClass(kind())) * 0x9e3779b97f4a7c15ULL;
  switch (kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBool:
      h = HashCombine(h, std::hash<bool>{}(as_bool()));
      break;
    case ValueKind::kInt:
    case ValueKind::kDouble:
      // Hash by double so 2 and 2.0 collide (consistent with operator==).
      h = HashCombine(h, std::hash<double>{}(numeric()));
      break;
    case ValueKind::kString:
      h = HashCombine(h, std::hash<std::string>{}(as_string()));
      break;
    case ValueKind::kList:
      for (const Value& v : as_list()) h = HashCombine(h, v.Hash());
      break;
  }
  return h;
}

std::string Value::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return os << "null";
    case ValueKind::kBool:
      return os << (v.as_bool() ? "true" : "false");
    case ValueKind::kInt:
      return os << v.as_int();
    case ValueKind::kDouble: {
      double d = v.as_double();
      // Non-finite doubles print as the words the parser reads back as
      // doubles: every NaN as `nan` (sign and payload are dropped).
      if (std::isnan(d)) return os << "nan";
      if (std::isinf(d)) return os << (d < 0 ? "-inf" : "inf");
      // The shortest text that reads back to the same bits. Text with no
      // '.' or exponent (2, -0) gets ".0" so it lexes as a double again.
      char buf[32];
      char* end = std::to_chars(buf, buf + sizeof(buf), d).ptr;
      std::string_view text(buf, static_cast<size_t>(end - buf));
      os << text;
      if (text.find_first_of(".e") == std::string_view::npos) os << ".0";
      return os;
    }
    case ValueKind::kString: {
      // Escaped so the lexer reads the text back to the same string.
      std::string_view s = v.as_string();
      os << '"';
      for (size_t at; (at = s.find_first_of("\\\"\n")) != s.npos;
           s.remove_prefix(at + 1)) {
        os << s.substr(0, at) << '\\' << (s[at] == '\n' ? 'n' : s[at]);
      }
      return os << s << '"';
    }
    case ValueKind::kList: {
      os << '[';
      const ValueList& l = v.as_list();
      for (size_t i = 0; i < l.size(); ++i) {
        if (i) os << ", ";
        os << l[i];
      }
      return os << ']';
    }
  }
  return os;
}

}  // namespace mmv
