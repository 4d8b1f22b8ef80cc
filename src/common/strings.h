// Small string helpers shared across modules.

#ifndef MMV_COMMON_STRINGS_H_
#define MMV_COMMON_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/result.h"

namespace mmv {

/// \brief Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Splits \p s on character \p sep (no trimming; empty pieces kept).
std::vector<std::string> Split(std::string_view s, char sep);

/// \brief Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// \brief True iff \p s starts with \p prefix.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief True iff \p s ends with \p suffix.
bool EndsWith(std::string_view s, std::string_view suffix);

/// \brief printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// \brief Strict parse of the whole of \p s into the number type T through
/// std::from_chars: decimal digits (plus a leading '-' for signed T; a
/// fraction and exponent for floating T), nothing else. A value outside
/// T's range is a ParseError naming \p what, never a wrapped, clamped or
/// thrown value.
template <typename T>
Result<T> ParseDecimal(std::string_view s, std::string_view what) {
  T v{};
  const char* end = s.data() + s.size();
  auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || stop != end) {
    return Status::ParseError("bad " + std::string(what) + " '" +
                              std::string(s) + "'");
  }
  return v;
}

}  // namespace mmv

#endif  // MMV_COMMON_STRINGS_H_
