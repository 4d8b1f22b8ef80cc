// Tokenizer for the mediator rule language.
//
// Example of the accepted surface syntax (paper clause (3)):
//
//   suspect(X, Y) <- swlndc(X, Y) &
//                    in(T, dbase:select_eq("empl_abc", "name", Y)).
//
// `||` and `,` are accepted as conjunction separators alongside `&`, so
// rules can be written in the paper's "constraint || body" style.

#ifndef MMV_PARSER_LEXER_H_
#define MMV_PARSER_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mmv {
namespace parser {

/// \brief Token kinds of the rule language.
enum class TokKind : uint8_t {
  kIdent,    ///< lowercase identifier: predicate / domain / function / const
  kVar,      ///< uppercase or _ identifier: variable
  kInt,      ///< integer literal
  kFloat,    ///< floating literal
  kString,   ///< "quoted string"
  kLParen,   ///< (
  kRParen,   ///< )
  kLBracket, ///< [
  kRBracket, ///< ]
  kComma,    ///< ,
  kDot,      ///< .
  kColon,    ///< :
  kArrow,    ///< <-
  kEq,       ///< =
  kNeq,      ///< !=
  kLt,       ///< <
  kLe,       ///< <=
  kGt,       ///< >
  kGe,       ///< >=
  kAmp,      ///< &  (also accepts ||)
  kEof,
};

/// \brief One lexed token.
struct Token {
  TokKind kind;
  std::string text;  ///< identifier / literal payload
  int64_t int_val = 0;
  double float_val = 0;
  int line = 1;
  int col = 1;
};

/// \brief Tokenizes \p src; supports '%' and '//' line comments. String
/// literals take either quote kind and the escapes \\\\, \\", \\' and \\n
/// (the ones operator<<(Value) writes); any other escape, or a raw
/// newline, is a ParseError.
Result<std::vector<Token>> Lex(std::string_view src);

/// \brief Human-readable token-kind name for diagnostics.
const char* TokKindName(TokKind k);

}  // namespace parser
}  // namespace mmv

#endif  // MMV_PARSER_LEXER_H_
