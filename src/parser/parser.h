// Parser for mediator programs and update requests.
//
// Grammar (informal):
//
//   program   := (clause '.')*
//   clause    := atom [ '<-' element (SEP element)* ]
//   element   := primitive | 'not' '(' primitive (SEP primitive)* ')' | atom
//   primitive := term CMP term
//              | 'in' '(' term ',' dcall ')'
//              | 'notin' '(' term ',' dcall ')'
//   dcall     := ident ':' ident '(' [term (',' term)*] ')'
//   atom      := ident '(' [term (',' term)*] ')'
//   term      := VAR | INT | FLOAT | STRING | 'true' | 'false' | 'null'
//              | 'inf' | '-inf' | 'nan' | ident
//   SEP       := '&' | ',' | '||'
//   CMP       := '=' | '!=' | '<' | '<=' | '>' | '>='
//
// Other lowercase identifiers in term position denote string constants
// (Datalog-style), so p(a, b) abbreviates p("a", "b"). Variables are scoped
// per clause and numbered from the program's VarFactory; their source names
// are recorded in the program's VarNames for pretty printing (update bursts
// excepted: see ParseBurst).

#ifndef MMV_PARSER_PARSER_H_
#define MMV_PARSER_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "core/program.h"

namespace mmv {
namespace parser {

/// \brief A parsed constrained atom `pred(args) <- constraint`, used for
/// update requests (deletions / insertions, paper Section 3).
struct ParsedAtom {
  Symbol pred;
  TermVec args;
  Constraint constraint;
};

/// \brief Parses a whole program (clauses are numbered in order).
Result<Program> ParseProgram(std::string_view text);

/// \brief Parses one clause using (and extending) \p program's variable
/// numbering, without adding it to the program.
Result<Clause> ParseClause(std::string_view text, Program* program);

/// \brief Parses a constrained atom such as
/// `seenwith("corleone", Y) <- Y != "smith"`.
Result<ParsedAtom> ParseConstrainedAtom(std::string_view text,
                                        Program* program);

/// \brief As above, but variable names go to \p names (nullptr: nowhere)
/// instead of the program's table, which would otherwise grow with every
/// parsed input. Ids still come from \p program's factory.
Result<ParsedAtom> ParseConstrainedAtom(std::string_view text,
                                        Program* program, VarNames* names);

}  // namespace parser
}  // namespace mmv

#endif  // MMV_PARSER_PARSER_H_
