// Unit tests for the lexer and parser.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "parser/lexer.h"
#include "test_util.h"

namespace mmv {
namespace {

using testutil::ParseOrDie;
using testutil::Unwrap;

TEST(LexerTest, TokenKinds) {
  auto toks = Unwrap(parser::Lex(R"(p(X, 3, 2.5, "str", abc) <- X != 1.)"));
  std::vector<parser::TokKind> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  using K = parser::TokKind;
  EXPECT_EQ(kinds, (std::vector<K>{
                       K::kIdent, K::kLParen, K::kVar, K::kComma, K::kInt,
                       K::kComma, K::kFloat, K::kComma, K::kString, K::kComma,
                       K::kIdent, K::kRParen, K::kArrow, K::kVar, K::kNeq,
                       K::kInt, K::kDot, K::kEof}));
}

TEST(LexerTest, OperatorsAndComments) {
  auto toks = Unwrap(parser::Lex("<= >= < > = != & || : % comment\n<-"));
  using K = parser::TokKind;
  std::vector<K> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<K>{K::kLe, K::kGe, K::kLt, K::kGt, K::kEq,
                                   K::kNeq, K::kAmp, K::kAmp, K::kColon,
                                   K::kArrow, K::kEof}));
}

TEST(LexerTest, NegativeNumbersAndDots) {
  auto toks = Unwrap(parser::Lex("-3 -2.5 3."));
  EXPECT_EQ(toks[0].int_val, -3);
  EXPECT_DOUBLE_EQ(toks[1].float_val, -2.5);
  EXPECT_EQ(toks[2].kind, parser::TokKind::kInt);  // "3" then "."
  EXPECT_EQ(toks[3].kind, parser::TokKind::kDot);
}

TEST(LexerTest, FloatExponents) {
  auto toks = Unwrap(parser::Lex("1e+06 -2.5E-3 7e2 3e x 4E."));
  using K = parser::TokKind;
  ASSERT_EQ(toks[0].kind, K::kFloat);
  EXPECT_EQ(toks[0].float_val, 1e6);
  ASSERT_EQ(toks[1].kind, K::kFloat);
  EXPECT_EQ(toks[1].float_val, -2.5e-3);
  ASSERT_EQ(toks[2].kind, K::kFloat);  // an exponent alone makes a double
  EXPECT_EQ(toks[2].float_val, 700.0);
  // No digits after the 'e': the number ends before it.
  EXPECT_EQ(toks[3].kind, K::kInt);
  EXPECT_EQ(toks[4].kind, K::kIdent);
  EXPECT_EQ(toks[5].kind, K::kIdent);
  EXPECT_EQ(toks[6].kind, K::kInt);
  EXPECT_EQ(toks[7].kind, K::kVar);
  EXPECT_EQ(toks[8].kind, K::kDot);
  EXPECT_FALSE(parser::Lex("1e99999").ok());  // out of range: a ParseError
}

TEST(LexerTest, PrintedDoublesLexBackExactly) {
  for (double d : {0.1, -0.0, 2.0, 1000000.25, 0.1234567, 1e6, 1e22, 5e-324,
                   2.2250738585072014e-308,
                   std::numeric_limits<double>::max(),
                   -std::numeric_limits<double>::min()}) {
    std::string text = Value(d).ToString();
    auto toks = Unwrap(parser::Lex(text));
    ASSERT_EQ(toks[0].kind, parser::TokKind::kFloat) << text;
    EXPECT_EQ(std::signbit(toks[0].float_val), std::signbit(d)) << text;
    EXPECT_EQ(toks[0].float_val, d) << text;
    EXPECT_EQ(toks[1].kind, parser::TokKind::kEof) << text;
  }
}

TEST(LexerTest, PrintedStringsLexBack) {
  // Unescaped, a newline would end the literal and an inner quote close it
  // early.
  for (std::string str : {std::string("a\\b\nc"), std::string("say \"hi\""),
                          std::string("it's"), std::string("\\n"),
                          std::string("\\")}) {
    std::string text = Value(str).ToString();
    auto toks = Unwrap(parser::Lex(text));
    ASSERT_EQ(toks[0].kind, parser::TokKind::kString) << text;
    EXPECT_EQ(toks[0].text, str) << text;
    EXPECT_EQ(toks[1].kind, parser::TokKind::kEof) << text;
  }
  EXPECT_EQ(Value("a\\b\nc").ToString(), R"("a\\b\nc")");
}

TEST(LexerTest, StringEscapes) {
  auto toks = Unwrap(parser::Lex(R"('\\ \" \' \n' "\\ \" \' \n")"));
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "\\ \" ' \n");
  EXPECT_EQ(toks[1].text, "\\ \" ' \n");
  EXPECT_FALSE(parser::Lex(R"("a\qb")").ok());   // unknown escape
  EXPECT_FALSE(parser::Lex(R"("a\tb")").ok());
  EXPECT_FALSE(parser::Lex("\"a\nb\"").ok());    // raw newline
  EXPECT_FALSE(parser::Lex("\"a\\\nb\"").ok());  // escaped raw newline
  EXPECT_FALSE(parser::Lex(R"("a\)").ok());      // backslash at the end
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(parser::Lex("\"unterminated").ok());
  EXPECT_FALSE(parser::Lex("p | q").ok());
  EXPECT_FALSE(parser::Lex("#").ok());
  EXPECT_FALSE(parser::Lex("!x").ok());
}

TEST(ParserTest, FactAndRule) {
  Program p = ParseOrDie(R"(
    p(X) <- X = 1.
    q(X) <- p(X) & X != 2.
  )");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.clauses()[0].number, 1);
  EXPECT_TRUE(p.clauses()[0].IsFact());
  EXPECT_EQ(p.clauses()[0].head_pred, "p");
  EXPECT_EQ(p.clauses()[1].body.size(), 1u);
  EXPECT_EQ(p.clauses()[1].body[0].pred, "p");
  EXPECT_EQ(p.clauses()[1].constraint.prims().size(), 1u);
}

TEST(ParserTest, VariablesScopedPerClause) {
  Program p = ParseOrDie(R"(
    p(X) <- X = 1.
    q(X) <- X = 2.
  )");
  VarId v0 = p.clauses()[0].head_args[0].var();
  VarId v1 = p.clauses()[1].head_args[0].var();
  EXPECT_NE(v0, v1);
  EXPECT_EQ(p.names()->NameOf(v0), "X");
  EXPECT_EQ(p.names()->NameOf(v1), "X");
}

TEST(ParserTest, SharedVariablesWithinClause) {
  Program p = ParseOrDie("r(X, Y) <- e(X, Z) & t(Z, Y).");
  const Clause& c = p.clauses()[0];
  // Z is shared between the two body atoms.
  EXPECT_EQ(c.body[0].args[1], c.body[1].args[0]);
  EXPECT_NE(c.body[0].args[0], c.body[1].args[1]);
}

TEST(ParserTest, DomainCalls) {
  Program p = ParseOrDie(
      R"(s(X) <- in(X, rel:select_eq("t", "k", "v")) & notin(X, arith:greater(3)).)");
  const Constraint& c = p.clauses()[0].constraint;
  ASSERT_EQ(c.prims().size(), 2u);
  EXPECT_EQ(c.prims()[0].kind, PrimKind::kIn);
  EXPECT_EQ(c.prims()[0].call.domain, "rel");
  EXPECT_EQ(c.prims()[0].call.function, "select_eq");
  EXPECT_EQ(c.prims()[0].call.args.size(), 3u);
  EXPECT_EQ(c.prims()[1].kind, PrimKind::kNotIn);
}

TEST(ParserTest, NotBlocks) {
  Program p = ParseOrDie("p(X) <- X >= 0 & not(X = 1 & X = 2).");
  const Constraint& c = p.clauses()[0].constraint;
  EXPECT_EQ(c.prims().size(), 1u);
  ASSERT_EQ(c.nots().size(), 1u);
  EXPECT_EQ(c.nots()[0].prims.size(), 2u);
}

TEST(ParserTest, BareIdentifiersAreStringConstants) {
  Program p = ParseOrDie("p(a, B, 1) <- B = b.");
  const Clause& c = p.clauses()[0];
  EXPECT_EQ(c.head_args[0], Term::Const(Value("a")));
  EXPECT_TRUE(c.head_args[1].is_var());
  EXPECT_EQ(c.head_args[2], Term::Const(Value(1)));
  EXPECT_EQ(c.constraint.prims()[0].rhs, Term::Const(Value("b")));
}

TEST(ParserTest, TrueFalseLiterals) {
  Program p = ParseOrDie("p(X) <- X = true & true.");
  const Clause& c = p.clauses()[0];
  EXPECT_EQ(c.constraint.prims().size(), 1u);
  EXPECT_EQ(c.constraint.prims()[0].rhs, Term::Const(Value(true)));
}

TEST(ParserTest, AnonymousVariablesAreFresh) {
  Program p = ParseOrDie("p(_, _) <- q(_).");
  const Clause& c = p.clauses()[0];
  EXPECT_NE(c.head_args[0], c.head_args[1]);
  EXPECT_NE(c.head_args[0], c.body[0].args[0]);
}

TEST(ParserTest, PaperStyleDoubleBar) {
  // '||' separates constraint from body, as in the paper.
  Program p = ParseOrDie("s(X, Y) <- X = 1 || t(X, Y).");
  EXPECT_EQ(p.clauses()[0].body.size(), 1u);
  EXPECT_EQ(p.clauses()[0].constraint.prims().size(), 1u);
}

TEST(ParserTest, ParseErrors) {
  EXPECT_FALSE(parser::ParseProgram("p(X").ok());
  EXPECT_FALSE(parser::ParseProgram("p(X) <- .").ok());
  EXPECT_FALSE(parser::ParseProgram("p(X) <- X = 1").ok());  // missing dot
  EXPECT_FALSE(parser::ParseProgram("p(X) <- in(X).").ok());
  EXPECT_FALSE(parser::ParseProgram("p(X) <- X.").ok());
  EXPECT_FALSE(parser::ParseProgram("(X) <- q(X).").ok());
}

// Number literals out of range are a ParseError Status, not an uncaught
// std::out_of_range from the lexer.
TEST(ParserTest, OutOfRangeNumberLiteralsAreParseErrors) {
  Result<Program> big_int =
      parser::ParseProgram("p(X) <- X = 99999999999999999999.");
  ASSERT_FALSE(big_int.ok());
  EXPECT_EQ(big_int.status().code(), StatusCode::kParseError);

  Result<Program> big_float = parser::ParseProgram(
      "p(X) <- X = " + std::string(400, '9') + ".5.");
  ASSERT_FALSE(big_float.ok());
  EXPECT_EQ(big_float.status().code(), StatusCode::kParseError);

  // The extremes that do fit still parse.
  Program edge = ParseOrDie(
      "p(X) <- X = -9223372036854775808. q(X) <- X = 9223372036854775807.");
  EXPECT_EQ(edge.clauses()[0].constraint.prims()[0].rhs.constant(),
            Value(std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(edge.clauses()[1].constraint.prims()[0].rhs.constant(),
            Value(std::numeric_limits<int64_t>::max()));
}

TEST(ParserTest, ParseConstrainedAtom) {
  Program p = ParseOrDie("p(X) <- X = 1.");
  parser::ParsedAtom atom =
      Unwrap(parser::ParseConstrainedAtom("p(X) <- X != 2 & X >= 0.", &p));
  EXPECT_EQ(atom.pred, "p");
  EXPECT_EQ(atom.args.size(), 1u);
  EXPECT_EQ(atom.constraint.prims().size(), 2u);
  // Body atoms are rejected in constrained atoms.
  EXPECT_FALSE(
      parser::ParseConstrainedAtom("p(X) <- q(X).", &p).ok());
}

TEST(ParserTest, ParseSingleClause) {
  Program p;
  Clause c = Unwrap(parser::ParseClause("p(X) <- q(X) & X = 3.", &p));
  EXPECT_EQ(c.head_pred, "p");
  EXPECT_EQ(c.body.size(), 1u);
  EXPECT_EQ(p.size(), 0u);  // not added to the program
}

TEST(ParserTest, RoundTripThroughToString) {
  Program p = ParseOrDie(
      R"(s(X, Y) <- in(A, rel:scan("t")) & X != Y & not(Y = 3) || q(X), r(Y).)");
  std::string printed = p.clauses()[0].ToString(p.names());
  EXPECT_NE(printed.find("in(A, rel:scan(\"t\"))"), std::string::npos);
  EXPECT_NE(printed.find("not(Y = 3)"), std::string::npos);
  EXPECT_NE(printed.find("q(X)"), std::string::npos);
}

}  // namespace
}  // namespace mmv
