// Unit tests for view serialization (parser/view_io).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "constraint/canonical.h"
#include "maintenance/stdel.h"
#include "parser/view_io.h"
#include "test_util.h"

namespace mmv {
namespace {

using testutil::Instances;
using testutil::MaterializeOrDie;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

TEST(SupportParseTest, RoundTrip) {
  for (const char* text :
       {"<1>", "<4, <2, <3>>>", "<5, <1>, <2>, <3>>", "<-3>",
        "<7, <-1>, <4, <2>>>"}) {
    Support s = Unwrap(parser::ParseSupport(text));
    EXPECT_EQ(s.ToString(), text);
  }
}

TEST(SupportParseTest, Errors) {
  EXPECT_FALSE(parser::ParseSupport("").ok());
  EXPECT_FALSE(parser::ParseSupport("<").ok());
  EXPECT_FALSE(parser::ParseSupport("<a>").ok());
  EXPECT_FALSE(parser::ParseSupport("<1> junk").ok());
  EXPECT_FALSE(parser::ParseSupport("<1, <2>").ok());
}

TEST(ViewIoTest, EmptyView) {
  Program p;
  View empty = Unwrap(parser::DeserializeView("", &p));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(parser::SerializeView(empty), "");
}

TEST(ViewIoTest, RoundTripPreservesInstancesAndSupports) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 3)).
    a(X) <- b(X).
    b(X) <- in(X, arith:between(0, 5)).
    c(X) <- a(X).
  )");
  View view = MaterializeOrDie(p, w.domains.get());

  std::string text = parser::SerializeView(view);
  View loaded = Unwrap(parser::DeserializeView(text, &p));

  ASSERT_EQ(loaded.size(), view.size());
  for (size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(loaded.atoms()[i].pred, view.atoms()[i].pred);
    EXPECT_EQ(loaded.atoms()[i].support, view.atoms()[i].support);
    EXPECT_EQ(loaded.atoms()[i].depth, view.atoms()[i].depth);
  }
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            Instances(view, w.domains.get()));
}

TEST(ViewIoTest, RoundTripAfterDeletionWithNotBlocks) {
  // Post-StDel views carry (possibly grounded) not-blocks; they must
  // serialize and load back losslessly at the instance level.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 9)).
    b(X) <- a(X).
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req =
      ParseUpdate("a(X) <- in(X, arith:between(3, 5)).", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());

  std::string text = parser::SerializeView(view);
  View loaded = Unwrap(parser::DeserializeView(text, &p));
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            Instances(view, w.domains.get()));
}

TEST(ViewIoTest, DoublesRoundTripExactly) {
  // At 6 significant digits 1000000.25 would print as "1e+06" and
  // 0.1234567 as 0.123457.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    p(X) <- X = 1000000.25.
    p(X) <- X = 0.1234567.
    p(X) <- X = -0.0.
    p(X) <- X = 2.0.
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  std::string text = parser::SerializeView(view);
  View loaded = Unwrap(parser::DeserializeView(text, &p));
  EXPECT_EQ(testutil::CanonicalState(loaded), testutil::CanonicalState(view));
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            Instances(view, w.domains.get()));
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            (std::set<std::string>{"p(1000000.25)", "p(0.1234567)",
                                   "p(-0.0)", "p(2.0)"}));
}

TEST(ViewIoTest, StringsWithQuotesRoundTrip) {
  // Unescaped, the inner quote would end the string: p("say "hi"") does
  // not parse.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    p(X) <- X = 'say "hi"'.
    p(X) <- X = "it's".
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  std::string text = parser::SerializeView(view);
  View loaded = Unwrap(parser::DeserializeView(text, &p));
  EXPECT_EQ(testutil::CanonicalState(loaded), testutil::CanonicalState(view));
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            Instances(view, w.domains.get()));
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            (std::set<std::string>{R"(p("say \"hi\""))", R"(p("it's"))"}));
}

TEST(ViewIoTest, LoadedViewIsMaintainable) {
  // A deserialized view must keep working: supports must line up with the
  // program's clause numbering so StDel can propagate.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. a(X) <- X = 2. b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  View loaded =
      Unwrap(parser::DeserializeView(parser::SerializeView(view), &p));

  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 1.", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &loaded, req, w.domains.get()).ok());
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            (std::set<std::string>{"a(2)", "b(2)"}));
}

TEST(ViewIoTest, TupleValuesRoundTrip) {
  // Constraints mentioning tuple constants (relational rows) survive.
  TestWorld w = TestWorld::Make();
  Program p;
  ViewAtom atom;
  atom.pred = "row";
  VarId x = p.factory()->Fresh();
  atom.args = {Term::Var(x)};
  atom.constraint.Add(Primitive::Eq(
      Term::Var(x),
      Term::Const(Value(ValueList{Value("ann"), Value(30), Value(true)}))));
  atom.support = Support(-1);
  View view;
  view.Add(atom);

  View loaded =
      Unwrap(parser::DeserializeView(parser::SerializeView(view), &p));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            Instances(view, w.domains.get()));
}

TEST(ViewIoTest, NullConstantsRoundTrip) {
  // Value() prints as `null`; read back as the string "null" it would
  // change value across a checkpoint.
  TestWorld w = TestWorld::Make();
  Program p;
  View view;
  int support = 0;
  for (const Value& v : {Value(), Value(ValueList{Value(1), Value()})}) {
    ViewAtom atom;
    atom.pred = "n";
    VarId x = p.factory()->Fresh();
    atom.args = {Term::Var(x)};
    atom.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(v)));
    atom.support = Support(--support);
    view.Add(atom);
  }

  View loaded =
      Unwrap(parser::DeserializeView(parser::SerializeView(view), &p));
  EXPECT_EQ(testutil::CanonicalState(loaded), testutil::CanonicalState(view));
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            Instances(view, w.domains.get()));
  EXPECT_EQ(Instances(loaded, w.domains.get()),
            (std::set<std::string>{"n(null)", "n([1, null])"}));
}

TEST(ViewIoTest, CommentsAndBlanksIgnored) {
  Program p;
  View loaded = Unwrap(parser::DeserializeView(
      "% a comment line\n\n  \n"
      "a(X0) <- X0 = 1 @ <1> # 0\n",
      &p));
  EXPECT_EQ(loaded.size(), 1u);
}

// A support clause number or a depth outside int's range is a ParseError
// Status, not a signed overflow.
TEST(ViewIoTest, OutOfRangeNumbersAreParseErrors) {
  Program p;
  Result<View> support =
      parser::DeserializeView("p(1) <- true @ <99999999999> # 0\n", &p);
  ASSERT_FALSE(support.ok());
  EXPECT_EQ(support.status().code(), StatusCode::kParseError);
  Result<View> depth =
      parser::DeserializeView("p(1) <- true @ <1> # 99999999999\n", &p);
  ASSERT_FALSE(depth.ok());
  EXPECT_EQ(depth.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(parser::DeserializeView("p(1) <- true @ <1> # 3x\n", &p).ok());

  View edge = Unwrap(parser::DeserializeView(
      "p(1) <- true @ <-2147483648> # 999999999\n", &p));
  EXPECT_EQ(edge.atoms()[0].support.ToString(), "<-2147483648>");
  EXPECT_EQ(edge.atoms()[0].depth, 999999999);
}

TEST(ViewIoTest, MissingSupportIsError) {
  Program p;
  EXPECT_FALSE(parser::DeserializeView("a(X0) <- X0 = 1\n", &p).ok());
}

TEST(ParserListTest, TupleLiterals) {
  Program p = ParseOrDie(R"(f(X) <- X = [1, "a", true, [2, 3]].)");
  const Term& rhs = p.clauses()[0].constraint.prims()[0].rhs;
  ASSERT_TRUE(rhs.is_const());
  ASSERT_TRUE(rhs.constant().is_list());
  EXPECT_EQ(rhs.constant().as_list().size(), 4u);
  EXPECT_EQ(rhs.constant().as_list()[3].as_list()[1], Value(3));

  EXPECT_FALSE(parser::ParseProgram("f(X) <- X = [Y].").ok());  // no vars
  Program empty_list = ParseOrDie("f(X) <- X = [].");
  EXPECT_TRUE(
      empty_list.clauses()[0].constraint.prims()[0].rhs.constant().is_list());
}

TEST(ParserNestedNotTest, ParsesNestedBlocks) {
  Program p = ParseOrDie("f(X) <- not(X = 1 & not(X = 2 & not(X = 3))).");
  const Constraint& c = p.clauses()[0].constraint;
  ASSERT_EQ(c.nots().size(), 1u);
  ASSERT_EQ(c.nots()[0].inner.size(), 1u);
  ASSERT_EQ(c.nots()[0].inner[0].inner.size(), 1u);
}

TEST(BurstIoTest, ParsesKindsCommentsAndBlanks) {
  Program p;
  auto burst = Unwrap(parser::ParseBurst(R"(
    % recorded burst
    del a(X) <- X = 1.

    ins a(X) <- X = 2.
    ins b(X, Y) <- X = 1 & Y != 2.
  )",
                                         &p));
  ASSERT_EQ(burst.size(), 3u);
  EXPECT_TRUE(burst[0].is_delete);
  EXPECT_FALSE(burst[1].is_delete);
  EXPECT_EQ(burst[0].atom.pred, "a");
  EXPECT_EQ(burst[2].atom.pred, "b");
  EXPECT_EQ(burst[2].atom.args.size(), 2u);
}

TEST(BurstIoTest, RejectsUnknownDirective) {
  Program p;
  EXPECT_FALSE(parser::ParseBurst("upsert a(X) <- X = 1.\n", &p).ok());
}

TEST(BurstIoTest, SerializeParseRoundTrip) {
  Program p;
  auto original = Unwrap(parser::ParseBurst(
      "del a(X) <- X = 1.\nins a(X) <- in(X, arith:between(0, 4)).\n"
      "ins c(X) <- true.\n",
      &p));
  std::string text = parser::SerializeBurst(original, p.names());
  auto reparsed = Unwrap(parser::ParseBurst(text, &p));
  ASSERT_EQ(reparsed.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reparsed[i].is_delete, original[i].is_delete);
    EXPECT_EQ(reparsed[i].atom.pred, original[i].atom.pred);
    EXPECT_EQ(CanonicalAtomString(original[i].atom.pred, original[i].atom.args,
                                  original[i].atom.constraint),
              CanonicalAtomString(reparsed[i].atom.pred,
                                  reparsed[i].atom.args,
                                  reparsed[i].atom.constraint));
  }
}

TEST(BurstIoTest, DoublesRoundTripExactly) {
  // A WAL payload printed at 6 significant digits would read
  // "X1 = 1e+06" for both atoms.
  Program p;
  auto original = Unwrap(parser::ParseBurst(
      "ins r(X) <- X = 1000000.25.\nins r(X) <- X = 1000000.75.\n", &p));
  std::string text = parser::SerializeBurst(original, p.names());
  auto reparsed = Unwrap(parser::ParseBurst(text, &p));
  ASSERT_EQ(reparsed.size(), 2u);
  std::vector<std::string> keys;
  for (size_t i = 0; i < 2; ++i) {
    keys.push_back(CanonicalAtomString(reparsed[i].atom.pred,
                                       reparsed[i].atom.args,
                                       reparsed[i].atom.constraint));
    EXPECT_EQ(keys.back(), CanonicalAtomString(original[i].atom.pred,
                                               original[i].atom.args,
                                               original[i].atom.constraint));
  }
  EXPECT_NE(keys[0], keys[1]);
}

TEST(BurstIoTest, StringsWithQuotesRoundTrip) {
  // A WAL payload holding a double quote inside a string must parse back.
  Program p;
  auto original = Unwrap(parser::ParseBurst(
      "ins r(X) <- X = 'say \"hi\"'.\ndel r(X) <- X = \"a\\\\b\\nc\".\n",
      &p));
  ASSERT_EQ(original.size(), 2u);
  std::string text = parser::SerializeBurst(original, p.names());
  auto reparsed = Unwrap(parser::ParseBurst(text, &p));
  ASSERT_EQ(reparsed.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(reparsed[i].is_delete, original[i].is_delete);
    EXPECT_EQ(CanonicalAtomString(reparsed[i].atom.pred,
                                  reparsed[i].atom.args,
                                  reparsed[i].atom.constraint),
              CanonicalAtomString(original[i].atom.pred,
                                  original[i].atom.args,
                                  original[i].atom.constraint));
  }
}

}  // namespace
}  // namespace mmv
