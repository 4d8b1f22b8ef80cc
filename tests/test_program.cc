// Unit tests for Program, Clause, Support and View containers.

#include <gtest/gtest.h>

#include "test_util.h"

namespace mmv {
namespace {

using testutil::ParseOrDie;

TEST(ProgramTest, ClauseNumberingIsOneBased) {
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X).");
  EXPECT_EQ(p.clauses()[0].number, 1);
  EXPECT_EQ(p.clauses()[1].number, 2);
  EXPECT_EQ(p.ClauseByNumber(1)->head_pred, "a");
  EXPECT_EQ(p.ClauseByNumber(2)->head_pred, "b");
  EXPECT_EQ(p.ClauseByNumber(0), nullptr);
  EXPECT_EQ(p.ClauseByNumber(3), nullptr);
}

TEST(ProgramTest, ClausesForIndex) {
  Program p = ParseOrDie("a(X) <- X = 1. a(X) <- X = 2. b(X) <- a(X).");
  EXPECT_EQ(p.ClausesFor("a").size(), 2u);
  EXPECT_EQ(p.ClausesFor("b").size(), 1u);
  EXPECT_TRUE(p.ClausesFor("zzz").empty());
}

TEST(ProgramTest, HeadPredicates) {
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X). a(X) <- b(X).");
  EXPECT_EQ(p.HeadPredicates(), (std::vector<Symbol>{"a", "b"}));
}

TEST(ProgramTest, RecursionDetection) {
  EXPECT_FALSE(ParseOrDie("a(X) <- X = 1. b(X) <- a(X).").IsRecursive());
  EXPECT_TRUE(
      ParseOrDie("a(X) <- X = 1. b(X) <- a(X). a(X) <- b(X).").IsRecursive());
  EXPECT_TRUE(ParseOrDie("a(X) <- a(X).").IsRecursive());
}

TEST(ClauseTest, VariablesCoverHeadConstraintAndBody) {
  Program p = ParseOrDie("h(X, Y) <- X = 1 & in(Z, arith:greater(Y)) || b(W).");
  std::vector<VarId> vars = p.clauses()[0].Variables();
  EXPECT_EQ(vars.size(), 4u);  // X, Y, Z, W
}

TEST(ClauseTest, RenameIsFreshAndStructurePreserving) {
  Program p = ParseOrDie("h(X, Y) <- X != Y || b(X), c(Y).");
  const Clause& c = p.clauses()[0];
  Clause r = c.Rename(p.factory());
  // Same shape.
  EXPECT_EQ(r.head_pred, c.head_pred);
  EXPECT_EQ(r.body.size(), c.body.size());
  EXPECT_EQ(r.number, c.number);
  // All variables fresh.
  for (VarId v : r.Variables()) {
    for (VarId w : c.Variables()) EXPECT_NE(v, w);
  }
  // Sharing preserved: head X == body b's arg.
  EXPECT_EQ(r.head_args[0], r.body[0].args[0]);
  EXPECT_EQ(r.head_args[1], r.body[1].args[0]);
}

TEST(SupportTest, EqualityHashDepthCount) {
  Support leaf3(3);
  Support s1(2, {leaf3});
  Support s2(2, {Support(3)});
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.Hash(), s2.Hash());
  EXPECT_NE(s1, Support(2, {Support(4)}));
  EXPECT_NE(s1, leaf3);

  Support nested(4, {s1, leaf3});
  EXPECT_EQ(nested.NodeCount(), 4u);
  EXPECT_EQ(nested.Depth(), 3u);
  EXPECT_EQ(nested.ToString(), "<4, <2, <3>>, <3>>");
}

TEST(ViewTest, AddQueryRemove) {
  View v;
  ViewAtom a;
  a.pred = "p";
  a.support = Support(1);
  v.Add(a);
  ViewAtom b;
  b.pred = "q";
  b.support = Support(2);
  v.Add(b);

  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.AtomsFor("p"), (std::vector<size_t>{0}));
  EXPECT_TRUE(v.HasSupport(Support(1)));
  EXPECT_FALSE(v.HasSupport(Support(9)));

  v.MarkAll(true);
  EXPECT_TRUE(v.atoms()[0].marked);

  size_t removed = v.RemoveIf(
      [](const ViewAtom& atom) { return atom.pred == "p"; });
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.atoms()[0].pred, "q");
}

TEST(ViewTest, AccountingHelpers) {
  View v;
  ViewAtom a;
  a.pred = "p";
  a.constraint.Add(
      Primitive::Eq(Term::Var(0), Term::Const(Value(1))));
  a.support = Support(1, {Support(2)});
  v.Add(a);
  EXPECT_GT(v.ApproxBytes(), sizeof(View));
  EXPECT_EQ(v.TotalLiterals(), 1u);
  EXPECT_NE(v.ToString().find("p("), std::string::npos);
}

}  // namespace
}  // namespace mmv
