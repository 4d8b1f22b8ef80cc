// Unit tests for the T_P / W_P fixpoint engine.

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::Instances;
using testutil::InstancesOf;
using testutil::MaterializeOrDie;
using testutil::ParseOrDie;
using testutil::TestWorld;
using testutil::Unwrap;

TEST(FixpointTest, FactsOnly) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. a(X) <- X = 2.");
  FixpointStats stats;
  View v = Unwrap(Materialize(p, w.domains.get(), {}, &stats));
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(stats.atoms_created, 2);
  EXPECT_FALSE(stats.truncated);
}

TEST(FixpointTest, ChainDerivation) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(/*depth=*/3, /*width=*/2);
  View v = MaterializeOrDie(p, w.domains.get());
  // width atoms per level, depth+1 levels.
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(InstancesOf(v, "p3", w.domains.get()).size(), 2u);
}

TEST(FixpointTest, JoinRule) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    e(X, Y) <- X = 1 & Y = 2.
    e(X, Y) <- X = 2 & Y = 3.
    j(X, Z) <- e(X, Y) & e(Y, Z).
  )");
  View v = MaterializeOrDie(p, w.domains.get());
  EXPECT_EQ(InstancesOf(v, "j", w.domains.get()),
            (std::set<std::string>{"j(1, 3)"}));
}

TEST(FixpointTest, UnsatJoinsPrunedUnderTp) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- X = 1.
    b(X) <- X = 2.
    c(X) <- a(X) & b(X).
  )");
  FixpointStats stats;
  View v = Unwrap(Materialize(p, w.domains.get(), {}, &stats));
  EXPECT_TRUE(InstancesOf(v, "c", w.domains.get()).empty());
  // The contradictory join must be dropped before it reaches the view: by
  // the solver under the naive join (unsat_pruned), or by the indexed
  // join's incremental unification — a mid-join ground reject, or an
  // arg-value probe whose bucket is empty because no b atom carries the
  // bound value.
  EXPECT_GE(stats.unsat_pruned + stats.ground_rejects + stats.index_probes,
            1);

  FixpointOptions naive;
  naive.join_mode = JoinMode::kNaive;
  FixpointStats naive_stats;
  Unwrap(Materialize(p, w.domains.get(), naive, &naive_stats));
  EXPECT_GE(naive_stats.unsat_pruned, 1);
}

TEST(FixpointTest, WpKeepsAllJoinsSyntactically) {
  TestWorld w = TestWorld::Make();
  // X = 1 & in(X, between(5, 10)) is unsolvable only through the domain
  // call: no static contradiction prunes it.
  Program p = ParseOrDie(R"(
    a(X) <- X = 1.
    c(X) <- a(X) & in(X, arith:between(5, 10)).
  )");
  FixpointOptions wp;
  wp.op = OperatorKind::kWp;
  View v = Unwrap(Materialize(p, w.domains.get(), wp));
  // The c atom exists syntactically (kept, unsolvable).
  EXPECT_EQ(v.AtomsFor("c").size(), 1u);
  // But it denotes no instances.
  EXPECT_TRUE(InstancesOf(v, "c", w.domains.get()).empty());
  // T_P prunes the same join by solvability.
  View tp = MaterializeOrDie(p, w.domains.get());
  EXPECT_TRUE(tp.AtomsFor("c").empty());
}

TEST(FixpointTest, DuplicateSemanticsKeepsOneAtomPerDerivation) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- X = 1.
    b(X) <- a(X).
    b(X) <- a(X).
  )");
  View v = MaterializeOrDie(p, w.domains.get());
  // Two b atoms: one per rule (supports <2,<1>> and <3,<1>>).
  EXPECT_EQ(v.AtomsFor("b").size(), 2u);

  FixpointOptions set_opts;
  set_opts.semantics = DupSemantics::kSet;
  View vs = Unwrap(Materialize(p, w.domains.get(), set_opts));
  EXPECT_EQ(vs.AtomsFor("b").size(), 1u);
}

TEST(FixpointTest, SetSemanticsKeepsDoublesThatPrintAlike) {
  // Both constants print as 1e+06 at 6 significant digits; the dedup key
  // encodes them exactly.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    p(X) <- X = 1000000.25.
    p(X) <- X = 1000000.75.
  )");
  FixpointOptions set_opts;
  set_opts.semantics = DupSemantics::kSet;
  View v = Unwrap(Materialize(p, w.domains.get(), set_opts));
  EXPECT_EQ(v.AtomsFor("p").size(), 2u);
  EXPECT_EQ(InstancesOf(v, "p", w.domains.get()).size(), 2u);
}

TEST(FixpointTest, SupportsRecordDerivations) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X). c(X) <- b(X).");
  View v = MaterializeOrDie(p, w.domains.get());
  for (const ViewAtom& atom : v.atoms()) {
    if (atom.pred == "c") {
      EXPECT_EQ(atom.support.ToString(), "<3, <2, <1>>>");
      EXPECT_EQ(atom.depth, 2);
    }
  }
}

TEST(FixpointTest, TransitiveClosure) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeTransitiveClosure(workload::ChainEdges(5));
  View v = MaterializeOrDie(p, w.domains.get());
  // 4 edges, paths = 4+3+2+1 = 10.
  EXPECT_EQ(InstancesOf(v, "path", w.domains.get()).size(), 10u);
}

TEST(FixpointTest, MaxAtomsTruncates) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(10, 10);
  FixpointOptions opts;
  opts.max_atoms = 20;
  FixpointStats stats;
  View v = Unwrap(Materialize(p, w.domains.get(), opts, &stats));
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(v.size(), 21u);
}

TEST(FixpointTest, MaxIterationsTruncates) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(50, 1);
  FixpointOptions opts;
  opts.max_iterations = 3;
  FixpointStats stats;
  View v = Unwrap(Materialize(p, w.domains.get(), opts, &stats));
  EXPECT_TRUE(stats.truncated);
}

TEST(FixpointTest, MaterializeFromContinuesSeminaive) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("b(X) <- a(X). c(X) <- b(X).");
  // Externally seeded atom a(7).
  View seed;
  ViewAtom a;
  a.pred = "a";
  a.args = {Term::Const(Value(7))};
  a.support = Support(-1);
  seed.Add(a);
  FixpointStats stats;
  View v = Unwrap(MaterializeFrom(p, std::move(seed), w.domains.get(), {},
                                  &stats, 0));
  EXPECT_EQ(Instances(v, w.domains.get()),
            (std::set<std::string>{"a(7)", "b(7)", "c(7)"}));
}

TEST(FixpointTest, DeltaBeginSkipsClosedPart) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("b(X, Y) <- a(X) & a(Y).");
  // Two closed atoms + one new atom; with delta_begin = 2, only pairs
  // touching the new atom are derived... but the closed pairs are assumed
  // derived already, so only 2*2-1 = 3 new pairs appear (new-new, new-old,
  // old-new).
  View seed;
  for (int i = 0; i < 3; ++i) {
    ViewAtom a;
    a.pred = "a";
    a.args = {Term::Const(Value(i))};
    a.support = Support(-1 - i);
    seed.Add(a);
  }
  FixpointStats stats;
  View v = Unwrap(MaterializeFrom(p, std::move(seed), w.domains.get(), {},
                                  &stats, 2));
  // Derived b atoms: pairs involving atom index 2 = 5 of 9 total pairs.
  EXPECT_EQ(v.AtomsFor("b").size(), 5u);
}

TEST(FixpointTest, ArityMismatchIsError) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X, X).");
  EXPECT_FALSE(Materialize(p, w.domains.get()).ok());
}

TEST(FixpointTest, EvaluatorErrorPropagates) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- in(X, nosuchdomain:f(1)).");
  Result<View> r = Materialize(p, w.domains.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mmv
