// Unit tests for the constrained-atom insertion algorithm (Algorithm 3).

#include <gtest/gtest.h>

#include "maintenance/insert.h"
#include "maintenance/stdel.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::Instances;
using testutil::InstancesOf;
using testutil::MaterializeOrDie;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

void ExpectInsertMatchesOracle(Program& program,
                               const maint::UpdateAtom& req,
                               TestWorld& world) {
  View view = MaterializeOrDie(program, world.domains.get());
  int ext = 0;
  Status s = maint::InsertAtom(program, &view, req, world.domains.get(), {},
                               nullptr, &ext);
  ASSERT_TRUE(s.ok()) << s.ToString();
  View oracle = Unwrap(maint::RecomputeAfterInsertion(
      program, req, world.domains.get()));
  EXPECT_EQ(Instances(view, world.domains.get()),
            Instances(oracle, world.domains.get()));
}

TEST(InsertTest, BaseAtomInsertionPropagates) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X). c(X) <- b(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 5.", &p);
  int ext = 0;
  maint::InsertStats stats;
  ASSERT_TRUE(maint::InsertAtom(p, &view, req, w.domains.get(), {}, &stats,
                                &ext)
                  .ok());
  EXPECT_EQ(Instances(view, w.domains.get()),
            (std::set<std::string>{"a(1)", "a(5)", "b(1)", "b(5)", "c(1)",
                                   "c(5)"}));
  EXPECT_EQ(stats.add_atoms, 1u);
  // Add + its two consequences.
  EXPECT_EQ(stats.atoms_added, 3u);
}

TEST(InsertTest, DerivedAtomInsertionDoesNotTouchSources) {
  // Paper Section 3: inserting seenwith(...) does not modify the sources;
  // inserting into a middle predicate must not change lower predicates.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X). c(X) <- b(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req = ParseUpdate("b(X) <- X = 9.", &p);
  int ext = 0;
  ASSERT_TRUE(
      maint::InsertAtom(p, &view, req, w.domains.get(), {}, nullptr, &ext)
          .ok());
  EXPECT_EQ(InstancesOf(view, "a", w.domains.get()).size(), 1u);
  EXPECT_EQ(InstancesOf(view, "b", w.domains.get()).size(), 2u);
  EXPECT_EQ(InstancesOf(view, "c", w.domains.get()).size(), 2u);
}

TEST(InsertTest, AlreadyCoveredIsNoOp) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- in(X, arith:between(0, 9)).");
  View view = MaterializeOrDie(p, w.domains.get());
  size_t before = view.size();
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 4.", &p);
  int ext = 0;
  maint::InsertStats stats;
  ASSERT_TRUE(maint::InsertAtom(p, &view, req, w.domains.get(), {}, &stats,
                                &ext)
                  .ok());
  EXPECT_EQ(view.size(), before);
  EXPECT_EQ(stats.add_atoms, 0u);
}

TEST(InsertTest, PartialOverlapInsertsOnlyNewInstances) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- in(X, arith:between(0, 4)). b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req =
      ParseUpdate("a(X) <- in(X, arith:between(3, 7)).", &p);
  int ext = 0;
  ASSERT_TRUE(
      maint::InsertAtom(p, &view, req, w.domains.get(), {}, nullptr, &ext)
          .ok());
  EXPECT_EQ(InstancesOf(view, "a", w.domains.get()).size(), 8u);
  EXPECT_EQ(InstancesOf(view, "b", w.domains.get()).size(), 8u);
}

TEST(InsertTest, JoinConsequences) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    e(X, Y) <- X = 1 & Y = 2.
    j(X, Z) <- e(X, Y) & e(Y, Z).
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  EXPECT_TRUE(InstancesOf(view, "j", w.domains.get()).empty());
  // Inserting e(2,3) creates the join j(1,3) with the existing e(1,2).
  maint::UpdateAtom req = ParseUpdate("e(X, Y) <- X = 2 & Y = 3.", &p);
  int ext = 0;
  ASSERT_TRUE(
      maint::InsertAtom(p, &view, req, w.domains.get(), {}, nullptr, &ext)
          .ok());
  EXPECT_EQ(InstancesOf(view, "j", w.domains.get()),
            (std::set<std::string>{"j(1, 3)"}));
}

TEST(InsertTest, RecursiveConsequences) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeTransitiveClosure(workload::ChainEdges(3));
  View view = MaterializeOrDie(p, w.domains.get());
  ASSERT_EQ(InstancesOf(view, "path", w.domains.get()).size(), 3u);
  // Append edge (2,3): paths extend transitively.
  maint::UpdateAtom req = ParseUpdate("e(X, Y) <- X = 2 & Y = 3.", &p);
  int ext = 0;
  ASSERT_TRUE(
      maint::InsertAtom(p, &view, req, w.domains.get(), {}, nullptr, &ext)
          .ok());
  EXPECT_EQ(InstancesOf(view, "path", w.domains.get()).size(), 6u);
}

TEST(InsertTest, MatchesOracleOnIntervals) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 3)).
    b(X) <- a(X) & X != 2.
  )");
  maint::UpdateAtom req =
      ParseUpdate("a(X) <- in(X, arith:between(2, 6)).", &p);
  ExpectInsertMatchesOracle(p, req, w);
}

TEST(InsertTest, InsertThenDeleteRoundTrip) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  auto before = Instances(view, w.domains.get());

  maint::UpdateAtom ins = ParseUpdate("a(X) <- X = 7.", &p);
  int ext = 0;
  ASSERT_TRUE(
      maint::InsertAtom(p, &view, ins, w.domains.get(), {}, nullptr, &ext)
          .ok());
  maint::UpdateAtom del = ParseUpdate("a(X) <- X = 7.", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, del, w.domains.get()).ok());
  EXPECT_EQ(Instances(view, w.domains.get()), before);
}

TEST(InsertTest, InsertIntoEmptyViewPredicate) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  EXPECT_TRUE(view.empty());
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 1.", &p);
  int ext = 0;
  ASSERT_TRUE(
      maint::InsertAtom(p, &view, req, w.domains.get(), {}, nullptr, &ext)
          .ok());
  EXPECT_EQ(Instances(view, w.domains.get()),
            (std::set<std::string>{"a(1)", "b(1)"}));
}

}  // namespace
}  // namespace mmv
