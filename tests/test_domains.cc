// Unit tests for the domain suite (arith, tuple, rel, spatial, faces, text)
// and the DomainManager's time machinery.

#include <gtest/gtest.h>

#include "test_util.h"

namespace mmv {
namespace {

using testutil::TestWorld;
using testutil::Unwrap;

class DomainsTest : public ::testing::Test {
 protected:
  void SetUp() override { world_ = TestWorld::Make(); }
  Result<DcaResult> Call(const std::string& d, const std::string& f,
                         std::vector<Value> args) {
    return world_.domains->Evaluate(d, f, args);
  }
  TestWorld world_;
};

TEST_F(DomainsTest, ArithSingletons) {
  DcaResult plus = Unwrap(Call("arith", "plus", {Value(2), Value(3)}));
  ASSERT_EQ(plus.kind, DcaResultKind::kFinite);
  EXPECT_EQ(plus.values, (std::vector<Value>{Value(5)}));

  EXPECT_EQ(Unwrap(Call("arith", "minus", {Value(2), Value(3)})).values[0],
            Value(-1));
  EXPECT_EQ(Unwrap(Call("arith", "times", {Value(4), Value(3)})).values[0],
            Value(12));
  EXPECT_EQ(Unwrap(Call("arith", "abs", {Value(-7)})).values[0], Value(7));
  EXPECT_EQ(Unwrap(Call("arith", "min", {Value(4), Value(3)})).values[0],
            Value(3));
  EXPECT_EQ(Unwrap(Call("arith", "max", {Value(4), Value(3)})).values[0],
            Value(4));
  EXPECT_EQ(Unwrap(Call("arith", "mod", {Value(7), Value(3)})).values[0],
            Value(1));
}

TEST_F(DomainsTest, ArithDivByZeroIsEmptySet) {
  DcaResult r = Unwrap(Call("arith", "div", {Value(1), Value(0)}));
  EXPECT_EQ(r.kind, DcaResultKind::kFinite);
  EXPECT_TRUE(r.values.empty());
}

TEST_F(DomainsTest, ArithIntervals) {
  DcaResult g = Unwrap(Call("arith", "greater", {Value(5)}));
  ASSERT_EQ(g.kind, DcaResultKind::kInterval);
  EXPECT_TRUE(g.interval.integral);
  EXPECT_TRUE(g.interval.lo_strict);
  EXPECT_EQ(g.interval.lo, 5);
  EXPECT_FALSE(g.interval.Contains(5));
  EXPECT_TRUE(g.interval.Contains(6));

  DcaResult bt = Unwrap(Call("arith", "between", {Value(1), Value(4)}));
  ASSERT_EQ(bt.kind, DcaResultKind::kInterval);
  EXPECT_EQ(bt.interval.IntegralCount().value(), 4);
}

TEST_F(DomainsTest, ArithErrors) {
  EXPECT_EQ(Call("arith", "nope", {}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Call("arith", "plus", {Value(1)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Call("arith", "plus", {Value("x"), Value(1)}).status().code(),
            StatusCode::kTypeError);
}

TEST_F(DomainsTest, TupleDomain) {
  Value t(ValueList{Value("a"), Value(2)});
  EXPECT_EQ(Unwrap(Call("tuple", "get", {t, Value(0)})).values[0],
            Value("a"));
  EXPECT_EQ(Unwrap(Call("tuple", "get", {t, Value(1)})).values[0], Value(2));
  // Out of range: empty set, not an error.
  EXPECT_TRUE(Unwrap(Call("tuple", "get", {t, Value(5)})).values.empty());
  EXPECT_EQ(Unwrap(Call("tuple", "size", {t})).values[0], Value(2));
}

TEST_F(DomainsTest, RelationalSelectAndTimeTravel) {
  ASSERT_TRUE(world_.catalog->CreateTable(rel::Schema{"t", {"k", "v"}}).ok());
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("a"), Value(1)}).ok());
  world_.catalog->clock().Advance();
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("a"), Value(2)}).ok());

  DcaResult now = Unwrap(Call("rel", "select_eq",
                              {Value("t"), Value("k"), Value("a")}));
  EXPECT_EQ(now.values.size(), 2u);

  DcaResult before = Unwrap(world_.domains->EvaluateAt(
      "rel", "select_eq", {Value("t"), Value("k"), Value("a")}, 0));
  EXPECT_EQ(before.values.size(), 1u);

  // Pinning makes Evaluate read the past.
  world_.domains->PinTime(0);
  DcaResult pinned = Unwrap(Call("rel", "select_eq",
                                 {Value("t"), Value("k"), Value("a")}));
  EXPECT_EQ(pinned.values.size(), 1u);
  world_.domains->PinTime(-1);
}

TEST_F(DomainsTest, RelationalProjectCountScan) {
  ASSERT_TRUE(world_.catalog->CreateTable(rel::Schema{"t", {"k", "v"}}).ok());
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("a"), Value(1)}).ok());
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("a"), Value(2)}).ok());
  EXPECT_EQ(Unwrap(Call("rel", "project", {Value("t"), Value("k")}))
                .values.size(),
            1u);  // deduplicated
  EXPECT_EQ(Unwrap(Call("rel", "count", {Value("t")})).values[0], Value(2));
  EXPECT_EQ(Unwrap(Call("rel", "scan", {Value("t")})).values.size(), 2u);
}

TEST_F(DomainsTest, SpatialRangeAndDistance) {
  // Default map "dcareamap" centered at (500, 500).
  DcaResult in_range = Unwrap(Call(
      "spatial", "range",
      {Value("dcareamap"), Value(550.0), Value(500.0), Value(100.0)}));
  EXPECT_EQ(in_range.values, (std::vector<Value>{Value(true)}));

  DcaResult out_of_range = Unwrap(Call(
      "spatial", "range",
      {Value("dcareamap"), Value(700.0), Value(500.0), Value(100.0)}));
  EXPECT_TRUE(out_of_range.values.empty());

  DcaResult d = Unwrap(Call(
      "spatial", "distance", {Value(0.0), Value(0.0), Value(3.0), Value(4.0)}));
  EXPECT_EQ(d.values[0], Value(5.0));
}

TEST_F(DomainsTest, SpatialGeocodePinnedAndSynthetic) {
  std::vector<Value> addr = {Value(1), Value("st"), Value("ct"), Value("st"),
                             Value(20001)};
  world_.handles.spatial->AddAddress(dom::SpatialDomain::AddressKey(addr),
                                     123.0, 456.0);
  DcaResult r = Unwrap(Call("spatial", "locateaddress", addr));
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0].as_list()[0], Value(123.0));

  // Unpinned addresses geocode deterministically.
  std::vector<Value> other = {Value(2), Value("st"), Value("ct"), Value("st"),
                              Value(20002)};
  DcaResult a = Unwrap(Call("spatial", "locateaddress", other));
  DcaResult b = Unwrap(Call("spatial", "locateaddress", other));
  EXPECT_EQ(a.values, b.values);
}

TEST_F(DomainsTest, FaceDomainLifecycle) {
  dom::FaceDomain* faces = world_.handles.facextract;
  ASSERT_TRUE(faces->AddPerson("alice", 1).ok());
  ASSERT_TRUE(faces->AddPerson("bob", 2).ok());
  std::string f1 =
      Unwrap(faces->AddSurveillanceFace("surveillance", "ph1", 1));
  std::string f2 =
      Unwrap(faces->AddSurveillanceFace("surveillance", "ph1", 2));

  DcaResult seg =
      Unwrap(Call("faces", "segmentface", {Value("surveillance")}));
  EXPECT_EQ(seg.values.size(), 2u);

  std::string lib1 = Unwrap(faces->AddPerson("alice_dup", 1));
  // matchface: same underlying face id.
  EXPECT_EQ(Unwrap(Call("faces", "matchface", {Value(f1), Value(lib1)}))
                .values.size(),
            1u);
  EXPECT_TRUE(Unwrap(Call("faces", "matchface", {Value(f2), Value(lib1)}))
                  .values.empty());

  // findname resolves surveillance files through the face id.
  DcaResult names = Unwrap(Call("faces", "findname", {Value(f2)}));
  EXPECT_EQ(names.values, (std::vector<Value>{Value("bob")}));

  // findface returns the library files of a person.
  DcaResult ff = Unwrap(Call("faces", "findface", {Value("alice")}));
  EXPECT_EQ(ff.values.size(), 1u);

  // Removal is versioned: segmentface at the old tick still sees the face.
  int64_t t0 = world_.catalog->clock().now();
  world_.catalog->clock().Advance();
  ASSERT_TRUE(faces->RemoveSurveillanceFace("surveillance", "ph1", 1).ok());
  EXPECT_EQ(Unwrap(Call("faces", "segmentface", {Value("surveillance")}))
                .values.size(),
            1u);
  EXPECT_EQ(Unwrap(world_.domains->EvaluateAt("faces", "segmentface",
                                              {Value("surveillance")}, t0))
                .values.size(),
            2u);
}

TEST_F(DomainsTest, TextDomain) {
  dom::TextDomain* text = world_.handles.text;
  ASSERT_TRUE(text->AddDocument("d1", "the quick brown fox").ok());
  ASSERT_TRUE(text->AddDocument("d2", "lazy dog").ok());

  EXPECT_EQ(Unwrap(Call("text", "match", {Value("quick")})).values,
            (std::vector<Value>{Value("d1")}));
  EXPECT_EQ(Unwrap(Call("text", "words", {Value("d1")})).values.size(), 4u);
  ASSERT_TRUE(text->RemoveDocument("d1", "the quick brown fox").ok());
  EXPECT_TRUE(Unwrap(Call("text", "match", {Value("quick")})).values.empty());
}

TEST_F(DomainsTest, ManagerDeltaComputesFPlusFMinus) {
  ASSERT_TRUE(world_.catalog->CreateTable(rel::Schema{"t", {"k"}}).ok());
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("a")}).ok());
  int64_t t0 = world_.catalog->clock().now();
  world_.catalog->clock().Advance();
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("b")}).ok());
  ASSERT_TRUE(world_.catalog->Delete("t", {Value("a")}).ok());
  int64_t t1 = world_.catalog->clock().now();

  dom::FunctionDelta delta = Unwrap(world_.domains->Delta(
      "rel", "scan", {Value("t")}, t0, t1));
  ASSERT_EQ(delta.added.size(), 1u);
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.added[0].as_list()[0], Value("b"));
  EXPECT_EQ(delta.removed[0].as_list()[0], Value("a"));
}

TEST_F(DomainsTest, ManagerErrors) {
  EXPECT_EQ(Call("nodomain", "f", {}).status().code(), StatusCode::kNotFound);
  // Delta over interval-valued calls is rejected.
  EXPECT_EQ(world_.domains->Delta("arith", "greater", {Value(1)}, 0, 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// arith:times keeps the kind of its operands: int times int is an int,
// a double operand makes a double, and 1000000.25 and 1000000.75 (which
// print alike at the default stream precision) give two answers.
TEST_F(DomainsTest, ArithTimesKeepsIntAndDoubleApart) {
  auto times_two = [&](Value x) {
    return Unwrap(Call("arith", "times", {x, Value(2)})).values.at(0);
  };
  EXPECT_TRUE(times_two(Value(int64_t{2})).is_int());
  EXPECT_TRUE(times_two(Value(2.0)).is_double());
  EXPECT_EQ(times_two(Value(1000000.25)), Value(2000000.5));
  EXPECT_EQ(times_two(Value(1000000.75)), Value(2000001.5));

  // Through a long-lived Solver, 2 and 2.0 are two calls; repeating
  // one is served from the call memo.
  Solver solver(world_.domains.get());
  world_.domains->ResetCallCount();
  for (Value x : {Value(int64_t{2}), Value(2.0), Value(int64_t{2})}) {
    Constraint c;
    c.Add(Primitive::In(Term::Var(0),
                        DomainCall{"arith", "times",
                                   {Term::Const(x), Term::Const(Value(2))}}));
    EXPECT_EQ(solver.Solve(c), SolveOutcome::kSat);
  }
  EXPECT_EQ(world_.domains->call_count(), 2);
}

// A Solver kept across Solves serves a repeated call from its call memo,
// but a same-tick Catalog::Insert moves the manager's state epoch, so the
// next Solve evaluates live and sees the new row.
TEST_F(DomainsTest, LongLivedSolverSeesSameTickInsert) {
  ASSERT_TRUE(world_.catalog->CreateTable(rel::Schema{"t", {"k"}}).ok());
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("a")}).ok());
  Constraint two_rows;  // 2 in rel:count(t)
  two_rows.Add(Primitive::In(Term::Const(Value(2)),
                             DomainCall{"rel", "count",
                                        {Term::Const(Value("t"))}}));
  Solver solver(world_.domains.get());
  world_.domains->ResetCallCount();
  EXPECT_EQ(solver.Solve(two_rows), SolveOutcome::kUnsat);
  EXPECT_EQ(solver.Solve(two_rows), SolveOutcome::kUnsat);
  EXPECT_EQ(world_.domains->call_count(), 1);

  int64_t tick = world_.catalog->clock().now();
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("b")}).ok());
  ASSERT_EQ(world_.catalog->clock().now(), tick);
  EXPECT_EQ(solver.Solve(two_rows), SolveOutcome::kSat);
  EXPECT_EQ(world_.domains->call_count(), 2);
}

TEST_F(DomainsTest, CallCountTracksEvaluations) {
  world_.domains->ResetCallCount();
  ASSERT_TRUE(Call("arith", "plus", {Value(1), Value(2)}).ok());
  ASSERT_TRUE(Call("arith", "plus", {Value(1), Value(3)}).ok());
  EXPECT_EQ(world_.domains->call_count(), 2);
}

}  // namespace
}  // namespace mmv
