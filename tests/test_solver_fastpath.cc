// Solver fast path: TestSatisfiability / RejectJoin soundness.
//
// The contract under test is ONE-SIDED: the screens may only refute what
// the full decision procedure (the $MMV_SOLVER_FASTPATH=off oracle) would
// also refute. Three angles pin it:
//   - deterministic screen cases, each checked against an oracle Solve;
//   - a random-constraint property sweep (precheck kUnsat implies oracle
//     kUnsat; a brute-force grid witness contradicts precheck kUnsat; and
//     Solve outcomes are identical with the fast path on and off);
//   - satisfiable constraints over all six standard domains (arith, tuple,
//     rel, spatial, faces, text), screened before and after a full Solve
//     on the same solver.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraint/solver.h"
#include "test_util.h"

namespace mmv {
namespace {

using testutil::TestWorld;
using testutil::Unwrap;

Term V(VarId v) { return Term::Var(v); }
Term C(int64_t v) { return Term::Const(Value(v)); }

// The scripted finite evaluator of test_solver_property.cc, restated here
// (anonymous namespaces do not share): evens/small are fixed sets, succ and
// ge are decidable one-argument calls.
class GridEvaluator : public DcaEvaluator {
 public:
  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override {
    if (domain != "g") return Status::NotFound("no domain " + domain);
    if (function == "evens") {
      return DcaResult::Finite({Value(0), Value(2), Value(4), Value(6)});
    }
    if (function == "small") {
      return DcaResult::Finite({Value(0), Value(1), Value(2)});
    }
    if (function == "succ") {
      if (args.size() != 1 || !args[0].is_int()) {
        return Status::TypeError("succ(int)");
      }
      return DcaResult::Finite({Value(args[0].as_int() + 1)});
    }
    if (function == "ge") {
      if (args.size() != 1 || !args[0].is_numeric()) {
        return Status::TypeError("ge(num)");
      }
      Interval i;
      i.integral = true;
      i.lo = args[0].numeric();
      return DcaResult::Of(i);
    }
    return Status::NotFound("no function " + function);
  }

  static bool Member(const std::string& function, int64_t x,
                     const std::vector<int64_t>& args) {
    if (function == "evens") return x >= 0 && x <= 6 && x % 2 == 0;
    if (function == "small") return x >= 0 && x <= 2;
    if (function == "succ") return x == args.at(0) + 1;
    if (function == "ge") return x >= args.at(0);
    return false;
  }
};

// ---------------------------------------------------------------------------
// TestSatisfiability: deterministic screens, each against the oracle.
// ---------------------------------------------------------------------------

class FastpathTest : public ::testing::Test {
 protected:
  // The screen under test and the slow-path oracle share one evaluator.
  GridEvaluator eval_;
  Solver screen_{&eval_};
  Solver oracle_{&eval_, [] {
                   SolverOptions o;
                   o.fastpath = false;
                   return o;
                 }()};

  // Asserts the one-sided contract for one constraint: a screen rejection
  // must be mirrored by the oracle.
  void ExpectScreenSound(const Constraint& c, bool expect_reject) {
    SolveOutcome pre = screen_.TestSatisfiability(c);
    if (expect_reject) {
      EXPECT_EQ(pre, SolveOutcome::kUnsat) << c.ToString();
    } else {
      EXPECT_NE(pre, SolveOutcome::kUnsat) << c.ToString();
    }
    if (pre == SolveOutcome::kUnsat) {
      EXPECT_EQ(oracle_.Solve(c), SolveOutcome::kUnsat)
          << "screen rejected a constraint the oracle accepts: "
          << c.ToString();
    }
  }
};

TEST_F(FastpathTest, TrivialEndpoints) {
  EXPECT_EQ(screen_.TestSatisfiability(Constraint::False()),
            SolveOutcome::kUnsat);
  EXPECT_EQ(screen_.TestSatisfiability(Constraint::True()),
            SolveOutcome::kSat);
  EXPECT_EQ(screen_.stats().sat_prechecks, 2);
  EXPECT_EQ(screen_.stats().sat_rejects, 1);
}

TEST_F(FastpathTest, GroundEqualityConflict) {
  Constraint c;
  c.Add(Primitive::Eq(V(0), C(1)));
  c.Add(Primitive::Eq(V(0), C(2)));
  ExpectScreenSound(c, /*expect_reject=*/true);
}

TEST_F(FastpathTest, EqualityChainsAcrossTwoPasses) {
  // X = Y surfaces no binding on the first pass; the second pass (the
  // screen runs its equality sweep twice) still cannot chain var-var
  // classes — a transitive conflict through an unbound middle variable is
  // deferred, never mis-rejected.
  Constraint c;
  c.Add(Primitive::Eq(V(0), V(1)));
  c.Add(Primitive::Eq(V(1), C(3)));
  c.Add(Primitive::Eq(V(0), C(4)));
  // Pass 1 binds Y=3 and X=4; pass 2 re-reads X = Y as 4 = 3: conflict.
  ExpectScreenSound(c, /*expect_reject=*/true);
}

TEST_F(FastpathTest, NeqSameVarRejects) {
  Constraint c;
  c.Add(Primitive::Neq(V(0), V(0)));
  ExpectScreenSound(c, /*expect_reject=*/true);
}

TEST_F(FastpathTest, GroundComparisonRejects) {
  Constraint c;
  c.Add(Primitive::Eq(V(0), C(3)));
  c.Add(Primitive::Cmp(V(0), CmpOp::kLt, C(2)));
  ExpectScreenSound(c, /*expect_reject=*/true);
}

TEST_F(FastpathTest, EmptyIntervalRejects) {
  Constraint c;
  c.Add(Primitive::Cmp(V(0), CmpOp::kLt, C(2)));
  c.Add(Primitive::Cmp(V(0), CmpOp::kGt, C(5)));
  ExpectScreenSound(c, /*expect_reject=*/true);
}

TEST_F(FastpathTest, VarVarComparisonIsDeferredNotRejected) {
  // X < X is unsatisfiable, but var-var comparisons are deferred by the
  // full procedure too (intervals attach to classes, not to the relation
  // BETWEEN classes) — so the screen, which may never be stricter than
  // its oracle, must also stand down.
  Constraint c;
  c.Add(Primitive::Cmp(V(0), CmpOp::kLt, V(0)));
  EXPECT_EQ(oracle_.Solve(c), SolveOutcome::kSatDeferred);
  EXPECT_EQ(screen_.TestSatisfiability(c), SolveOutcome::kSatDeferred);
}

TEST_F(FastpathTest, SatisfiableConjunctionNotRejected) {
  Constraint c;
  c.Add(Primitive::Eq(V(0), C(4)));
  c.Add(Primitive::Cmp(V(0), CmpOp::kGe, C(2)));
  c.Add(Primitive::In(V(0), DomainCall{"g", "evens", {}}));
  ExpectScreenSound(c, /*expect_reject=*/false);
}

TEST_F(FastpathTest, BudgetStarvedScreenStandsDown) {
  // With max_choice_branches < 1 the full Solve defers EVERYTHING, so the
  // screen has no oracle rejection to mirror and must not reject.
  SolverOptions starved;
  starved.max_choice_branches = 0;
  Solver solver(&eval_, starved);
  Constraint c = Constraint::False();
  EXPECT_EQ(solver.TestSatisfiability(c), SolveOutcome::kUnsat)
      << "bottom is still bottom";
  Constraint ground;
  ground.Add(Primitive::Eq(V(0), C(1)));
  ground.Add(Primitive::Eq(V(0), C(2)));
  EXPECT_EQ(solver.TestSatisfiability(ground), SolveOutcome::kSatDeferred);
}

// ---------------------------------------------------------------------------
// Property sweep: precheck kUnsat implies oracle kUnsat; grid witnesses are
// never rejected; Solve outcomes are identical with the fast path on/off.
// ---------------------------------------------------------------------------

Constraint RandomConstraint(Rng* rng, int n, int depth) {
  auto random_term = [&](bool allow_const) -> Term {
    if (allow_const && rng->Chance(0.4)) {
      return Term::Const(Value(rng->Int(-1, 8)));
    }
    return Term::Var(static_cast<VarId>(rng->Int(0, n - 1)));
  };
  auto random_prim = [&]() -> Primitive {
    switch (rng->Int(0, 5)) {
      case 0:
        return Primitive::Eq(random_term(false), random_term(true));
      case 1:
        return Primitive::Neq(random_term(false), random_term(true));
      case 2: {
        CmpOp op = static_cast<CmpOp>(rng->Int(0, 3));
        return Primitive::Cmp(random_term(false), op, random_term(true));
      }
      case 3: {
        const char* fns[] = {"evens", "small"};
        return Primitive::In(random_term(false),
                             DomainCall{"g", fns[rng->Int(0, 1)], {}});
      }
      case 4:
        return Primitive::In(random_term(false),
                             DomainCall{"g", "succ", {random_term(true)}});
      default:
        return Primitive::In(
            random_term(false),
            DomainCall{"g", "ge", {Term::Const(Value(rng->Int(0, 7)))}});
    }
  };

  Constraint c;
  int prims = static_cast<int>(rng->Int(1, 4));
  for (int i = 0; i < prims; ++i) c.Add(random_prim());
  if (depth > 0) {
    int blocks = static_cast<int>(rng->Int(0, 2));
    for (int b = 0; b < blocks; ++b) {
      Constraint inner = RandomConstraint(rng, n, depth - 1);
      if (!inner.is_true() && !inner.is_false()) {
        c.AddNot(Constraint::Negate(inner));
      }
    }
  }
  return c;
}

bool EvalPrimGround(const Primitive& p,
                    const std::map<VarId, int64_t>& env) {
  auto val = [&](const Term& t) -> Value {
    if (t.is_const()) return t.constant();
    return Value(env.at(t.var()));
  };
  switch (p.kind) {
    case PrimKind::kEq:
      return val(p.lhs) == val(p.rhs);
    case PrimKind::kNeq:
      return !(val(p.lhs) == val(p.rhs));
    case PrimKind::kCmp: {
      Value a = val(p.lhs), b = val(p.rhs);
      if (!a.is_numeric() || !b.is_numeric()) return false;
      switch (p.op) {
        case CmpOp::kLt:
          return a.numeric() < b.numeric();
        case CmpOp::kLe:
          return a.numeric() <= b.numeric();
        case CmpOp::kGt:
          return a.numeric() > b.numeric();
        case CmpOp::kGe:
          return a.numeric() >= b.numeric();
      }
      return false;
    }
    case PrimKind::kIn:
    case PrimKind::kNotIn: {
      Value x = val(p.lhs);
      if (!x.is_int()) return p.kind == PrimKind::kNotIn;
      std::vector<int64_t> args;
      for (const Term& t : p.call.args) {
        Value v = val(t);
        if (!v.is_int()) return p.kind == PrimKind::kNotIn;
        args.push_back(v.as_int());
      }
      bool member = GridEvaluator::Member(p.call.function, x.as_int(), args);
      return p.kind == PrimKind::kIn ? member : !member;
    }
  }
  return false;
}

bool EvalBlockGround(const NotBlock& b, const std::map<VarId, int64_t>& env);

bool EvalConstraintGround(const Constraint& c,
                          const std::map<VarId, int64_t>& env) {
  if (c.is_false()) return false;
  for (const Primitive& p : c.prims()) {
    if (!EvalPrimGround(p, env)) return false;
  }
  for (const NotBlock& b : c.nots()) {
    if (EvalBlockGround(b, env)) return false;
  }
  return true;
}

bool EvalBlockGround(const NotBlock& b, const std::map<VarId, int64_t>& env) {
  for (const Primitive& p : b.prims) {
    if (!EvalPrimGround(p, env)) return false;
  }
  for (const NotBlock& i : b.inner) {
    if (EvalBlockGround(i, env)) return false;
  }
  return true;
}

bool BruteForceSatOnGrid(const Constraint& c,
                         const std::vector<VarId>& vars) {
  std::map<VarId, int64_t> env;
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == vars.size()) return EvalConstraintGround(c, env);
    for (int64_t v = 0; v <= 7; ++v) {
      env[vars[i]] = v;
      if (rec(i + 1)) return true;
    }
    return false;
  };
  return rec(0);
}

class FastpathGridProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FastpathGridProperty, PrecheckNeverStricterThanOracle) {
  Rng rng(GetParam());
  GridEvaluator eval;
  Solver fast(&eval);
  SolverOptions off;
  off.fastpath = false;
  Solver oracle(&eval, off);

  for (int trial = 0; trial < 60; ++trial) {
    int n = static_cast<int>(rng.Int(1, 3));
    Constraint c = RandomConstraint(&rng, n, 2);
    SolveOutcome pre = fast.TestSatisfiability(c);
    SolveOutcome slow = oracle.Solve(c);
    ASSERT_NE(slow, SolveOutcome::kError) << oracle.last_status().ToString();

    if (pre == SolveOutcome::kUnsat) {
      EXPECT_EQ(slow, SolveOutcome::kUnsat)
          << "seed " << GetParam() << " trial " << trial
          << "\nconstraint: " << c.ToString();
      EXPECT_FALSE(BruteForceSatOnGrid(c, c.Variables()))
          << "precheck rejected a constraint with a grid witness\nseed "
          << GetParam() << " trial " << trial << "\nconstraint: "
          << c.ToString();
    }
    // The fast path changes no Solve outcome — byte-identical to the
    // oracle.
    EXPECT_EQ(fast.Solve(c), slow)
        << "seed " << GetParam() << " trial " << trial << "\nconstraint: "
        << c.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastpathGridProperty,
                         ::testing::Range(uint64_t{200}, uint64_t{212}));

// ---------------------------------------------------------------------------
// Standard domains: satisfiable constraints are never rejected, before or
// after a full Solve on the same solver.
// ---------------------------------------------------------------------------

class FastpathDomainsTest : public ::testing::Test {
 protected:
  void SetUp() override { world_ = TestWorld::Make(); }

  // Screens, solves, then screens again: a satisfiable constraint must
  // never be rejected. The screen reads no solver state (ScreenEq and
  // ScreenRest never consult the call memo), so the second screen repeats
  // the first; it guards against a future screen that does keep state.
  void ExpectNeverRejected(const Constraint& c) {
    Solver solver(world_.domains.get());
    EXPECT_NE(solver.TestSatisfiability(c), SolveOutcome::kUnsat)
        << "screen rejected: " << c.ToString();
    SolveOutcome full = solver.Solve(c);
    EXPECT_TRUE(IsSolvable(full)) << c.ToString() << "\n"
                                  << solver.last_status().ToString();
    EXPECT_NE(solver.TestSatisfiability(c), SolveOutcome::kUnsat)
        << "screen after Solve rejected: " << c.ToString();
  }

  TestWorld world_;
};

TEST_F(FastpathDomainsTest, ArithSatisfiableNeverRejected) {
  Constraint open;  // X in greater(5): interval, witness X = 6
  open.Add(Primitive::In(V(0), DomainCall{"arith", "greater", {C(5)}}));
  ExpectNeverRejected(open);
  Constraint ground;  // 6 in greater(5): decided ground membership
  ground.Add(Primitive::In(C(6), DomainCall{"arith", "greater", {C(5)}}));
  ExpectNeverRejected(ground);
}

TEST_F(FastpathDomainsTest, TupleSatisfiableNeverRejected) {
  Term t = Term::Const(Value(ValueList{Value("a"), Value(2)}));
  Constraint open;  // X in get(("a", 2), 0): witness X = "a"
  open.Add(Primitive::In(V(0), DomainCall{"tuple", "get", {t, C(0)}}));
  ExpectNeverRejected(open);
  Constraint ground;
  ground.Add(Primitive::In(Term::Const(Value("a")),
                           DomainCall{"tuple", "get", {t, C(0)}}));
  ExpectNeverRejected(ground);
}

TEST_F(FastpathDomainsTest, RelSatisfiableNeverRejected) {
  ASSERT_TRUE(world_.catalog->CreateTable(rel::Schema{"t", {"k"}}).ok());
  ASSERT_TRUE(world_.catalog->Insert("t", {Value("a")}).ok());
  Term table = Term::Const(Value("t"));
  Constraint open;  // X in count(t): witness X = 1
  open.Add(Primitive::In(V(0), DomainCall{"rel", "count", {table}}));
  ExpectNeverRejected(open);
  Constraint ground;
  ground.Add(Primitive::In(C(1), DomainCall{"rel", "count", {table}}));
  ExpectNeverRejected(ground);
}

TEST_F(FastpathDomainsTest, SpatialSatisfiableNeverRejected) {
  std::vector<Term> args = {Term::Const(Value(0.0)), Term::Const(Value(0.0)),
                            Term::Const(Value(3.0)), Term::Const(Value(4.0))};
  Constraint open;  // X in distance(0,0,3,4): witness X = 5.0
  open.Add(Primitive::In(V(0), DomainCall{"spatial", "distance", args}));
  ExpectNeverRejected(open);
  Constraint ground;
  ground.Add(Primitive::In(Term::Const(Value(5.0)),
                           DomainCall{"spatial", "distance", args}));
  ExpectNeverRejected(ground);
}

TEST_F(FastpathDomainsTest, FacesSatisfiableNeverRejected) {
  dom::FaceDomain* faces = world_.handles.facextract;
  ASSERT_TRUE(faces->AddPerson("alice", 1).ok());
  std::string f1 = Unwrap(faces->AddSurveillanceFace("surveillance", "ph1", 1));
  Term face = Term::Const(Value(f1));
  Constraint open;  // X in findname(f1): witness X = "alice"
  open.Add(Primitive::In(V(0), DomainCall{"faces", "findname", {face}}));
  ExpectNeverRejected(open);
  Constraint ground;
  ground.Add(Primitive::In(Term::Const(Value("alice")),
                           DomainCall{"faces", "findname", {face}}));
  ExpectNeverRejected(ground);
}

TEST_F(FastpathDomainsTest, TextSatisfiableNeverRejected) {
  ASSERT_TRUE(
      world_.handles.text->AddDocument("d1", "the quick brown fox").ok());
  Term word = Term::Const(Value("quick"));
  Constraint open;  // X in match("quick"): witness X = "d1"
  open.Add(Primitive::In(V(0), DomainCall{"text", "match", {word}}));
  ExpectNeverRejected(open);
  Constraint ground;
  ground.Add(Primitive::In(Term::Const(Value("d1")),
                           DomainCall{"text", "match", {word}}));
  ExpectNeverRejected(ground);
}

// ---------------------------------------------------------------------------
// RejectJoin: whole-candidate screening before rename and assembly.
// ---------------------------------------------------------------------------

class RejectJoinTest : public ::testing::Test {
 protected:
  GridEvaluator eval_;
  Solver solver_{&eval_};
  Constraint true_;
};

TEST_F(RejectJoinTest, ClauseBindingContradictsInstance) {
  // Clause: ... :- p(X), X = 4. Candidate instance p(3).
  Constraint clause;
  clause.Add(Primitive::Eq(V(0), C(4)));
  TermVec inst_args = {C(3)};
  TermVec pattern = {V(0)};
  EXPECT_TRUE(solver_.RejectJoin(
      clause, {{&inst_args, &true_, &pattern}}));
  EXPECT_EQ(solver_.stats().sat_rejects, 1);
}

TEST_F(RejectJoinTest, CrossInstanceConflict) {
  // Clause: ... :- p(X), q(X). Candidates p(3), q(4): 3 = X ^ 4 = X.
  TermVec p_args = {C(3)};
  TermVec q_args = {C(4)};
  TermVec pattern = {V(0)};
  EXPECT_TRUE(solver_.RejectJoin(true_, {{&p_args, &true_, &pattern},
                                         {&q_args, &true_, &pattern}}));
}

TEST_F(RejectJoinTest, InstanceConstraintParticipates) {
  // Candidate p(Y) with constraint Y > 5, equated to pattern p(3).
  Constraint inst_c;
  inst_c.Add(Primitive::Cmp(V(0), CmpOp::kGt, C(5)));
  TermVec inst_args = {V(0)};
  TermVec pattern = {C(3)};
  EXPECT_TRUE(solver_.RejectJoin(true_, {{&inst_args, &inst_c, &pattern}}));
}

TEST_F(RejectJoinTest, ComponentScopesAreStandardizedApart) {
  // Two instances both use THEIR OWN variable 0, bound to different
  // values; the patterns keep them apart. Conflating the scopes would
  // falsely reject a satisfiable join.
  Constraint c1;
  c1.Add(Primitive::Eq(V(0), C(3)));
  Constraint c2;
  c2.Add(Primitive::Eq(V(0), C(4)));
  TermVec a1 = {V(0)};
  TermVec a2 = {V(0)};
  TermVec pat1 = {V(10)};
  TermVec pat2 = {V(11)};
  EXPECT_FALSE(solver_.RejectJoin(
      true_, {{&a1, &c1, &pat1}, {&a2, &c2, &pat2}}));
}

TEST_F(RejectJoinTest, ArityMismatchYieldsNoVerdict) {
  // The slow path owns the InvalidArgument error for malformed joins: the
  // screen must not preempt it (and must not even count a precheck).
  TermVec inst_args = {C(3)};
  TermVec pattern = {V(0), V(1)};
  EXPECT_FALSE(solver_.RejectJoin(true_, {{&inst_args, &true_, &pattern}}));
  EXPECT_EQ(solver_.stats().sat_prechecks, 0);
}

TEST_F(RejectJoinTest, SatisfiableJoinNotRejected) {
  Constraint clause;
  clause.Add(Primitive::Cmp(V(0), CmpOp::kGe, C(2)));
  TermVec inst_args = {C(3)};
  TermVec pattern = {V(0)};
  EXPECT_FALSE(solver_.RejectJoin(clause, {{&inst_args, &true_, &pattern}}));
  EXPECT_EQ(solver_.stats().sat_rejects, 0);
}

TEST_F(RejectJoinTest, FastpathOffNeverRejects) {
  SolverOptions off;
  off.fastpath = false;
  Solver solver(&eval_, off);
  Constraint clause;
  clause.Add(Primitive::Eq(V(0), C(4)));
  TermVec inst_args = {C(3)};
  TermVec pattern = {V(0)};
  EXPECT_FALSE(solver.RejectJoin(clause, {{&inst_args, &true_, &pattern}}));
  EXPECT_EQ(solver.stats().sat_prechecks, 0);
}

}  // namespace
}  // namespace mmv
