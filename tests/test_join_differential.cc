// Differential oracle for the join pipeline: the constraint-aware indexed
// join (arg-value probes, incremental unification with ground rejection,
// rename-free fully-ground derivations, solver memo) must produce exactly
// the view the legacy nested-loop join produces — same canonical atom
// multiset AND same support multiset — over randomized programs, under both
// duplicate and set semantics, for materialization and for insertion
// continuations.
//
// Views are compared by canonical atom strings (variables renamed by first
// appearance) because the two modes legitimately issue different fresh
// variable ids: the indexed join skips renames for fully-ground tuples and
// never standardizes rejected candidates apart.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "maintenance/insert.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::TestWorld;
using testutil::Unwrap;

std::multiset<std::string> CanonicalAtoms(const View& v) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : v.atoms()) {
    out.insert(CanonicalAtomString(a.pred, a.args, a.constraint));
  }
  return out;
}

std::multiset<std::string> Supports(const View& v) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : v.atoms()) out.insert(a.support.ToString());
  return out;
}

workload::RandomProgramOptions RandomOptions(Rng* rng) {
  // Derived predicates join over earlier DERIVED predicates too, and under
  // duplicate semantics every distinct derivation is an atom — so deep
  // derived chains with wide bodies compound combinatorially. Keep bodies
  // wide only when the derived chain is shallow.
  workload::RandomProgramOptions o;
  o.base_preds = static_cast<int>(rng->Int(1, 3));
  o.max_body = static_cast<int>(rng->Int(1, 3));
  o.derived_preds = o.max_body >= 3 ? 1 : static_cast<int>(rng->Int(1, 3));
  o.facts_per_pred = static_cast<int>(rng->Int(2, 4));
  o.rules_per_pred = o.max_body >= 2 ? 1 : static_cast<int>(rng->Int(1, 2));
  o.const_pool = static_cast<int>(rng->Int(3, 8));
  o.neq_prob = rng->Double(0, 0.5);
  o.cmp_prob = rng->Double(0, 0.5);
  o.interval_fact_prob = rng->Double(0, 0.4);
  return o;
}

// Materializes under the naive oracle and the indexed join with
// selectivity-ORDERED plans, and asserts view equality plus the sharp
// per-run invariants the equivalence argument predicts: identical
// created-atom and suppressed-duplicate counts (rejected candidates are
// exactly tuples the oracle prunes as unsatisfiable, never ones it
// dedups, whatever the enumeration order).
void ExpectModesAgree(const Program& p, DcaEvaluator* eval,
                      FixpointOptions opts, const std::string& trace,
                      FixpointStats* indexed_stats_out = nullptr) {
  FixpointStats naive_stats, ordered_stats;
  opts.max_atoms = 50'000;  // terminate runaway joins; flagged below
  opts.join_mode = JoinMode::kNaive;
  View naive = Unwrap(Materialize(p, eval, opts, &naive_stats));
  opts.join_mode = JoinMode::kIndexed;
  View ordered = Unwrap(Materialize(p, eval, opts, &ordered_stats));
  EXPECT_FALSE(naive_stats.truncated) << "generator produced a blow-up\n"
                                      << trace;

  EXPECT_EQ(CanonicalAtoms(naive), CanonicalAtoms(ordered)) << trace;
  // Support multisets are only contractual under DUPLICATE semantics
  // (every derivation kept — order-independent). Set semantics retains
  // ONE representative derivation per canonical atom, and which one wins
  // follows enumeration order: selectivity-ordered plans legitimately
  // meet a different derivation first than the oracle.
  if (opts.semantics == DupSemantics::kDuplicate) {
    EXPECT_EQ(Supports(naive), Supports(ordered)) << trace;
  }
  EXPECT_EQ(naive_stats.atoms_created, ordered_stats.atoms_created)
      << trace;
  EXPECT_EQ(naive_stats.duplicates_suppressed,
            ordered_stats.duplicates_suppressed)
      << trace;
  EXPECT_EQ(naive_stats.index_probes, 0) << "oracle must not probe";
  EXPECT_EQ(naive_stats.plan_reorders, 0) << "oracle must not plan";

  // The $MMV_SOLVER_FASTPATH sweep: replaying the ordered run with the
  // solver fast path off (the slow-path oracle) must change NOTHING about
  // the work product — view, supports, and every work counter, including
  // unsat_pruned (each screen rejection replaces a slow-path prune of the
  // SAME candidate). Only the strategy counters differ, and with the
  // screen disabled they are zero by construction.
  opts.join_mode = JoinMode::kIndexed;
  opts.solver.fastpath = false;
  FixpointStats off_stats;
  View fp_off = Unwrap(Materialize(p, eval, opts, &off_stats));
  EXPECT_EQ(CanonicalAtoms(ordered), CanonicalAtoms(fp_off)) << trace;
  EXPECT_EQ(Supports(ordered), Supports(fp_off)) << trace;
  EXPECT_EQ(ordered_stats.atoms_created, off_stats.atoms_created) << trace;
  EXPECT_EQ(ordered_stats.duplicates_suppressed,
            off_stats.duplicates_suppressed)
      << trace;
  EXPECT_EQ(ordered_stats.unsat_pruned, off_stats.unsat_pruned) << trace;
  EXPECT_EQ(ordered_stats.index_probes, off_stats.index_probes) << trace;
  EXPECT_EQ(ordered_stats.ground_rejects, off_stats.ground_rejects) << trace;
  EXPECT_EQ(ordered_stats.rename_skipped, off_stats.rename_skipped) << trace;
  EXPECT_EQ(ordered_stats.iterations, off_stats.iterations) << trace;
  EXPECT_EQ(off_stats.solver.sat_prechecks, 0) << trace;
  EXPECT_EQ(off_stats.solver.sat_rejects, 0) << trace;

  if (indexed_stats_out) *indexed_stats_out = ordered_stats;
}

// The num_threads sweep: 1 (the sequential reference) against 2 and 8,
// plus whatever $MMV_THREADS asks for (the TSan CI job exports 8). A typo
// in the variable fails the suite loudly, like the engine-mode parsers.
std::vector<int> ThreadSweep() {
  std::vector<int> sweep{2, 8};
  Result<int> env = ThreadsFromEnv();
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  if (env.ok() && *env > 1 &&
      std::find(sweep.begin(), sweep.end(), *env) == sweep.end()) {
    sweep.push_back(*env);
  }
  return sweep;
}

// Parallel strata execution must match the sequential engine in everything
// contractual: canonical atom multiset, support multiset — under BOTH
// semantics, since the per-round merge replays the sequential (clause
// index, enumeration) append order, so even set-semantics representative
// supports coincide — and the derivation counters. (Fresh-variable
// numbering and the call memo's dca_evaluations are the carved-out
// non-contract.)
void ExpectThreadsAgree(const Program& p, DcaEvaluator* eval,
                        FixpointOptions opts, const std::string& trace) {
  opts.max_atoms = 50'000;
  opts.join_mode = JoinMode::kIndexed;
  opts.num_threads = 1;
  FixpointStats seq_stats;
  View sequential = Unwrap(Materialize(p, eval, opts, &seq_stats));
  for (int threads : ThreadSweep()) {
    opts.num_threads = threads;
    FixpointStats par_stats;
    View parallel = Unwrap(Materialize(p, eval, opts, &par_stats));
    std::string where = trace + "\n(num_threads " +
                        std::to_string(threads) + ")";
    EXPECT_EQ(CanonicalAtoms(sequential), CanonicalAtoms(parallel)) << where;
    EXPECT_EQ(Supports(sequential), Supports(parallel)) << where;
    EXPECT_EQ(seq_stats.atoms_created, par_stats.atoms_created) << where;
    EXPECT_EQ(seq_stats.duplicates_suppressed,
              par_stats.duplicates_suppressed)
        << where;
    EXPECT_EQ(seq_stats.derivations_attempted,
              par_stats.derivations_attempted)
        << where;
    EXPECT_EQ(seq_stats.unsat_pruned, par_stats.unsat_pruned) << where;
    EXPECT_EQ(seq_stats.index_probes, par_stats.index_probes) << where;
    EXPECT_EQ(seq_stats.ground_rejects, par_stats.ground_rejects) << where;
    EXPECT_EQ(seq_stats.rename_skipped, par_stats.rename_skipped) << where;
    EXPECT_EQ(seq_stats.probe_intersections, par_stats.probe_intersections)
        << where;
    EXPECT_EQ(seq_stats.iterations, par_stats.iterations) << where;
  }
}

void RunRandomPrograms(DupSemantics semantics, uint64_t seed_base,
                       int seeds) {
  TestWorld w = TestWorld::Make();
  for (uint64_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    Rng rng(seed);
    workload::RandomProgramOptions o = RandomOptions(&rng);
    Program p = workload::MakeRandomProgram(&rng, o);
    FixpointOptions opts;
    opts.semantics = semantics;
    std::string trace = "seed " + std::to_string(seed) + "\n" + p.ToString();
    ExpectModesAgree(p, w.domains.get(), opts, trace);
    ExpectThreadsAgree(p, w.domains.get(), opts, trace);
    if (::testing::Test::HasFailure()) return;  // keep the first trace
  }
}

// Directed single-SCC recursion through the same thread sweep: one
// recursive predicate group, so the strata axis contributes nothing and
// every bit of parallelism is intra-SCC delta partitioning. The chain
// exercises many small rounds (slices below the partition threshold); the
// star's 301-edge fact window clears it, so the pivot bucket is actually
// sharded across workers.
TEST(JoinDifferential, SingleSccRecursionThreadSweep) {
  TestWorld w = TestWorld::Make();
  for (DupSemantics semantics :
       {DupSemantics::kDuplicate, DupSemantics::kSet}) {
    FixpointOptions opts;
    opts.semantics = semantics;
    {
      Program p =
          workload::MakeTransitiveClosure(workload::ChainEdges(12));
      ExpectThreadsAgree(p, w.domains.get(), opts, "chain TC");
    }
    {
      std::vector<std::pair<int, int>> edges;
      for (int j = 2; j <= 302; ++j) edges.push_back({j, 0});
      edges.push_back({0, 1});
      Program p = workload::MakeTransitiveClosure(edges);
      ExpectThreadsAgree(p, w.domains.get(), opts, "star TC");
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(JoinDifferential, RandomProgramsDuplicateSemantics) {
  RunRandomPrograms(DupSemantics::kDuplicate, 1, 100);
}

TEST(JoinDifferential, RandomProgramsSetSemantics) {
  RunRandomPrograms(DupSemantics::kSet, 1000, 100);
}

// The W_P operator (no solvability requirement) with simplification and
// static-contradiction pruning on: the indexed pipeline stays active and
// must agree. (With pruning or simplification off it silently falls back
// to the oracle, so agreement is structural.)
TEST(JoinDifferential, WpOperatorAgrees) {
  TestWorld w = TestWorld::Make();
  for (uint64_t seed = 2000; seed < 2020; ++seed) {
    Rng rng(seed);
    workload::RandomProgramOptions o = RandomOptions(&rng);
    Program p = workload::MakeRandomProgram(&rng, o);
    FixpointOptions opts;
    opts.op = OperatorKind::kWp;
    ExpectModesAgree(p, w.domains.get(), opts, "wp seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(JoinDifferential, NaiveFallbackConfigurations) {
  // simplify off: the engine must fall back to the oracle join (probes
  // stay zero) and trivially agree.
  TestWorld w = TestWorld::Make();
  Rng rng(77);
  Program p = workload::MakeRandomProgram(&rng, RandomOptions(&rng));
  for (bool simplify : {true, false}) {
    FixpointOptions opts;
    opts.simplify = simplify;
    opts.join_mode = JoinMode::kIndexed;
    FixpointStats stats;
    View v = Unwrap(Materialize(p, w.domains.get(), opts, &stats));
    if (!opts.simplify) {
      EXPECT_EQ(stats.index_probes, 0) << "expected oracle fallback";
      EXPECT_EQ(stats.rename_skipped, 0);
    }
    opts.join_mode = JoinMode::kNaive;
    View n = Unwrap(Materialize(p, w.domains.get(), opts));
    EXPECT_EQ(CanonicalAtoms(n), CanonicalAtoms(v)) << "simplify " << simplify;
  }
}

// Transitive closure over random DAGs: binary predicates and a recursive
// join — the workload where index probes and the rename-free fast path
// actually fire. (Ground rejection does NOT fire here: the bucket probe is
// exact for these rules, so every candidate it returns already matches —
// see the star test below for rejects.)
TEST(JoinDifferential, TransitiveClosureJoinsAgreeAndProbe) {
  TestWorld w = TestWorld::Make();
  bool saw_probes = false, saw_fastpath = false;
  for (uint64_t seed = 3000; seed < 3020; ++seed) {
    Rng rng(seed);
    int n = static_cast<int>(rng.Int(4, 10));
    Program p = workload::MakeTransitiveClosure(
        workload::RandomDagEdges(&rng, n, static_cast<int>(rng.Int(0, 6))));
    FixpointStats stats;
    ExpectModesAgree(p, w.domains.get(), FixpointOptions(),
                     "tc seed " + std::to_string(seed), &stats);
    saw_probes = saw_probes || stats.index_probes > 0;
    saw_fastpath = saw_fastpath || stats.rename_skipped > 0;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_TRUE(saw_probes);
  EXPECT_TRUE(saw_fastpath);
}

// A reciprocal join over a star graph: sym(X,Y) <- e(X,Y), e(Y,X) with
// edges e(j,0) and e(0,j). Probing only position 0 of the second body
// atom would leave position 1 to reject mid-join against the already-bound
// X; weighing both ground positions enumerates the exact bucket instead.
TEST(JoinDifferential, ReciprocalStarJoinGroundRejects) {
  TestWorld w = TestWorld::Make();
  Program p;
  const int m = 6;
  auto add_edge = [&p](int a, int b) {
    Clause c;
    c.head_pred = "e";
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(a))));
    c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(b))));
    p.AddClause(std::move(c));
  };
  for (int j = 1; j <= m; ++j) {
    add_edge(j, 0);
    add_edge(0, j);
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_pred = "sym";
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.body.push_back(BodyAtom{"e", {Term::Var(x), Term::Var(y)}});
    c.body.push_back(BodyAtom{"e", {Term::Var(y), Term::Var(x)}});
    p.AddClause(std::move(c));
  }
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(), "reciprocal star",
                   &stats);
  // BOTH positions of the second body atom are bound, so the
  // multi-position probe weighs two buckets and enumerates the exact one:
  // no candidate survives to a mid-join ground mismatch.
  EXPECT_GT(stats.probe_intersections, 0);
  EXPECT_GT(stats.index_probes, 0);
  EXPECT_EQ(stats.ground_rejects, 0);
  // Every reciprocal pair must be found: sym(j,0) and sym(0,j) for each j.
  FixpointOptions opts;
  View v = Unwrap(Materialize(p, w.domains.get(), opts));
  EXPECT_EQ(v.AtomsFor("sym").size(), 2u * m);
}

// A diagonal body atom d(X) <- a(X, X) over mixed tuples: nothing is bound
// at depth 0, so the ordered plan scans every a-tuple, binds X from the
// first position and must reject the off-diagonal ones mid-join on the
// second — then undo the binding before the next candidate.
TEST(JoinDifferential, DiagonalAtomRejectsMidJoin) {
  TestWorld w = TestWorld::Make();
  Program p;
  const int m = 4;
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      Clause c;
      c.head_pred = "a";
      VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
      c.head_args = {Term::Var(x), Term::Var(y)};
      c.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(a))));
      c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(b))));
      p.AddClause(std::move(c));
    }
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh();
    c.head_pred = "d";
    c.head_args = {Term::Var(x)};
    c.body.push_back(BodyAtom{"a", {Term::Var(x), Term::Var(x)}});
    p.AddClause(std::move(c));
  }
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(), "diagonal",
                   &stats);
  EXPECT_EQ(stats.ground_rejects, m * (m - 1));
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  EXPECT_EQ(v.AtomsFor("d").size(), static_cast<size_t>(m));
}

// Regression: a head variable not bound through the body ("unsafe") that
// occurs at SEVERAL head positions must stay one variable in the fast
// path's output — p(X, X) <- q(Y) denotes the diagonal, not the cross
// product. (A clause rename maps every occurrence to one fresh variable;
// the first fast-path implementation issued one per occurrence.)
TEST(JoinDifferential, RepeatedUnsafeHeadVariableStaysDiagonal) {
  TestWorld w = TestWorld::Make();
  Program p;
  {
    Clause c;
    VarId y = p.factory()->Fresh();
    c.head_pred = "q";
    c.head_args = {Term::Var(y)};
    c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(1))));
    p.AddClause(std::move(c));
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_pred = "p";
    c.head_args = {Term::Var(x), Term::Var(x)};
    c.body.push_back(BodyAtom{"q", {Term::Var(y)}});
    p.AddClause(std::move(c));
  }
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(), "p(X,X) <- q(Y)",
                   &stats);
  EXPECT_GT(stats.rename_skipped, 0);  // the fast path must actually run
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  ASSERT_EQ(v.AtomsFor("p").size(), 1u);
  const ViewAtom& atom = v.atoms()[v.AtomsFor("p")[0]];
  ASSERT_EQ(atom.args.size(), 2u);
  EXPECT_EQ(atom.args[0], atom.args[1]) << atom.ToString();
}

// Guarded chains (every level re-joins the base relation) are the
// sideways-information-passing showcase the benches score on; pin their
// equivalence and counters deterministically.
TEST(JoinDifferential, GuardedChainAgreesAndProbes) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedChain(/*depth=*/5, /*width=*/6);
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(), "guarded chain",
                   &stats);
  EXPECT_GT(stats.index_probes, 0);
  EXPECT_GT(stats.rename_skipped, 0);
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  EXPECT_EQ(v.size(), 6u * 6u);  // width x (depth + 1), one derivation each
}

// The reversed guarded chain — p{k+1}(X) <- p0(X), p{k}(X), most selective
// atom written LAST — is the join-order showcase: the cost model must
// reorder (pivot-first) and the three engines must still agree.
TEST(JoinDifferential, ReversedGuardedChainReordersAndAgrees) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedChainReversed(/*depth=*/5, /*width=*/6);
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(),
                   "reversed guarded chain", &stats);
  EXPECT_GT(stats.plan_reorders, 0);
  EXPECT_GT(stats.index_probes, 0);
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  EXPECT_EQ(v.size(), 6u * 6u);  // width x (depth + 1), one derivation each
}

// A bogus $MMV_SOLVER_FASTPATH must fail loudly, mirroring the join-mode,
// plan-mode and thread-count parsers: a typo in CI must not silently run
// the wrong solver tier.
TEST(JoinDifferential, SolverFastpathEnvParsesLoudly) {
  EXPECT_TRUE(Unwrap(ParseSolverFastpath("on")));
  EXPECT_FALSE(Unwrap(ParseSolverFastpath("off")));
  Result<bool> bad = ParseSolverFastpath("bogus");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("unknown solver fastpath mode"),
            std::string::npos)
      << bad.status().ToString();
  Result<bool> env = SolverFastpathFromEnv();
  EXPECT_TRUE(env.ok()) << env.status().ToString();
}

// Directed screen engagement: interval facts whose conjunction is empty.
// The fact constraints cannot dissolve into ground head arguments, so the
// join candidate reaches the solver tier — and the pre-join screen refutes
// it from the two half-ground comparisons, before any rename. The
// fastpath-off replay inside ExpectModesAgree pins that the prune count is
// byte-identical either way.
TEST(JoinDifferential, ContradictoryJoinScreenedBeforeRename) {
  TestWorld w = TestWorld::Make();
  Program p;
  auto add_interval_fact = [&p](const char* pred, CmpOp op, int64_t bound) {
    Clause c;
    VarId x = p.factory()->Fresh();
    c.head_pred = pred;
    c.head_args = {Term::Var(x)};
    c.constraint.Add(Primitive::Cmp(Term::Var(x), op, Term::Const(Value(bound))));
    p.AddClause(std::move(c));
  };
  add_interval_fact("p", CmpOp::kGt, 5);
  add_interval_fact("q", CmpOp::kLt, 2);
  {
    Clause c;
    VarId x = p.factory()->Fresh();
    c.head_pred = "r";
    c.head_args = {Term::Var(x)};
    c.body.push_back(BodyAtom{"p", {Term::Var(x)}});
    c.body.push_back(BodyAtom{"q", {Term::Var(x)}});
    p.AddClause(std::move(c));
  }
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(),
                   "contradictory interval join", &stats);
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  EXPECT_TRUE(v.AtomsFor("r").empty());
  EXPECT_GT(stats.solver.sat_prechecks, 0);
  EXPECT_GT(stats.solver.sat_rejects, 0);
  EXPECT_GT(stats.unsat_pruned, 0);
}

// Insertion continuations (the InsertBatch path, which threads one solver
// memo across its flushes) must agree between modes too.
void RunContinuationDifferential(DupSemantics semantics, uint64_t seed_base) {
  TestWorld w = TestWorld::Make();
  for (uint64_t seed = seed_base; seed < seed_base + 40; ++seed) {
    Rng rng(seed);
    workload::RandomProgramOptions o = RandomOptions(&rng);
    Program p = workload::MakeRandomProgram(&rng, o);

    std::vector<maint::UpdateAtom> requests;
    int k = static_cast<int>(rng.Int(1, 4));
    for (int i = 0; i < k; ++i) {
      maint::UpdateAtom req;
      req.pred = "base" + std::to_string(rng.Int(0, o.base_preds - 1));
      VarId x = p.factory()->Fresh();
      req.args = {Term::Var(x)};
      req.constraint.Add(Primitive::Eq(
          Term::Var(x), Term::Const(Value(rng.Int(0, o.const_pool + 4)))));
      requests.push_back(std::move(req));
    }

    auto run = [&](JoinMode mode, int threads, maint::InsertStats* stats,
                   bool fastpath = true) {
      FixpointOptions opts;
      opts.semantics = semantics;
      opts.join_mode = mode;
      opts.num_threads = threads;
      opts.solver.fastpath = fastpath;
      View v = Unwrap(Materialize(p, w.domains.get(), opts));
      int ext = 0;
      Status s = maint::InsertBatch(p, &v, requests, w.domains.get(), opts,
                                    stats, &ext);
      EXPECT_TRUE(s.ok()) << s.ToString();
      return v;
    };
    View naive = run(JoinMode::kNaive, 1, nullptr);
    maint::InsertStats seq_stats;
    View ordered = run(JoinMode::kIndexed, 1, &seq_stats);
    EXPECT_EQ(CanonicalAtoms(naive), CanonicalAtoms(ordered))
        << "seed " << seed << "\n"
        << p.ToString();
    if (semantics == DupSemantics::kDuplicate) {  // see ExpectModesAgree
      EXPECT_EQ(Supports(naive), Supports(ordered)) << "seed " << seed;
    }
    // The insertion continuation with the solver fast path off: the
    // InsertBatch screens (and the batch-scoped rejection memo) may only
    // prune what the slow path proves unsatisfiable, so the maintained
    // view, supports and insertion counters are byte-identical.
    maint::InsertStats fp_off_stats;
    View fp_off = run(JoinMode::kIndexed, 1, &fp_off_stats,
                      /*fastpath=*/false);
    EXPECT_EQ(CanonicalAtoms(ordered), CanonicalAtoms(fp_off))
        << "seed " << seed << " (fastpath off)\n"
        << p.ToString();
    EXPECT_EQ(Supports(ordered), Supports(fp_off))
        << "seed " << seed << " (fastpath off)";
    EXPECT_EQ(seq_stats.add_atoms, fp_off_stats.add_atoms);
    EXPECT_EQ(seq_stats.atoms_added, fp_off_stats.atoms_added);
    EXPECT_EQ(seq_stats.unfold.derivations_attempted,
              fp_off_stats.unfold.derivations_attempted);
    EXPECT_EQ(seq_stats.unfold.index_probes, fp_off_stats.unfold.index_probes);
    EXPECT_EQ(seq_stats.unfold.ground_rejects,
              fp_off_stats.unfold.ground_rejects);
    EXPECT_EQ(seq_stats.unfold.rename_skipped,
              fp_off_stats.unfold.rename_skipped);
    EXPECT_EQ(fp_off_stats.solver.sat_prechecks, 0);
    EXPECT_EQ(fp_off_stats.solver.sat_rejects, 0);
    // The insertion continuation under the num_threads sweep: the parallel
    // engine replays the sequential append order, so the whole maintained
    // view — supports included, both semantics — and the insertion
    // counters must match the single-threaded run exactly.
    for (int threads : ThreadSweep()) {
      maint::InsertStats par_stats;
      View parallel = run(JoinMode::kIndexed, threads, &par_stats);
      EXPECT_EQ(CanonicalAtoms(ordered), CanonicalAtoms(parallel))
          << "seed " << seed << " num_threads " << threads << "\n"
          << p.ToString();
      EXPECT_EQ(Supports(ordered), Supports(parallel))
          << "seed " << seed << " num_threads " << threads;
      EXPECT_EQ(seq_stats.add_atoms, par_stats.add_atoms);
      EXPECT_EQ(seq_stats.atoms_added, par_stats.atoms_added);
      EXPECT_EQ(seq_stats.unfold.derivations_attempted,
                par_stats.unfold.derivations_attempted);
      EXPECT_EQ(seq_stats.unfold.index_probes, par_stats.unfold.index_probes);
      EXPECT_EQ(seq_stats.unfold.ground_rejects,
                par_stats.unfold.ground_rejects);
      EXPECT_EQ(seq_stats.unfold.rename_skipped,
                par_stats.unfold.rename_skipped);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(JoinDifferential, InsertionContinuationsDuplicateSemantics) {
  RunContinuationDifferential(DupSemantics::kDuplicate, 4000);
}

TEST(JoinDifferential, InsertionContinuationsSetSemantics) {
  RunContinuationDifferential(DupSemantics::kSet, 5000);
}

// The set-semantics dedup and the fast-path derive both rely on SimplifyAtom
// being idempotent: an atom that already went through the simplifier must
// canonicalize identically whether or not the canonical pass simplifies
// again (AddAtom passes assume_simplified=true for derived atoms).
TEST(JoinDifferential, CanonicalAssumeSimplifiedIsConsistent) {
  TestWorld w = TestWorld::Make();
  std::string scratch1, scratch2;
  for (uint64_t seed = 6000; seed < 6030; ++seed) {
    Rng rng(seed);
    Program p = workload::MakeRandomProgram(&rng, RandomOptions(&rng));
    View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
    for (const ViewAtom& a : v.atoms()) {
      // Engine output is simplified (options.simplify default on); a second
      // simplify must not change the canonical form.
      SimplifiedAtom s = SimplifyAtom(a.args, a.constraint);
      CanonicalKey once = CanonicalAtomKey(a.pred, s.head, s.constraint,
                                           /*assume_simplified=*/true,
                                           &scratch1);
      CanonicalKey full = CanonicalAtomKey(a.pred, a.args, a.constraint,
                                           /*assume_simplified=*/false,
                                           &scratch2);
      EXPECT_EQ(scratch1, scratch2) << a.ToString();
      EXPECT_TRUE(once == full);
      // And the hashed key matches the legacy canonical string.
      EXPECT_EQ(scratch2,
                CanonicalAtomString(a.pred, a.args, a.constraint));
    }
  }
}

}  // namespace
}  // namespace mmv
