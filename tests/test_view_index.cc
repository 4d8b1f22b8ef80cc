// Property tests for the View index layer: the incrementally-maintained
// by-predicate posting lists, support hash index, and child-support index
// must agree with a linear-scan reference oracle across randomized
// Add / RemoveIf / in-place-constraint-replacement sequences. The probe
// consumers (live QueryPred / Ask, BuildDel, BuildAdd) must answer exactly
// like the predicate scans they replaced, over views of all six domains.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "core/view.h"
#include "query/query.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/law_enforcement.h"

namespace mmv {
namespace {

// The linear-scan reference implementations (the pre-index View behavior).
std::vector<size_t> ScanAtomsFor(const View& v, Symbol pred) {
  std::vector<size_t> out;
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    if (v.atoms()[i].pred == pred) out.push_back(i);
  }
  return out;
}

bool ScanHasSupport(const View& v, const Support& s) {
  for (const ViewAtom& a : v.atoms()) {
    if (a.support == s) return true;
  }
  return false;
}

int64_t ScanIndexOfSupport(const View& v, const Support& s) {
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    if (v.atoms()[i].support == s) return static_cast<int64_t>(i);
  }
  return -1;
}

std::vector<std::pair<size_t, size_t>> ScanParentsOfChildSupport(
    const View& v, const Support& s) {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    const Support& spt = v.atoms()[i].support;
    for (size_t k = 0; k < spt.children().size(); ++k) {
      if (spt.children()[k] == s) out.emplace_back(i, k);
    }
  }
  return out;
}

std::vector<size_t> ScanAtomsForArgValue(const View& v, Symbol pred,
                                         size_t pos, const Value& val) {
  std::vector<size_t> out;
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    const ViewAtom& a = v.atoms()[i];
    if (a.pred == pred && pos < a.args.size() && a.args[pos].is_const() &&
        a.args[pos].constant() == val) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> ScanAtomsForNonConstArg(const View& v, Symbol pred,
                                            size_t pos) {
  std::vector<size_t> out;
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    const ViewAtom& a = v.atoms()[i];
    if (a.pred == pred && pos < a.args.size() && !a.args[pos].is_const()) {
      out.push_back(i);
    }
  }
  return out;
}

Support RandomSupport(Rng* rng, int depth) {
  int clause = static_cast<int>(rng->Int(1, 12));
  if (depth == 0 || rng->Chance(0.5)) return Support(clause);
  std::vector<Support> children;
  int n = static_cast<int>(rng->Int(1, 2));
  for (int i = 0; i < n; ++i) children.push_back(RandomSupport(rng, depth - 1));
  return Support(clause, std::move(children));
}

// A random argument term mixing variables with constants of several kinds
// (including int/double pairs that compare — and hash — numerically equal,
// so the arg-value index's cross-kind bucketing is exercised).
Term RandomArg(Rng* rng) {
  double roll = rng->Double(0, 1);
  if (roll < 0.35) return Term::Var(static_cast<VarId>(rng->Int(0, 40)));
  if (roll < 0.65) return Term::Const(Value(rng->Int(0, 12)));
  if (roll < 0.8) {
    return Term::Const(Value(static_cast<double>(rng->Int(0, 12))));
  }
  if (roll < 0.9) return Term::Const(Value("s" + std::to_string(rng->Int(0, 3))));
  return Term::Const(Value(rng->Chance(0.5)));
}

ViewAtom RandomAtom(Rng* rng, int serial) {
  static const std::vector<Symbol> kPreds = {"p", "q", "r", "s", "t"};
  ViewAtom a;
  a.pred = rng->Pick(kPreds);
  VarId x = static_cast<VarId>(rng->Int(0, 40));
  a.args = {Term::Var(x)};
  // Varying arity: most atoms get a second (often ground) argument.
  if (rng->Chance(0.7)) a.args.push_back(RandomArg(rng));
  if (rng->Chance(0.3)) a.args[0] = RandomArg(rng);
  a.constraint.Add(
      Primitive::Eq(Term::Var(x), Term::Const(Value(rng->Int(0, 30)))));
  // A serial-numbered second child keeps most supports distinct while still
  // producing occasional duplicates for the HasSupport probe to find.
  a.support = Support(static_cast<int>(rng->Int(1, 12)),
                      {RandomSupport(rng, 2), Support(1000 + serial / 4)});
  a.depth = static_cast<int>(rng->Int(0, 5));
  return a;
}

// Every index query must match its linear-scan oracle.
void CheckAgainstOracle(const View& v, Rng* rng) {
  for (Symbol pred : {Symbol("p"), Symbol("q"), Symbol("r"), Symbol("s"),
                      Symbol("t"), Symbol("absent")}) {
    EXPECT_EQ(v.AtomsFor(pred), ScanAtomsFor(v, pred)) << pred;
  }
  // Probe with supports drawn from the view (hits) and random ones (mostly
  // misses, occasionally hash-colliding shapes).
  std::vector<Support> probes;
  for (const ViewAtom& a : v.atoms()) {
    probes.push_back(a.support);
    for (const Support& c : a.support.children()) probes.push_back(c);
    if (probes.size() > 40) break;
  }
  for (int i = 0; i < 10; ++i) probes.push_back(RandomSupport(rng, 2));
  for (const Support& s : probes) {
    EXPECT_EQ(v.HasSupport(s), ScanHasSupport(v, s)) << s.ToString();
    int64_t got = v.IndexOfSupport(s);
    if (got >= 0) {
      // Supports may legitimately repeat in a randomized view; the indexed
      // answer must point at *some* atom with that support.
      ASSERT_LT(static_cast<size_t>(got), v.atoms().size());
      EXPECT_EQ(v.atoms()[static_cast<size_t>(got)].support, s);
    } else {
      EXPECT_EQ(ScanIndexOfSupport(v, s), -1) << s.ToString();
    }
    std::vector<std::pair<size_t, size_t>> indexed;
    v.ForEachParentOfChild(s, [&](size_t parent, size_t slot) {
      indexed.emplace_back(parent, slot);
    });
    auto scanned = ScanParentsOfChildSupport(v, s);
    std::sort(indexed.begin(), indexed.end());
    std::sort(scanned.begin(), scanned.end());
    EXPECT_EQ(indexed, scanned) << s.ToString();
  }
  // Arg-value index vs linear scan: probe every predicate/position with
  // values drawn from the atoms (hits), cross-kind numeric twins, and
  // absent values (misses).
  std::vector<Value> values;
  for (const ViewAtom& a : v.atoms()) {
    for (const Term& t : a.args) {
      if (t.is_const()) values.push_back(t.constant());
      if (values.size() > 24) break;
    }
    if (values.size() > 24) break;
  }
  values.push_back(Value(3));
  values.push_back(Value(3.0));  // must share a bucket with Value(3)
  values.push_back(Value(999));
  values.push_back(Value("absent"));
  for (Symbol pred : {Symbol("p"), Symbol("q"), Symbol("r"), Symbol("s"),
                      Symbol("t"), Symbol("absent")}) {
    for (size_t pos = 0; pos < 3; ++pos) {
      EXPECT_EQ(v.AtomsForNonConstArg(pred, pos),
                ScanAtomsForNonConstArg(v, pred, pos))
          << pred << " pos " << pos;
      for (const Value& val : values) {
        EXPECT_EQ(v.AtomsForArgValue(pred, pos, val),
                  ScanAtomsForArgValue(v, pred, pos, val))
            << pred << " pos " << pos << " val " << val.ToString();
      }
    }
  }
}

TEST(ViewIndexProperty, RandomizedMutationsAgreeWithScan) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    View v;
    int serial = 0;
    for (int step = 0; step < 200; ++step) {
      double roll = rng.Double(0, 1);
      if (roll < 0.55 || v.empty()) {
        v.Add(RandomAtom(&rng, serial++));
      } else if (roll < 0.75) {
        // In-place constraint replacement (the StDel step-2/3 mutation):
        // must not disturb any index.
        size_t i = static_cast<size_t>(
            rng.Int(0, static_cast<int64_t>(v.size()) - 1));
        ViewAtom& a = v.MutableAtom(i);
        if (rng.Chance(0.3)) {
          a.constraint = Constraint::False();
        } else {
          a.constraint.Add(Primitive::Neq(
              a.args[0], Term::Const(Value(rng.Int(0, 30)))));
        }
        a.marked = rng.Chance(0.5);
      } else if (roll < 0.9) {
        // Remove a random subset by predicate or by falseness.
        if (rng.Chance(0.5)) {
          Symbol victim = v.atoms()[static_cast<size_t>(rng.Int(
                                        0, static_cast<int64_t>(v.size()) - 1))]
                              .pred;
          v.RemoveIf([&](const ViewAtom& a) { return a.pred == victim; });
        } else {
          v.RemoveIf(
              [](const ViewAtom& a) { return a.constraint.is_false(); });
        }
      } else {
        // No-op removal: must leave every atom (and index) intact.
        size_t before = v.size();
        EXPECT_EQ(v.RemoveIf([](const ViewAtom&) { return false; }), 0u);
        EXPECT_EQ(v.size(), before);
      }
      if (step % 20 == 0) CheckAgainstOracle(v, &rng);
    }
    CheckAgainstOracle(v, &rng);
  }
}

TEST(ViewIndexProperty, MaxVarIdIsMonotoneUpperBound) {
  Rng rng(7);
  View v;
  VarId seen_max = -1;
  for (int i = 0; i < 100; ++i) {
    ViewAtom a = RandomAtom(&rng, i);
    std::vector<VarId> vars;
    CollectVars(a.args, &vars);
    for (VarId x : vars) seen_max = std::max(seen_max, x);
    for (VarId x : a.constraint.Variables()) seen_max = std::max(seen_max, x);
    v.Add(std::move(a));
    EXPECT_GE(v.MaxVarId(), seen_max);
    if (rng.Chance(0.2)) {
      v.RemoveIf([&](const ViewAtom&) { return rng.Chance(0.5); });
      // Removal never lowers the high-water mark.
      EXPECT_GE(v.MaxVarId(), seen_max);
    }
  }
}

TEST(ViewIndexProperty, TakeAtomsPreservesVariableHighWaterMark) {
  // The high-water mark is monotone over the store's WHOLE history:
  // TakeAtoms drains the atoms and indexes but must not forget the bound —
  // especially an externally noted one (NoteExternalVars) that no atom
  // mentions, which a cloning/draining layer could otherwise capture
  // against.
  Rng rng(23);
  View v;
  for (int i = 0; i < 10; ++i) v.Add(RandomAtom(&rng, i));
  VarId atom_bound = v.MaxVarId();
  ASSERT_GE(atom_bound, 0);
  VarId external_bound = atom_bound + 1000;
  v.NoteExternalVars(external_bound);
  ASSERT_EQ(v.MaxVarId(), external_bound);

  std::vector<ViewAtom> atoms = v.TakeAtoms();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.MaxVarId(), external_bound)
      << "TakeAtoms must preserve the variable high-water mark";

  // Re-adding the drained atoms keeps the external bound dominant.
  for (ViewAtom& a : atoms) v.Add(std::move(a));
  EXPECT_EQ(v.MaxVarId(), external_bound);
}

TEST(ViewIndexProperty, TakeAtomsResetsTheStore) {
  Rng rng(11);
  View v;
  for (int i = 0; i < 20; ++i) v.Add(RandomAtom(&rng, i));
  std::vector<ViewAtom> atoms = v.TakeAtoms();
  EXPECT_EQ(atoms.size(), 20u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.AtomsFor("p").empty());
  EXPECT_FALSE(v.HasSupport(atoms[0].support));
  View::IndexStats st = v.index_stats();
  EXPECT_EQ(st.postings + st.support_entries + st.child_entries, 0u);
  // The store is reusable after a take.
  for (ViewAtom& a : atoms) v.Add(std::move(a));
  EXPECT_EQ(v.size(), 20u);
  CheckAgainstOracle(v, &rng);
}

// ---- probe consumers vs the predicate scan --------------------------------

// Runs \p body over each probe test view: the arith / rel / tuple / text
// mediator, the law-enforcement scenario (faces / spatial / rel), random
// programs after a mixed update burst (external supports, not-blocks), and
// a hand-made view with variable arguments, unbounded variables, mixed
// arities under one predicate and 1 next to 1.0.
void ForEachProbeView(
    const std::function<void(const View&, DcaEvaluator*)>& body) {
  {
    SCOPED_TRACE("mediator");
    testutil::TestWorld w = testutil::TestWorld::Make();
    ASSERT_TRUE(w.catalog->CreateTable(rel::Schema{"t", {"k", "v"}}).ok());
    ASSERT_TRUE(w.catalog->Insert("t", {Value("a"), Value(1)}).ok());
    ASSERT_TRUE(w.catalog->Insert("t", {Value("b"), Value(2)}).ok());
    ASSERT_TRUE(w.handles.text->AddDocument("d1", "alpha beta").ok());
    ASSERT_TRUE(w.handles.text->AddDocument("d2", "beta gamma").ok());
    Program p = testutil::ParseOrDie(R"(
      num(X) <- in(X, arith:between(0, 3)) & X != 2.
      key(K) <- in(R, rel:scan("t")) & in(K, tuple:get(R, 0)).
      doc(D) <- in(D, text:match("beta")).
      hit(X, K, D) <- num(X) & key(K) & doc(D).
      hit(X, K, D) <- X = 1 & K = "a" & D = "d1".
    )");
    body(testutil::MaterializeOrDie(p, w.domains.get()), w.domains.get());
  }
  {
    SCOPED_TRACE("law enforcement");
    workload::LawEnforcementOptions opts;
    opts.num_people = 5;
    opts.num_photos = 3;
    opts.faces_per_photo = 2;
    opts.seed = 11;
    auto scenario = testutil::Unwrap(workload::MakeLawEnforcement(opts));
    body(testutil::MaterializeOrDie(scenario->mediator,
                                    scenario->domains.get()),
         scenario->domains.get());
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("random program, seed " + std::to_string(seed));
    testutil::TestWorld w = testutil::TestWorld::Make();
    Rng rng(seed);
    workload::RandomProgramOptions opts;
    opts.interval_fact_prob = 0.4;
    Program p = workload::MakeRandomProgram(&rng, opts);
    View view = testutil::MaterializeOrDie(p, w.domains.get());
    std::vector<maint::Update> burst;
    for (int i = 0; i < 4; ++i) {
      maint::UpdateAtom atom;
      atom.pred = "base" + std::to_string(rng.Int(0, opts.base_preds - 1));
      VarId x = p.factory()->Fresh();
      atom.args = {Term::Var(x)};
      atom.constraint.Add(Primitive::Eq(
          Term::Var(x), Term::Const(Value(rng.Int(0, opts.const_pool)))));
      burst.push_back(i % 2 == 0 ? maint::Update::Delete(std::move(atom))
                                 : maint::Update::Insert(std::move(atom)));
    }
    int ext = 0;
    ASSERT_TRUE(maint::ApplyBatch(p, &view, burst, w.domains.get(), {},
                                  nullptr, &ext)
                    .ok());
    body(view, w.domains.get());
  }
  {
    SCOPED_TRACE("hand-made");
    testutil::TestWorld w = testutil::TestWorld::Make();
    Program p = testutil::ParseOrDie(R"(
      q(X, Y) <- X = 1 & Y = 2.
      q(X, Y) <- X = 1.0 & Y = 3.
      q(X, Y) <- X = 1 & in(Y, arith:between(0, 2)).
      q(X, X) <- in(X, arith:between(0, 2)).
      q(X, Y) <- X = 2.
      q(X, Y) <- X = "a" & Y = 1.0.
      q(X, Y, Z) <- X = 1 & Y = 2 & Z = 3.
      q(X, Y, Z) <- X = 1 & in(Z, arith:between(2, 4)).
      q(X) <- X != 1.
    )");
    body(testutil::MaterializeOrDie(p, w.domains.get()), w.domains.get());
  }
}

// The constants of a view per (pred, arity, position), plus values no atom
// has, so random patterns both hit buckets and miss them.
using ConstPool = std::map<std::tuple<Symbol, size_t, size_t>,
                           std::vector<Value>>;

ConstPool PoolOf(const View& view) {
  ConstPool pool;
  for (const ViewAtom& a : view.atoms()) {
    for (size_t k = 0; k < a.args.size(); ++k) {
      std::vector<Value>& values = pool[{a.pred, a.args.size(), k}];
      if (a.args[k].is_const()) values.push_back(a.args[k].constant());
    }
  }
  return pool;
}

// A random constant for a pattern position: one of the view's (or its
// int/double twin), or an absent value.
Value PoolValue(Rng* rng, const std::vector<Value>& values) {
  if (values.empty() || rng->Chance(0.2)) {
    return rng->Chance(0.5) ? Value(int64_t{999}) : Value("absent");
  }
  Value v = rng->Pick(values);
  if (v.is_numeric() && rng->Chance(0.4)) {
    double d = v.numeric();
    if (d == static_cast<double>(static_cast<int64_t>(d))) {
      return v.kind() == ValueKind::kInt ? Value(d)
                                         : Value(static_cast<int64_t>(d));
    }
  }
  return v;
}

// Random patterns per (pred, arity) of the view, one arity above the
// largest included: constant, repeated-variable and fresh-variable
// positions. Fresh variables are numbered above everything in the view.
std::vector<std::pair<Symbol, TermVec>> RandomPatterns(const View& view,
                                                       Rng* rng, int per) {
  ConstPool pool = PoolOf(view);
  std::map<Symbol, size_t> max_arity;
  for (const auto& [key, _] : pool) {
    size_t& m = max_arity[std::get<0>(key)];
    m = std::max(m, std::get<1>(key));
  }
  std::vector<std::pair<Symbol, size_t>> shapes;
  for (const auto& [key, _] : pool) {
    if (std::get<2>(key) == 0) shapes.emplace_back(std::get<0>(key),
                                                   std::get<1>(key));
  }
  for (const auto& [pred, arity] : max_arity) {
    shapes.emplace_back(pred, arity + 1);
  }
  std::vector<std::pair<Symbol, TermVec>> out;
  for (const auto& [pred, arity] : shapes) {
    for (int n = 0; n < per; ++n) {
      VarId next = view.MaxVarId() + 1;
      TermVec pattern;
      for (size_t k = 0; k < arity; ++k) {
        double roll = rng->Double(0, 1);
        if (roll < 0.5) {
          pattern.push_back(
              Term::Const(PoolValue(rng, pool[{pred, arity, k}])));
        } else if (roll < 0.7 && next > view.MaxVarId() + 1) {
          pattern.push_back(Term::Var(next - 1));  // repeat the last one
        } else {
          pattern.push_back(Term::Var(next++));
        }
      }
      out.emplace_back(pred, std::move(pattern));
    }
  }
  return out;
}

std::string PatternText(Symbol pred, const TermVec& pattern) {
  return PrintAtom(pred, pattern, Constraint(), nullptr);
}

TEST(ViewProbe, ProbeYieldsEveryNonClashingAtomInOrder) {
  ForEachProbeView([](const View& view, DcaEvaluator*) {
    Rng rng(5);
    for (const auto& [pred, pattern] : RandomPatterns(view, &rng, 12)) {
      std::vector<size_t> probed;
      View::Candidates c = view.Probe(pred, pattern);
      for (size_t i; c.Next(&i);) {
        if (!View::ConstantsClash(view.atoms()[i].args, pattern)) {
          probed.push_back(i);
        }
      }
      std::vector<size_t> scanned;
      for (size_t i : view.AtomsFor(pred)) {
        if (!View::ConstantsClash(view.atoms()[i].args, pattern)) {
          scanned.push_back(i);
        }
      }
      EXPECT_EQ(probed, scanned) << PatternText(pred, pattern);
    }
  });
}

TEST(ViewProbe, WithinKeepsExactlyTheWindow) {
  ForEachProbeView([](const View& view, DcaEvaluator*) {
    Rng rng(6);
    for (const auto& [pred, pattern] : RandomPatterns(view, &rng, 4)) {
      size_t lo = static_cast<size_t>(
          rng.Int(0, static_cast<int64_t>(view.size())));
      size_t hi = static_cast<size_t>(
          rng.Int(0, static_cast<int64_t>(view.size())));
      View::Candidates all = view.Probe(pred, pattern);
      View::Candidates window = all.Within(lo, hi);
      std::vector<size_t> expected, got;
      for (size_t i; all.Next(&i);) {
        if (i >= lo && i < hi) expected.push_back(i);
      }
      EXPECT_EQ(window.size(), expected.size());
      for (size_t i; window.Next(&i);) got.push_back(i);
      EXPECT_EQ(got, expected) << PatternText(pred, pattern);
    }
  });
}

TEST(ViewProbe, LiveQueryPredAndAskMatchTheScan) {
  int compared = 0, capped = 0, incomplete = 0;
  ForEachProbeView([&](const View& view, DcaEvaluator* eval) {
    Rng rng(7);
    const size_t kCaps[] = {query::EnumerateOptions().max_instances, 1, 2, 3};
    for (const auto& [pred, pattern] : RandomPatterns(view, &rng, 12)) {
      SCOPED_TRACE(PatternText(pred, pattern));
      query::EnumerateOptions options;
      options.max_instances = rng.Chance(0.6) ? kCaps[0] : kCaps[rng.Int(1, 3)];
      Result<query::InstanceSet> scan =
          testutil::ScanQueryPred(view, pred, pattern, eval, options);
      Result<query::InstanceSet> probe =
          query::QueryPred(view, pred, pattern, eval, options);
      ASSERT_EQ(scan.ok(), probe.ok());
      if (!scan.ok()) continue;
      EXPECT_EQ(probe->instances, scan->instances);
      EXPECT_EQ(probe->complete, scan->complete);
      EXPECT_EQ(probe->approximate, scan->approximate);
      ++compared;
      if (options.max_instances != kCaps[0]) ++capped;
      if (!scan->complete) ++incomplete;

      bool ground = std::all_of(pattern.begin(), pattern.end(),
                                [](const Term& t) { return t.is_const(); });
      if (!ground) continue;
      std::vector<Value> values;
      for (const Term& t : pattern) values.push_back(t.constant());
      Result<query::InstanceSet> full =
          testutil::ScanQueryPred(view, pred, pattern, eval);
      ASSERT_TRUE(full.ok());
      EXPECT_EQ(testutil::Unwrap(query::Ask(view, pred, values, eval)),
                !full->instances.empty());
    }
  });
  EXPECT_GT(compared, 400);
  EXPECT_GT(capped, 50);
  EXPECT_GT(incomplete, 10);
}

// Requests over the view's predicates: constant args, variables pinned by
// `=` (the simplified head then holds the constant), variables excluded by
// `!=`, free and repeated variables.
std::vector<maint::UpdateAtom> RandomRequests(const View& view, Rng* rng,
                                              int per) {
  std::vector<maint::UpdateAtom> out;
  ConstPool pool = PoolOf(view);
  for (auto& [pred, pattern] : RandomPatterns(view, rng, per)) {
    maint::UpdateAtom req;
    req.pred = pred;
    VarId next = view.MaxVarId() + 1000;
    for (size_t k = 0; k < pattern.size(); ++k) {
      const std::vector<Value>& values = pool[{pred, pattern.size(), k}];
      Term arg = pattern[k];
      if (arg.is_const() && rng->Chance(0.5)) {
        // The same constant, behind a variable.
        VarId x = next++;
        req.constraint.Add(Primitive::Eq(Term::Var(x), arg));
        arg = Term::Var(x);
      } else if (!arg.is_const() && rng->Chance(0.3)) {
        req.constraint.Add(
            Primitive::Neq(arg, Term::Const(PoolValue(rng, values))));
      }
      req.args.push_back(arg);
    }
    out.push_back(std::move(req));
  }
  return out;
}

TEST(ViewProbe, BuildDelAndBuildAddMatchTheScan) {
  int dels = 0, adds = 0;
  ForEachProbeView([&](const View& view, DcaEvaluator* eval) {
    Rng rng(8);
    std::string scratch;
    auto key = [&](Symbol pred, const TermVec& args, const Constraint& c) {
      return CanonicalAtomKey(pred, args, c, /*assume_simplified=*/false,
                              &scratch);
    };
    for (const maint::UpdateAtom& req : RandomRequests(view, &rng, 3)) {
      SCOPED_TRACE(req.ToString());
      Solver scan_solver(eval), probe_solver(eval);
      Result<std::vector<maint::DelElement>> scan_del =
          testutil::ScanBuildDel(view, req, &scan_solver);
      Result<std::vector<maint::DelElement>> probe_del =
          maint::BuildDel(view, req, &probe_solver);
      ASSERT_EQ(scan_del.ok(), probe_del.ok());
      if (scan_del.ok()) {
        ASSERT_EQ(probe_del->size(), scan_del->size());
        for (size_t i = 0; i < scan_del->size(); ++i) {
          const maint::DelElement& s = (*scan_del)[i];
          const maint::DelElement& p = (*probe_del)[i];
          ASSERT_EQ(p.atom_index, s.atom_index);
          const ViewAtom& atom = view.atoms()[s.atom_index];
          EXPECT_EQ(key(atom.pred, atom.args, p.deleted_part),
                    key(atom.pred, atom.args, s.deleted_part));
        }
        dels += static_cast<int>(scan_del->size());
      }

      int scan_ext = -7, probe_ext = -7;
      Result<std::vector<ViewAtom>> scan_add =
          testutil::ScanBuildAdd(view, req, &scan_solver, &scan_ext);
      Result<std::vector<ViewAtom>> probe_add =
          maint::BuildAdd(view, req, &probe_solver, &probe_ext);
      ASSERT_EQ(scan_add.ok(), probe_add.ok());
      if (!scan_add.ok()) continue;
      ASSERT_EQ(probe_add->size(), scan_add->size());
      EXPECT_EQ(probe_ext, scan_ext);
      for (size_t i = 0; i < scan_add->size(); ++i) {
        const ViewAtom& s = (*scan_add)[i];
        const ViewAtom& p = (*probe_add)[i];
        EXPECT_EQ(key(p.pred, p.args, p.constraint),
                  key(s.pred, s.args, s.constraint));
        EXPECT_EQ(p.support, s.support);
      }
      adds += static_cast<int>(scan_add->size());
    }
  });
  EXPECT_GT(dels, 50);
  EXPECT_GT(adds, 50);
}

TEST(SymbolTest, InternedRoundTripAndIdentity) {
  Symbol a1("alpha");
  Symbol a2(std::string("alpha"));
  Symbol b("beta");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1.id(), a2.id());
  EXPECT_NE(a1, b);
  EXPECT_EQ(a1.name(), "alpha");
  EXPECT_EQ(b.name(), "beta");
  EXPECT_LT(a1, b);  // name order, not id order
  EXPECT_TRUE(Symbol().empty());
  EXPECT_EQ(Symbol().name(), "");
  EXPECT_FALSE(a1.empty());
}

}  // namespace
}  // namespace mmv
