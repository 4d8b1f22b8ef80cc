// Shared helpers for the mmv test suites.

#ifndef MMV_TESTS_TEST_UTIL_H_
#define MMV_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "constraint/canonical.h"
#include "core/fixpoint.h"
#include "domain/registry.h"
#include "maintenance/batch.h"
#include "maintenance/del_add.h"
#include "maintenance/recompute.h"
#include "maintenance/rewrite.h"
#include "parser/parser.h"
#include "query/enumerate.h"

namespace mmv {
namespace testutil {

/// \brief Unwraps a Result, failing the test on error.
template <typename T>
T Unwrap(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

/// \brief Parses a program, failing the test on error.
inline Program ParseOrDie(std::string_view text) {
  return Unwrap(parser::ParseProgram(text));
}

/// \brief Parses an update request, failing the test on error.
inline maint::UpdateAtom ParseUpdate(std::string_view text,
                                     Program* program) {
  parser::ParsedAtom atom = Unwrap(parser::ParseConstrainedAtom(text, program));
  return maint::UpdateAtom{std::move(atom.pred), std::move(atom.args),
                           std::move(atom.constraint)};
}

/// \brief A catalog + standard domains bundle for tests.
struct TestWorld {
  std::unique_ptr<rel::Catalog> catalog;
  std::unique_ptr<dom::DomainManager> domains;
  dom::StandardDomains handles;

  static TestWorld Make() {
    TestWorld w;
    w.catalog = std::make_unique<rel::Catalog>();
    w.domains = std::make_unique<dom::DomainManager>(&w.catalog->clock());
    w.handles = Unwrap(
        dom::RegisterStandardDomains(w.domains.get(), w.catalog.get()));
    return w;
  }
};

/// \brief Materializes under T_P with duplicate semantics.
inline View MaterializeOrDie(const Program& p, DcaEvaluator* eval,
                             FixpointOptions opts = {}) {
  return Unwrap(Materialize(p, eval, opts));
}

/// \brief Renders [view] as a set of instance strings (for EXPECT_EQ).
inline std::set<std::string> Instances(const View& view,
                                       DcaEvaluator* eval) {
  query::InstanceSet set = Unwrap(query::EnumerateView(view, eval));
  EXPECT_TRUE(set.complete) << "instance enumeration was incomplete";
  std::set<std::string> out;
  for (const query::Instance& i : set.instances) out.insert(i.ToString());
  return out;
}

/// \brief Same, over a pinned snapshot (reads the immutable image).
inline std::set<std::string> Instances(const SnapshotHandle& snapshot,
                                       DcaEvaluator* eval) {
  query::InstanceSet set = Unwrap(query::EnumerateView(snapshot, eval));
  EXPECT_TRUE(set.complete) << "instance enumeration was incomplete";
  std::set<std::string> out;
  for (const query::Instance& i : set.instances) out.insert(i.ToString());
  return out;
}

/// \brief The declarative oracle for an update burst: folds the burst into
/// the paper's Section 3 program transforms (deletion guards every head of
/// the requested predicate with not(psi); insertion appends the request as
/// a constrained fact) and rematerializes from scratch.
inline View FoldRecompute(const Program& program,
                          const std::vector<maint::Update>& burst,
                          DcaEvaluator* evaluator,
                          const FixpointOptions& options = {}) {
  Program rewritten = program;
  for (const maint::Update& u : burst) {
    if (u.kind == maint::Update::Kind::kDelete) {
      rewritten = maint::RewriteForDeletion(rewritten, u.atom, evaluator);
    } else {
      rewritten = maint::AppendFact(rewritten, u.atom);
    }
  }
  return Unwrap(maint::Recompute(rewritten, evaluator, options));
}

/// \brief Canonical state of a view: the MULTISET of
/// (canonical atom, support tree, depth) triples. Variable-renaming
/// insensitive (DeserializeView legitimately re-numbers variables) but
/// support- and duplicate-exact — the equality the durability layer's
/// byte-identical-recovery contract is asserted with.
inline std::multiset<std::string> CanonicalState(const View& view) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : view.atoms()) {
    out.insert(CanonicalAtomString(a.pred, a.args, a.constraint) + " @ " +
               a.support.ToString() + " # " + std::to_string(a.depth));
  }
  return out;
}

/// \brief Instance strings of one predicate only.
inline std::set<std::string> InstancesOf(const View& view,
                                         const std::string& pred,
                                         DcaEvaluator* eval) {
  std::set<std::string> out;
  for (const std::string& s : Instances(view, eval)) {
    if (s.rfind(pred + "(", 0) == 0) out.insert(s);
  }
  return out;
}

// ---- scan oracles for the View probe -------------------------------------
//
// The reads that View::Probe replaced, kept verbatim as references: each
// walks EVERY atom of the predicate (View::AtomsFor) and lets the
// constraint machinery reject what the probe skips on constants.

/// \brief QueryPred(const View&, ...) as a full predicate scan.
inline Result<query::InstanceSet> ScanQueryPred(
    const View& view, Symbol pred, const TermVec& pattern,
    DcaEvaluator* evaluator, const query::EnumerateOptions& options = {}) {
  Solver solver(evaluator, options.solver);
  query::InstanceSet out;
  for (size_t i : view.AtomsFor(pred)) {
    const ViewAtom& atom = view.atoms()[i];
    if (atom.args.size() != pattern.size()) continue;
    // Restrict a copy: Eq for constant positions, position equality for
    // repeated pattern variables.
    ViewAtom restricted = atom;
    std::unordered_map<VarId, size_t> first_pos;
    for (size_t k = 0; k < pattern.size(); ++k) {
      const Term& p = pattern[k];
      if (p.is_const()) {
        restricted.constraint.Add(
            Primitive::Eq(atom.args[k], Term::Const(p.constant())));
      } else if (auto it = first_pos.find(p.var()); it == first_pos.end()) {
        first_pos[p.var()] = k;
      } else {
        restricted.constraint.Add(
            Primitive::Eq(atom.args[k], atom.args[it->second]));
      }
    }
    query::EnumerateOptions atom_options = options;
    atom_options.max_instances = options.max_instances - out.instances.size();
    MMV_ASSIGN_OR_RETURN(
        query::InstanceSet one,
        query::EnumerateAtomWith(restricted, &solver, atom_options));
    out.instances.insert(one.instances.begin(), one.instances.end());
    out.complete = out.complete && one.complete;
    out.approximate = out.approximate || one.approximate;
    if (out.instances.size() >= options.max_instances) {
      out.complete = false;
      break;
    }
  }
  return out;
}

/// \brief maint::BuildDel as a full predicate scan.
inline Result<std::vector<maint::DelElement>> ScanBuildDel(
    const View& view, const maint::UpdateAtom& request, Solver* solver) {
  std::vector<maint::DelElement> del;
  VarFactory factory;
  factory.ReserveAbove(view.MaxVarId());
  std::vector<VarId> req_vars;
  CollectVars(request.args, &req_vars);
  for (VarId v : request.constraint.Variables()) {
    if (std::find(req_vars.begin(), req_vars.end(), v) == req_vars.end()) {
      req_vars.push_back(v);
    }
  }
  for (VarId v : req_vars) factory.ReserveAbove(v);
  for (size_t i : view.AtomsFor(request.pred)) {
    const ViewAtom& atom = view.atoms()[i];
    if (atom.args.size() != request.args.size()) continue;
    Substitution renaming = FreshRenaming(req_vars, &factory);
    TermVec req_args = renaming.Apply(request.args);
    Constraint overlap = atom.constraint;
    overlap.AndWith(renaming.Apply(request.constraint));
    for (size_t k = 0; k < req_args.size(); ++k) {
      overlap.Add(Primitive::Eq(atom.args[k], req_args[k]));
    }
    Constraint deleted_part =
        maint::RebindHead(atom.args, SimplifyAtom(atom.args, overlap));
    if (deleted_part.is_false()) continue;
    SolveOutcome o = solver->Solve(deleted_part);
    if (o == SolveOutcome::kError) return solver->last_status();
    if (!IsSolvable(o)) continue;
    del.push_back(maint::DelElement{i, std::move(deleted_part)});
  }
  return del;
}

/// \brief maint::BuildAdd as a full predicate scan.
inline Result<std::vector<ViewAtom>> ScanBuildAdd(
    const View& view, const maint::UpdateAtom& request, Solver* solver,
    int* ext_support) {
  VarFactory factory;
  factory.ReserveAbove(view.MaxVarId());
  std::vector<VarId> req_vars;
  CollectVars(request.args, &req_vars);
  for (VarId v : request.constraint.Variables()) factory.ReserveAbove(v);
  for (VarId v : req_vars) factory.ReserveAbove(v);
  Constraint add_constraint = request.constraint;
  for (size_t i : view.AtomsFor(request.pred)) {
    const ViewAtom& atom = view.atoms()[i];
    if (atom.args.size() != request.args.size()) continue;
    if (atom.constraint.is_false()) continue;
    if (atom.constraint.is_true() && atom.args == request.args) {
      return std::vector<ViewAtom>{};
    }
    add_constraint.AddNot(maint::NegatedInstanceBlock(
        request.args, atom.args, atom.constraint, &factory));
    if (add_constraint.is_false()) return std::vector<ViewAtom>{};
  }
  SimplifiedAtom s = SimplifyAtom(request.args, add_constraint);
  if (s.constraint.is_false()) return std::vector<ViewAtom>{};
  SolveOutcome o = solver->Solve(s.constraint);
  if (o == SolveOutcome::kError) return solver->last_status();
  if (!IsSolvable(o)) return std::vector<ViewAtom>{};
  ViewAtom atom;
  atom.pred = request.pred;
  atom.args = s.head;
  atom.constraint = std::move(s.constraint);
  atom.support = Support(--(*ext_support));
  return std::vector<ViewAtom>{std::move(atom)};
}

}  // namespace testutil
}  // namespace mmv

#endif  // MMV_TESTS_TEST_UTIL_H_
