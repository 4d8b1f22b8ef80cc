// Shared helpers for the mmv test suites.

#ifndef MMV_TESTS_TEST_UTIL_H_
#define MMV_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "constraint/canonical.h"
#include "core/fixpoint.h"
#include "domain/registry.h"
#include "maintenance/batch.h"
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

}  // namespace testutil
}  // namespace mmv

#endif  // MMV_TESTS_TEST_UTIL_H_
