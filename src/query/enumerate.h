// Enumeration of view instances: [M] (paper Section 2.3), evaluated with
// the *current* meaning of every domain function — the query-time
// solvability that makes W_P views maintenance-free (Corollary 1).

#ifndef MMV_QUERY_ENUMERATE_H_
#define MMV_QUERY_ENUMERATE_H_

#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "constraint/solver.h"
#include "core/snapshot.h"
#include "core/view.h"

namespace mmv {
namespace query {

/// \brief One ground instance pred(v1, ..., vk).
struct Instance {
  Symbol pred;
  std::vector<Value> values;

  bool operator==(const Instance& other) const {
    return pred == other.pred && values == other.values;
  }
  bool operator<(const Instance& other) const;
  std::string ToString() const;
};

/// \brief Enumeration limits.
struct EnumerateOptions {
  size_t max_instances = 1000000;
  SolverOptions solver;
  /// When set, a successful read adds its solver's counters here.
  SolveStats* solve_stats = nullptr;
};

/// \brief Result of an enumeration.
struct InstanceSet {
  std::set<Instance> instances;
  /// False when an atom's solutions could not be finitely enumerated
  /// (unbounded variable domain) or max_instances was hit.
  bool complete = true;
  /// True when some instance was admitted on a deferred (undecidable-now)
  /// constraint.
  bool approximate = false;

  bool operator==(const InstanceSet& other) const {
    return instances == other.instances;
  }
};

/// \brief Enumerates the solutions of one constrained atom at the current
/// domain state.
Result<InstanceSet> EnumerateAtom(const ViewAtom& atom,
                                  DcaEvaluator* evaluator,
                                  const EnumerateOptions& options = {});

/// \brief EnumerateAtom on a caller-owned \p solver (options.solver and
/// options.solve_stats are not used). A read that enumerates several
/// atoms runs them all on one solver, so its call memo evaluates each
/// ground domain call once per read.
Result<InstanceSet> EnumerateAtomWith(const ViewAtom& atom, Solver* solver,
                                      const EnumerateOptions& options = {});

/// \brief Enumerates [M]: the union of all atoms' solutions.
Result<InstanceSet> EnumerateView(const View& view, DcaEvaluator* evaluator,
                                  const EnumerateOptions& options = {});

/// \brief Enumerates [M] against a pinned snapshot (core/snapshot.h): the
/// epoch-consistent read path that is safe WHILE maintenance mutates the
/// live view. The handle keeps the snapshot alive for the duration, so
/// callers may drop their own pin immediately after the call.
Result<InstanceSet> EnumerateView(const SnapshotHandle& snapshot,
                                  DcaEvaluator* evaluator,
                                  const EnumerateOptions& options = {});

}  // namespace query
}  // namespace mmv

#endif  // MMV_QUERY_ENUMERATE_H_
