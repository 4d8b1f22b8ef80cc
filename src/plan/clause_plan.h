// Clause plans: each core::Clause is compiled ONCE into an executable join
// plan — body atoms ordered by a selectivity cost model, per-step probe
// descriptors naming the argument positions that can hit the view's
// arg-value index, and dense variable-binding slots — so the fixpoint
// engine, insertion continuations and StDel's step-3 re-derivation checks
// all thread an incremental substitution through the clause without
// re-inspecting atom shapes per candidate.
//
// Ordering: for every seminaive pivot the plan runs
// the pivot atom first (its candidate window is the delta — the only window
// the engine knows to be small), then greedily the atom with the most
// statically ground argument positions (clause constants count double: they
// are ground unconditionally, where a slot bound by an earlier atom is only
// ground when that instance argument was). Ties break toward the lower
// observed accept ratio (adaptive feedback from the executor's candidate /
// accept counters, see PlanCache::Feedback) and then toward declared order.
// The executor weighs every ground probe position of a step and enumerates
// the smallest arg-value bucket.
//
// Plans are immutable once built and handed out as shared_ptr<const>, so a
// future parallel-strata executor can share one PlanCache across threads
// with per-round read-only access.

#ifndef MMV_PLAN_CLAUSE_PLAN_H_
#define MMV_PLAN_CLAUSE_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/clause.h"

namespace mmv {
namespace plan {

/// \brief Pattern-term classification of one body/head argument: a clause
/// constant, or a variable mapped to a dense binding slot.
struct PlanArg {
  bool is_const = false;
  Value value;    // when is_const
  int slot = -1;  // binding slot when a variable
};

/// \brief One body atom in execution order.
struct PlanStep {
  /// Index into the clause's DECLARED body (and into ClausePlan::body).
  uint16_t decl_pos = 0;
  /// Argument positions that can be ground when this step runs — clause
  /// constants, plus variables whose slot some earlier step of THIS order
  /// may have bound. Ascending; a superset of the runtime-ground set, so
  /// the executor only checks these instead of every position.
  std::vector<uint16_t> probe_positions;
};

/// \brief The execution order for one seminaive pivot position.
struct PivotOrder {
  std::vector<PlanStep> steps;
  bool reordered = false;  ///< differs from the declared body order
};

/// \brief A compiled clause: patterns in declared order plus one execution
/// order per seminaive pivot.
struct ClausePlan {
  int clause_number = -1;
  std::vector<std::vector<PlanArg>> body;  ///< declared order, per position
  std::vector<PlanArg> head;
  bool constraint_true = false;
  int num_slots = 0;
  /// One execution order per seminaive pivot (empty for facts); each one
  /// starts at its pivot (steps[0].decl_pos == pivot).
  std::vector<PivotOrder> orders;
  bool reordered = false;          ///< any pivot order differs from declared

  /// \brief The execution order for seminaive pivot \p pivot.
  const PivotOrder& order(size_t pivot) const { return orders[pivot]; }
  /// The clause's variables in first-appearance order — precomputed so
  /// maintenance passes (StDel step 3 renames the clause once per visited
  /// parent) can standardize apart without re-walking the clause.
  std::vector<VarId> clause_vars;
};

/// \brief Compiles \p clause. \p accept_ratio, when non-null,
/// holds the executor-observed fraction of candidates surviving ground
/// unification per DECLARED body position (adaptive selectivity; lower =
/// more selective); it must have one entry per body atom.
ClausePlan CompileClause(const Clause& clause,
                         const std::vector<double>* accept_ratio = nullptr);

}  // namespace plan
}  // namespace mmv

#endif  // MMV_PLAN_CLAUSE_PLAN_H_
