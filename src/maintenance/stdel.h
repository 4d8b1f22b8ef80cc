// Algorithm 2: the Straight Delete (StDel) algorithm (paper Section 3.1.2).
//
// Every view atom carries a support — its derivation tree of clause numbers
// (Lemma 1: supports are unique identities under duplicate semantics).
// Deletion propagates along supports:
//
//   step 2: atoms overlapping the Del set get their constraint restricted
//           (phi ^ not(delta)) and the pair (delta, spt(F)) enters P_OUT;
//   step 3: any atom whose support has a *direct child* matching a P_OUT
//           pair gets the lifted deleted part subtracted, generating a new
//           pair — until no replacements happen;
//   step 4: atoms whose constraints became unsolvable are removed.
//
// No rederivation step, no duplicate elimination: this is the paper's
// improvement over (Extended) DRed and over the counting algorithm.

#ifndef MMV_MAINTENANCE_STDEL_H_
#define MMV_MAINTENANCE_STDEL_H_

#include "core/fixpoint.h"
#include "maintenance/del_add.h"

namespace mmv {

namespace plan {
class PlanCache;
}  // namespace plan

namespace maint {

/// \brief Counters of one StDel run (declared in core/counters.h).
struct StDelStats {
  MMV_COUNTERS(StDelStats, MMV_STDEL_COUNTERS)

  /// \brief Replacements generated by support propagation alone.
  size_t step3_replacements() const {
    return replacements - step2_replacements;
  }
};

/// \brief Deletes the request's instances from \p view in place.
///
/// Requires a view materialized with DupSemantics::kDuplicate (supports are
/// the propagation index; Lemma 1 guarantees uniqueness). Correct for
/// recursive and non-recursive programs alike (Theorem 2).
Status DeleteStDel(const Program& program, View* view,
                   const UpdateAtom& request, DcaEvaluator* evaluator,
                   const SolverOptions& solver_options = {},
                   StDelStats* stats = nullptr);

/// \brief Deletes the instances of ALL requests from \p view in one pass:
/// one step-1 marking, one Del set spanning every request (each built
/// against the pre-deletion constraints), one step-2/step-3 replacement
/// sweep and one step-4 prune.
///
/// Instance-equivalent to applying the requests one at a time — subtraction
/// commutes, and step 3 lifts deleted parts against the ORIGINAL sibling
/// constraints either way — but a K-request burst costs one propagation
/// pass (one marking, one constraint snapshot, one prune) instead of K.
///
/// \p plans is the shared compiled-clause-plan cache: step 3 renames the
/// deriving clause once per visited parent, and the plan's precomputed
/// variable list (ClausePlan::clause_vars) skips the per-visit clause walk.
/// Pass the per-program cache the fixpoint/insertion layers use (ApplyBatch
/// threads one across its passes); null uses a run-local cache.
Status DeleteStDelBatch(const Program& program, View* view,
                        const std::vector<UpdateAtom>& requests,
                        DcaEvaluator* evaluator,
                        const SolverOptions& solver_options = {},
                        StDelStats* stats = nullptr,
                        plan::PlanCache* plans = nullptr);

}  // namespace maint
}  // namespace mmv

#endif  // MMV_MAINTENANCE_STDEL_H_
