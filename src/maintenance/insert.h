// Algorithm 3: constrained-atom insertion (paper Section 3.2).
//
// The Add set (the requested instances minus everything already present) is
// unfolded through the program: P_ADD_{k+1} extends P_ADD_k with every
// derivation using at least one P_ADD body atom (the rest drawn from the
// view). The new view is M union P_ADD — this is exactly a seminaive
// continuation of the fixpoint with Add as the delta.

#ifndef MMV_MAINTENANCE_INSERT_H_
#define MMV_MAINTENANCE_INSERT_H_

#include "core/fixpoint.h"
#include "maintenance/del_add.h"

namespace mmv {
namespace maint {

/// \brief Counters of one insertion run.
struct InsertStats {
  size_t add_atoms = 0;          ///< size of the initial Add set
  size_t atoms_added = 0;        ///< total new atoms (Add + consequences)
  int64_t unfold_derivations = 0;
  int64_t index_probes = 0;      ///< join-pipeline counters aggregated
  int64_t ground_rejects = 0;    ///  across the run's seminaive
  int64_t rename_skipped = 0;    ///  continuations (kIndexed only)
  int64_t plan_reorders = 0;     ///< plan-layer counters, aggregated the
  int64_t probe_intersections = 0;  ///  same way (see FixpointStats)
  int64_t plan_cache_hits = 0;
  // Parallel fan-out shape (thread-count-dependent, see FixpointStats).
  int64_t partitions_run = 0;
  int64_t partition_skipped_small = 0;
  int64_t evaluator_clones = 0;
  bool truncated = false;
  SolveStats solver;             ///< BuildAdd diffing solver counters
  SolveStats unfold_solver;      ///< continuation (fixpoint) solver counters
};

/// \brief Inserts the request's instances into \p view in place
/// (Theorem 3: the result is instance-equivalent to the fixpoint of the
/// insertion rewrite).
///
/// \p ext_support_counter disambiguates supports of externally inserted
/// atoms (they have no deriving clause); pass a counter that persists
/// across insertions into the same view.
Status InsertAtom(const Program& program, View* view,
                  const UpdateAtom& request, DcaEvaluator* evaluator,
                  const FixpointOptions& options, InsertStats* stats,
                  int* ext_support_counter);

/// \brief Inserts ALL requests' instances in one pass: the Add sets are
/// built request by request (each seeing the externals appended before it,
/// so duplicate requests collapse to nothing), then ONE seminaive
/// continuation closes the view over all surviving externals at once.
///
/// Instance-equivalent to one-at-a-time insertion — the continuation
/// derives exactly the consequences the per-request fixpoints would — but a
/// K-request burst costs one propagation instead of K.
Status InsertBatch(const Program& program, View* view,
                   const std::vector<UpdateAtom>& requests,
                   DcaEvaluator* evaluator, const FixpointOptions& options,
                   InsertStats* stats, int* ext_support_counter);

}  // namespace maint
}  // namespace mmv

#endif  // MMV_MAINTENANCE_INSERT_H_
