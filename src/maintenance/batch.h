// Batched view maintenance: a burst of constrained-atom deletions and
// insertions is applied as a PIPELINE instead of an in-order replay (the
// paper treats single updates; real mediators receive bursts).
//
//   1. A coalescing planner normalizes the burst: duplicate inserts and
//      duplicate deletes collapse, a delete followed by a re-insert of the
//      same canonical atom drops the delete, and an insert followed by a
//      delete of the same canonical atom drops the insert. Every rule
//      preserves in-order instance semantics (see PlanBatch).
//   2. The surviving updates are grouped into maximal same-kind runs.
//      Each delete run becomes ONE multi-atom StDel pass (one marking, one
//      Del set spanning every request, one step-2/3 sweep, one prune) and
//      each insert run becomes ONE seminaive continuation seeded with all
//      surviving externals.
//
// A K-update burst therefore costs one propagation per run, not K.
// Coalescing and delete-grouping are sound because supports are unique
// derivation identities (Lemma 1): subtracting several deleted parts and
// lifting them along supports commutes, so a combined pass removes exactly
// the instances the sequential passes would.

#ifndef MMV_MAINTENANCE_BATCH_H_
#define MMV_MAINTENANCE_BATCH_H_

#include "core/snapshot.h"
#include "maintenance/insert.h"
#include "maintenance/stdel.h"

namespace mmv {
namespace maint {

/// \brief One element of an update batch.
struct Update {
  enum class Kind : uint8_t { kDelete, kInsert };
  Kind kind;
  UpdateAtom atom;

  static Update Delete(UpdateAtom a) {
    return Update{Kind::kDelete, std::move(a)};
  }
  static Update Insert(UpdateAtom a) {
    return Update{Kind::kInsert, std::move(a)};
  }
};

/// \brief The coalescing planner's output: the surviving updates in their
/// original relative order.
struct BatchPlan {
  std::vector<Update> ops;
  size_t input_updates = 0;
  size_t coalesced_away = 0;  ///< updates removed by the planner
};

/// \brief Normalizes a burst without changing its in-order semantics.
/// Updates are keyed by canonical constrained-atom string
/// (variable-renaming-insensitive); the rules are deliberately conservative
/// — an update is only dropped when the surrounding updates provably cannot
/// observe the difference:
///
///   - a duplicate INSERT is dropped when no delete (of any predicate) was
///     kept in between: its instances are still covered, so its Add set is
///     empty and dropping it is exact. (A delete of any predicate can strip
///     derived coverage the first insert relied on.)
///   - a duplicate DELETE is dropped when no insert (of any predicate) was
///     kept in between: there is nothing left to delete. (An insert of any
///     predicate can re-derive the deleted instances as consequences.)
///   - DELETE k ... INSERT k: the delete is dropped when only inserts were
///     kept in between AND k's predicate participates in no non-fact
///     clause of \p program (neither as head nor as body atom) — deleting
///     and re-asserting a purely leaf-level atom nets to asserting it.
///     For a rule participant the pair is kept: a derived k sequentially
///     swaps derived coverage for an independent external support (a later
///     ancestor deletion observes the difference), and a body-predicate
///     k's re-insert re-derives its descendants, resurrecting derived
///     atoms deleted earlier (in this burst or in any previous
///     maintenance of the view).
///   - INSERT k ... DELETE k: the insert is dropped when no insert was kept
///     in between — the delete wipes the inserted instances and all their
///     consequences anyway. (An intervening insert's Add set could have
///     been emptied by coverage the dropped insert provided.)
BatchPlan PlanBatch(const Program& program,
                    const std::vector<Update>& updates);

struct BatchStats;

/// \brief Write-ahead durability hook of ApplyBatch (implemented by
/// durability::DurableLog; maintenance knows only this seam).
///
/// Protocol per batch: ApplyBatch calls LogBurst with the EXACT requested
/// burst before touching the view (log-ahead-of-apply — a logging failure
/// aborts the batch with the view untouched). After the burst fully
/// applied it calls CommitBurst (which makes the record durable per the
/// log's sync policy and may write a checkpoint of \p view); if any
/// maintenance pass failed it calls AbortBurst instead, so a failed batch
/// leaves NO record — recovery replays exactly the cleanly applied
/// prefix, matching the snapshot layer's failure-atomicity contract. A
/// crash mid-apply leaves the logged record behind on purpose: replay
/// through the same pipeline reconstructs the interrupted batch.
class BurstLog {
 public:
  virtual ~BurstLog() = default;
  virtual Status LogBurst(const std::vector<Update>& updates) = 0;
  /// Commits the pending record. \p image is the post-batch immutable
  /// image (the SAME extraction the snapshot store publishes, so the
  /// checkpoint writer never deep-reads the live view, and consecutive
  /// images diff into delta checkpoints by segment pointer identity).
  /// Adds this batch's wal_records/wal_bytes/wal_syncs/
  /// checkpoints_written/checkpoint_delta_bytes contributions to \p stats
  /// (never null).
  virtual Status CommitBurst(const SnapshotImageHandle& image,
                             BatchStats* stats) = 0;
  virtual void AbortBurst() = 0;
};

/// \brief Per-phase counters of one batch application (declared in
/// core/counters.h). Recovery sums one per replayed burst into
/// RecoveryInfo::replay_stats with the generated operator+=.
struct BatchStats {
  MMV_COUNTERS(BatchStats, MMV_BATCH_COUNTERS)
};

/// \brief Applies \p updates to \p view through the coalescing pipeline
/// (duplicate-semantics view, as required by StDel). Instance-equivalent to
/// ApplyUpdatesSequential on the same burst.
///
/// On error the view is left valid but partially maintained — and possibly
/// emptied, if an insertion continuation failed mid-run (see
/// ContinueFixpoint). Callers needing failure atomicity should apply the
/// batch to a copy. An insertion continuation truncated by
/// \p options.max_atoms / max_iterations is an error too
/// (ResourceExhausted): the burst is aborted in the log and not published.
/// Under fan-out (options.num_threads > 1) the budget is checked against
/// pre-dedup staged atoms, so a burst whose closure a one-thread run fits
/// into max_atoms can fail here at a higher thread count.
///
/// \p ext_support_counter persists external-fact support numbering across
/// batches on the same view; when null, a fresh counter is seeded below the
/// smallest clause number found anywhere in the view's support trees
/// (external leaves included), so supports stay collision-free.
///
/// Memos: a SolveCache passed through \p options.solver.cache is shared by
/// every delete and insert pass of the batch; absent one, each pass keeps
/// its own. Like any SolveCache it holds for one external-database state
/// only (see solve_cache.h): a caller that keeps it across batches drops
/// or clears it whenever the evaluator's state moves. Domain calls need no
/// caller memo — each pass's Solver keeps its own epoch-tagged call memo.
/// A plan::PlanCache passed through \p options.plan_cache carries
/// compiled clause plans across batches (it revalidates against the
/// program identity by itself); when absent, one batch-local instance
/// spans this batch's delete and insert passes.
///
/// Snapshot publication: when \p snapshots is non-null, ONE new view epoch
/// is published there after the whole burst applied cleanly (the epoch
/// publication point for concurrent readers — see core/snapshot.h). On
/// error nothing is published, so pinned readers keep serving the
/// pre-batch epoch and never observe the partially maintained view.
///
/// Durability: when \p log is non-null the burst is journaled
/// log-ahead-of-apply (see BurstLog): the record is appended BEFORE the
/// first maintenance pass, committed durable after the whole burst
/// applied, and rolled back if any pass failed. Commit precedes snapshot
/// publication, so a reader can never pin an epoch the log might still
/// lose. IO failures are loud: a LogBurst failure aborts the batch with
/// the view untouched; a CommitBurst failure is returned after the view
/// mutated but before the epoch published (the live view is ahead of both
/// the log and the readers — callers should treat the session as
/// poisoned, recover, and retry).
Status ApplyBatch(const Program& program, View* view,
                  const std::vector<Update>& updates, DcaEvaluator* evaluator,
                  const FixpointOptions& options = {},
                  BatchStats* stats = nullptr,
                  int* ext_support_counter = nullptr,
                  SnapshotStore* snapshots = nullptr,
                  BurstLog* log = nullptr);

/// \brief Replays \p updates one at a time in order (no coalescing, one
/// StDel or insertion fixpoint per update). This is the paper's
/// single-update regime — kept as the differential-testing oracle and the
/// benchmark baseline for ApplyBatch. A truncated insertion fails with
/// ResourceExhausted, as in ApplyBatch.
Status ApplyUpdatesSequential(const Program& program, View* view,
                              const std::vector<Update>& updates,
                              DcaEvaluator* evaluator,
                              const FixpointOptions& options = {},
                              BatchStats* stats = nullptr,
                              int* ext_support_counter = nullptr);

/// \brief The duplicate-freeness condition of Algorithm 1 (Section 3.1):
/// for all distinct atoms A(X1) <- phi1, A(X2) <- phi2 of the same
/// predicate, [A <- phi1] and [A <- phi2] are disjoint. Decided by pairwise
/// overlap solvability; conservative under deferred constraints (reports
/// "not duplicate-free" when overlap cannot be ruled out).
Result<bool> IsDuplicateFree(const View& view, DcaEvaluator* evaluator);

}  // namespace maint
}  // namespace mmv

#endif  // MMV_MAINTENANCE_BATCH_H_
