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

/// \brief Per-phase counters of one batch application.
struct BatchStats {
  // Planner.
  size_t input_updates = 0;
  size_t coalesced_away = 0;
  // Pipeline shape.
  size_t delete_passes = 0;  ///< multi-atom StDel sweeps run
  size_t insert_passes = 0;  ///< seminaive continuations run
  size_t deletions_applied = 0;   ///< delete requests reaching StDel
  size_t insertions_applied = 0;  ///< insert requests reaching the Add pass
  // Deletion phase.
  size_t del_elements = 0;        ///< Del-set overlaps found
  size_t replacements = 0;        ///< constraint replacements (step 2 + 3)
  size_t step3_replacements = 0;  ///< support-propagated replacements only
  size_t removed_unsolvable = 0;
  // Insertion phase.
  size_t add_atoms = 0;             ///< externals appended by Add passes
  size_t insertion_pass_atoms = 0;  ///< externals + derived consequences
  // Plan / memo layer.
  int64_t plan_reorders = 0;        ///< clause-plan compiles that reordered
  int64_t probe_intersections = 0;  ///< multi-position probes taken
  int64_t plan_cache_hits = 0;      ///< plans served without compiling
  int64_t solve_epoch_flushes = 0;  ///< caller solver memo flushed because
                                    ///  the external database's epoch moved
  int64_t reject_epoch_flushes = 0;  ///< ditto for the pairwise rejection
                                     ///  memo (same validity contract)
  // Solver fast path, summed over the batch's delete and insert passes.
  // STRATEGY counters: zero with MMV_SOLVER_FASTPATH=off and excluded from
  // every byte-identity comparison (like plan_cache_hits) — the
  // work-product counters above are what the on/off differential pins.
  int64_t sat_prechecks = 0;       ///< satisfiability pre-screens run
  int64_t sat_rejects = 0;         ///< screens that refuted deterministically
  int64_t reject_cache_hits = 0;   ///< refutations served by the memo
  // Snapshot layer.
  int64_t epochs_published = 0;     ///< view epochs published to the
                                    ///  snapshot store (1 per successful
                                    ///  batch when a store is attached)
  int64_t snapshot_nodes_shared = 0;  ///< per-pred posting segments the
                                      ///  published image re-pointed at
                                      ///  the previous epoch (CoW wins)
  int64_t snapshot_nodes_copied = 0;  ///< segments the batch's dirty set
                                      ///  forced the image to materialize
  // Durability layer (filled through the BurstLog hook; all zero when no
  // log is attached).
  int64_t wal_records = 0;          ///< WAL records committed (1 per clean
                                    ///  batch when a log is attached)
  int64_t wal_bytes = 0;            ///< framed bytes those records added
  int64_t wal_syncs = 0;            ///< explicit syncs the policy forced
  int64_t checkpoints_written = 0;  ///< canonical snapshots written
  int64_t checkpoint_delta_bytes = 0;  ///< bytes of DELTA checkpoint files
                                       ///  written (zero for full images)
  int64_t recovery_replayed_bursts = 0;  ///< bursts replayed out of the
                                         ///  WAL (recovery-side only; see
                                         ///  durability::RecoveryInfo)
  // Parallel fan-out shape, summed over the batch's delete and insert
  // passes (thread-count-dependent, see FixpointStats — every counter
  // above is identical across thread counts, these are not).
  int64_t partitions_run = 0;
  int64_t partition_skipped_small = 0;
  int64_t evaluator_clones = 0;

  /// Field-wise sum — recovery accumulates one BatchStats per replayed
  /// burst into RecoveryInfo::replay_stats with this.
  BatchStats& operator+=(const BatchStats& other);
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
/// Cross-batch memos: a SolveCache passed through
/// \p options.solve_cache survives from batch to batch — ApplyBatch tags
/// it with the evaluator's catalog epoch (DcaEvaluator::StateEpoch: the
/// effective tick folded with the clock's same-tick mutation counter) and
/// flushes it only when the external database actually changed (plus once
/// at first tagging if the memo already holds pre-tag entries), the
/// read-mostly mediator's big win. A plan::PlanCache passed through
/// \p options.plan_cache likewise carries compiled clause plans across
/// batches (it revalidates against the program identity by itself); when
/// absent, one batch-local instance spans this batch's delete and insert
/// passes.
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
