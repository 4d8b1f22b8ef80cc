// The fixpoint engine: T_P (Gabbrielli–Levi, paper Section 2.3) and W_P
// (paper Section 4).
//
// T_P(I) derives, for every clause A(t0) <- c0 || A1(t1),...,An(tn) and every
// tuple of (variable-disjoint renamings of) atoms Ai(Xi) <- ci from I, the
// atom A(t0) <- c0 ^ c1 ^ ... ^ cn ^ {Xi = ti}, *provided the constraint is
// solvable*. W_P is identical except the solvability requirement is dropped,
// making the materialized view a purely syntactic construct whose DCA-atoms
// are re-interpreted at query time (Theorem 4 / Corollary 1).
//
// Both operators use duplicate semantics (Mumick): one view atom per
// derivation, identified by its support (Lemma 1). kSet mode instead
// deduplicates by canonicalized constraint — the duplicate-free views for
// which Extended DRed is designed.
//
// Termination: with T_P, acyclic data yields finitely many derivations. W_P
// does not prune unsatisfiable joins, so *recursive* programs generally
// diverge under it (the paper tacitly targets non-recursive mediators for
// W_P); max_iterations / max_atoms bound the damage and are reported via
// FixpointStats::truncated.

#ifndef MMV_CORE_FIXPOINT_H_
#define MMV_CORE_FIXPOINT_H_

#include <string_view>

#include "common/result.h"
#include "constraint/solver.h"
#include "core/program.h"
#include "core/view.h"

namespace mmv {

namespace plan {
class PlanCache;
}  // namespace plan

/// \brief Which fixpoint operator to run.
enum class OperatorKind : uint8_t {
  kTp,  ///< Gabbrielli–Levi: constraints must be solvable
  kWp,  ///< paper's Section 4 operator: no solvability requirement
};

/// \brief Duplicate handling of the materialized view.
enum class DupSemantics : uint8_t {
  kDuplicate,  ///< one atom per derivation (dedup by support)
  /// Dedup by canonicalized constrained atom. Only the canonical atom
  /// set is contractual: the representative derivation retained for a
  /// deduped atom (its support) is the first one enumerated, which
  /// depends on the join strategy and plan order. Set-semantics views
  /// are not support-maintained — StDel requires kDuplicate.
  kSet,
};

/// \brief Body-join strategy of the engine.
enum class JoinMode : uint8_t {
  /// The legacy nested-loop join: enumerate the full per-predicate cross
  /// product, build every candidate's constraint, let simplify/solve reject
  /// it. Kept verbatim as the differential-testing oracle.
  kNaive,
  /// The constraint-aware pipeline: probe the view's arg-value index when a
  /// body argument is already ground, thread an incremental substitution
  /// through the join so ground mismatches reject candidates at position k
  /// before positions k+1..n are enumerated, hoist the seminaive window
  /// computation out of the recursion, and skip the clause rename entirely
  /// for fully-ground joins.
  ///
  /// Derives the same atom set as kNaive (modulo fresh-variable numbering).
  /// The engine silently falls back to kNaive when early rejection would
  /// not be behavior-preserving (simplify disabled — the only
  /// configuration in which statically contradictory joins survive into
  /// the view).
  ///
  /// Caveat for MALFORMED programs only: when one predicate holds atoms of
  /// mixed arity, kNaive fails the whole run with an arity-mismatch error
  /// while an arg-value probe may skip the short-arity atoms without
  /// seeing them; error behavior on arity-inconsistent input is
  /// unspecified under kIndexed.
  kIndexed,
};

/// \brief Materialization knobs.
struct FixpointOptions {
  OperatorKind op = OperatorKind::kTp;
  DupSemantics semantics = DupSemantics::kDuplicate;
  int max_iterations = 100;
  size_t max_atoms = 5'000'000;
  /// Simplify each derived atom's constraint (recommended; Example 5).
  /// A derived atom whose constraint is *statically* false (with simplify,
  /// X=1 ^ X=2 is) is dropped under both operators: static contradictions
  /// are time-invariant, so the drop is sound under W_P too.
  bool simplify = true;
  /// Derive the program's constrained facts in round 0. Disable for
  /// seminaive *continuations* over maintained views (Algorithm 3): the
  /// facts were derived when the view was first materialized, and blindly
  /// re-deriving them would resurrect previously deleted fact atoms.
  bool derive_facts = true;
  /// Body-join strategy; kNaive is the differential-testing oracle.
  JoinMode join_mode = JoinMode::kIndexed;
  /// Worker threads for the per-round clause passes. 1 (default) runs
  /// every round inline on the calling thread; N > 1 fans a round out
  /// along two axes: every (clause, seminaive pivot) pass is its own task,
  /// and a pivot whose frozen delta window is large enough
  /// (plan/partition.h) is split further into up to N shards — so even a
  /// single recursive clause parallelizes. Each task runs against the
  /// round's read-only delta window with a private staging sink, solver
  /// and fresh-var factory; staged atoms merge once per round in (clause,
  /// pivot, shard, enumeration) order — exactly the one-thread append
  /// order — so canonical atom sets, support multisets and the derivation
  /// counters are identical to num_threads=1 whatever the thread count.
  /// (Fresh-variable NUMBERING and the call memo's dca_evaluations may
  /// differ — the same non-contract carved out between join modes. Truncated
  /// runs — max_atoms / max_iterations — may cut off at different atoms.
  /// Fan-out checks max_atoms against pre-dedup staged atoms, so a run
  /// that fits the budget on one thread can report truncated — and
  /// maint::ApplyBatch fail with ResourceExhausted — at more threads.)
  ///
  /// Precondition for fan-out: the evaluator is null or reports
  /// DcaEvaluator::ConcurrentReadSafe(), because workers call it without
  /// serialization. With any other evaluator — e.g. a DomainManager over a
  /// domain that is not a pure reader — every round runs on one thread, as
  /// do naive-join and fallback configurations, whatever this value says.
  /// maint::ApplyBatch hands it to its insertion continuations only; its
  /// StDel delete passes run on the calling thread.
  int num_threads = 1;
  /// Optional compiled-plan cache shared across engine runs. Pass one
  /// cache through a sequence of continuations / maintenance passes so
  /// each clause compiles once per program instead of once per run; the
  /// cache revalidates against the program's identity on use. When null,
  /// the engine plans within the single run. Plans are a pure function of
  /// the clause, so sharing a cache never changes a run's output.
  plan::PlanCache* plan_cache = nullptr;
  /// Solver configuration for T_P solvability checks. solver.fastpath
  /// (default on; $MMV_SOLVER_FASTPATH=off in the benches/tests) gates the
  /// satisfiability pre-check AND the executor's pre-rename join screen —
  /// both sound for rejection only, so views, support multisets and
  /// work-product counters are byte-identical either way.
  SolverOptions solver;
};

/// \brief Instrumentation of a materialization run (declared in
/// core/counters.h).
struct FixpointStats {
  MMV_COUNTERS(FixpointStats, MMV_FIXPOINT_COUNTERS)
};

/// \brief Computes T_P^w(initial) (or W_P^w) over \p program.
///
/// \p evaluator provides DCA evaluation for T_P's solvability checks; it may
/// be null, in which case every DCA-atom defers (all joins are kept — the
/// W_P behaviour — even under kTp).
///
/// \p delta_begin marks the first atom of \p initial to treat as *new*:
/// atoms before it are assumed closed under the program already, so no
/// derivation using only those atoms is attempted. Pass 0 (default) to
/// close over the whole initial set; pass the old view size to continue a
/// fixpoint after appending new atoms (Algorithm 3's P_ADD unfolding).
Result<View> MaterializeFrom(const Program& program, View initial,
                             DcaEvaluator* evaluator,
                             const FixpointOptions& options = {},
                             FixpointStats* stats = nullptr,
                             size_t delta_begin = 0);

/// \brief Computes the materialized view T_P^w(empty set) (or W_P^w).
Result<View> Materialize(const Program& program, DcaEvaluator* evaluator,
                         const FixpointOptions& options = {},
                         FixpointStats* stats = nullptr);

/// \brief In-place seminaive continuation: closes \p view under \p program,
/// treating the atoms from \p delta_begin onward as the seed delta.
///
/// This is the batched-insertion engine (Algorithm 3 generalized to a set
/// of roots): callers append any number of delta atoms to the view, then
/// run ONE continuation instead of one fixpoint per atom. Facts are not
/// re-derived (options.derive_facts is forced off) — the view's facts were
/// derived at materialization time, and re-deriving them would resurrect
/// fact atoms deleted by earlier maintenance.
///
/// On error the view is consumed: it is left valid but unspecified
/// (typically empty), because the failed engine run owns the atoms.
/// Callers that must survive evaluator/solver failures should keep a copy
/// or rematerialize.
Status ContinueFixpoint(const Program& program, View* view,
                        DcaEvaluator* evaluator,
                        const FixpointOptions& options, FixpointStats* stats,
                        size_t delta_begin);

/// \brief Parses a join mode name: "naive" or "indexed".
/// InvalidArgument on anything else — option plumbing must fail loudly
/// instead of silently running a different engine than the caller asked
/// for.
Result<JoinMode> ParseJoinMode(std::string_view text);

/// \brief Join mode from $MMV_JOIN_MODE. Unset/empty means the default
/// (kIndexed); any other unknown value is an InvalidArgument error.
Result<JoinMode> JoinModeFromEnv();

/// \brief Parses a thread count: a positive decimal integer (at most
/// 4096). InvalidArgument on anything else — like the mode parsers, a
/// typo must fail loudly instead of silently running single-threaded.
Result<int> ParseThreads(std::string_view text);

/// \brief Thread count from $MMV_THREADS. Unset/empty means 1 (every
/// round inline); any non-numeric or non-positive value is an
/// InvalidArgument error.
Result<int> ThreadsFromEnv();

/// \brief Parses a solver fast-path mode: "on" or "off". Off keeps the
/// full decision procedure as the differential oracle.
Result<bool> ParseSolverFastpath(std::string_view text);

/// \brief Solver fast-path mode from $MMV_SOLVER_FASTPATH. Unset/empty
/// means on (the default); any other unknown value is an InvalidArgument
/// error — like the mode parsers, a typo must fail loudly instead of
/// silently benchmarking the wrong pipeline.
Result<bool> SolverFastpathFromEnv();

}  // namespace mmv

#endif  // MMV_CORE_FIXPOINT_H_
