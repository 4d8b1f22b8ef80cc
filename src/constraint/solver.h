// Constraint satisfiability (the paper's "solvable" test).
//
// A conjunction of primitives is decided by union-find equality propagation
// plus a per-equivalence-class domain (bound value / numeric interval /
// finite candidate set from evaluated DCA-atoms / exclusion set). Negated
// blocks not(c1 ^ ... ^ ck) are decided by expanding into the disjunction of
// negated primitives and searching the (small) choice space.
//
// DCA-atoms are evaluated through a DcaEvaluator when their arguments are
// ground; otherwise they are *deferred*: the constraint is reported
// kSatDeferred ("satisfiable as far as decidable now"), matching the W_P
// philosophy of postponing solvability to query time (paper Section 4).

#ifndef MMV_CONSTRAINT_SOLVER_H_
#define MMV_CONSTRAINT_SOLVER_H_

#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "constraint/constraint.h"
#include "constraint/dca_call_key.h"
#include "constraint/substitution.h"
#include "core/counters.h"

namespace mmv {

/// \brief A (possibly unbounded) numeric interval with open/closed ends.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_strict = false;
  bool hi_strict = false;
  bool integral = false;  ///< domain restricted to integers

  /// \brief The full real line.
  static Interval All() { return Interval(); }

  /// \brief [v, v].
  static Interval Point(double v) {
    Interval i;
    i.lo = i.hi = v;
    return i;
  }

  /// \brief True iff no double satisfies the interval.
  bool Empty() const;

  /// \brief True iff \p v lies inside.
  bool Contains(double v) const;

  /// \brief Intersects in place; returns false when result is empty.
  bool IntersectWith(const Interval& other);

  /// \brief True iff this is (-inf, +inf) without integrality.
  bool Unbounded() const {
    return !integral && lo == -std::numeric_limits<double>::infinity() &&
           hi == std::numeric_limits<double>::infinity();
  }

  /// \brief Number of integers inside, or nullopt when infinite.
  /// Only meaningful when integral.
  std::optional<int64_t> IntegralCount() const;

  std::string ToString() const;
};

/// \brief Result kind of evaluating a DCA-atom's domain call.
enum class DcaResultKind : uint8_t {
  kFinite,    ///< an explicit finite set of values
  kInterval,  ///< a symbolic (possibly infinite) numeric interval
  kUnknown,   ///< the domain cannot decide now -> defer
};

/// \brief Set of values denoted by a domain call.
struct DcaResult {
  DcaResultKind kind = DcaResultKind::kUnknown;
  std::vector<Value> values;  ///< kFinite
  Interval interval;          ///< kInterval

  static DcaResult Finite(std::vector<Value> vs) {
    DcaResult r;
    r.kind = DcaResultKind::kFinite;
    r.values = std::move(vs);
    return r;
  }
  static DcaResult Of(Interval i) {
    DcaResult r;
    r.kind = DcaResultKind::kInterval;
    r.interval = i;
    return r;
  }
  static DcaResult Unknown() { return DcaResult(); }
};

/// \brief Evaluates domain calls; implemented by domain::DomainManager.
///
/// \p args are the call's arguments with variables already replaced by their
/// bound values (all ground).
class DcaEvaluator {
 public:
  DcaEvaluator();
  /// Copies get a FRESH identity: a copied evaluator is a distinct state
  /// source as far as the call memo is concerned (mirrors Program).
  DcaEvaluator(const DcaEvaluator& other);
  DcaEvaluator& operator=(const DcaEvaluator& other);
  virtual ~DcaEvaluator() = default;
  virtual Result<DcaResult> Evaluate(const std::string& domain,
                                     const std::string& function,
                                     const std::vector<Value>& args) = 0;

  /// \brief Process-unique identity of this evaluator instance. Epoch
  /// values (StateEpoch) are only comparable BETWEEN calls on one
  /// evaluator; the Solver's call memo pairs the epoch with this id so two
  /// different evaluators that happen to report the same epoch value are
  /// never confused.
  uint64_t instance_id() const { return instance_id_; }

  /// \brief Tag of the external state Evaluate() reads: two calls at the
  /// same epoch see the same function meanings. It gates every Solver's
  /// call memo — the one epoch-tagged memo — which keeps Evaluate()
  /// results across Solve/Analyze calls and checks the epoch once per
  /// call: an evaluator whose answers change MUST move its epoch, or a
  /// long-lived Solver keeps serving the old answers.
  /// Epochs are opaque — compare them only for equality; they are not
  /// monotone (pinning evaluation to a historical tick legitimately moves
  /// the epoch backward). Stateless evaluators keep the default constant
  /// epoch; DomainManager reports its effective tick combined with the
  /// clock's same-tick mutation counter.
  virtual int64_t StateEpoch() const { return 0; }

  /// \brief True when concurrent Evaluate() and StateEpoch() calls are
  /// safe WITHOUT external serialization (each worker's Solver reads the
  /// epoch for its call memo), provided no writer mutates the backing state
  /// for the duration (the same single-writer contract StateEpoch already
  /// polices: parallel passes capture the epoch up front and fail loudly
  /// on a mismatch). Parallel fixpoint rounds fan out only over an
  /// evaluator reporting true; defaults to false, which runs those rounds
  /// on one thread. DomainManager reports true when every registered
  /// domain is a pure reader.
  virtual bool ConcurrentReadSafe() const { return false; }

 private:
  uint64_t instance_id_;
};

/// \brief Outcome of a satisfiability check.
enum class SolveOutcome : uint8_t {
  kUnsat,        ///< provably no solution
  kSat,          ///< provably has a solution
  kSatDeferred,  ///< no contradiction; some literals deferred (treated sat)
  kError,        ///< evaluator failure; see Solver::last_status()
};

/// \brief True for kSat and kSatDeferred (the paper's "solvable").
inline bool IsSolvable(SolveOutcome o) {
  return o == SolveOutcome::kSat || o == SolveOutcome::kSatDeferred;
}

/// \brief Counters for benchmarking the solver (E8); declared in
/// core/counters.h.
struct SolveStats {
  MMV_COUNTERS(SolveStats, MMV_SOLVE_COUNTERS)
};

/// \brief Description of one variable equivalence class after propagation,
/// used by query::Enumerate to drive solution enumeration.
struct VarDomainInfo {
  std::vector<VarId> members;            ///< variables in the class
  std::optional<Value> bound;            ///< forced single value
  std::optional<std::vector<Value>> candidates;  ///< finite candidate set
  Interval interval;                     ///< numeric restriction
  std::vector<Value> excluded;           ///< values ruled out by !=
  bool touched_by_deferred = false;      ///< a deferred literal mentions it
};

/// \brief Tuning knobs for the solver.
struct SolverOptions {
  /// Upper bound on choice combinations (not-blocks plus candidate splits)
  /// explored per Solve; exhausted budgets report kSatDeferred.
  int64_t max_choice_branches = 100000;
  /// When false, DCA-atoms are never evaluated (pure W_P syntactic mode).
  bool evaluate_dca = true;
  /// Satisfiability fast path: run the linear TestSatisfiability screen
  /// before the full decision procedure (and let the planned executor
  /// screen whole join candidates via RejectJoin before assembling their
  /// constraints). Sound for rejection only — the screen refutes a
  /// constraint only when the full Solve would return kUnsat — so every
  /// outcome, view and work-product counter is identical with the flag
  /// off; off ($MMV_SOLVER_FASTPATH=off) keeps the slow path as the
  /// differential oracle.
  bool fastpath = true;
};

/// \brief Satisfiability engine for constraints.
///
/// Not thread-safe; create one per thread. The evaluator may be null, in
/// which case every DCA-atom is deferred.
///
/// Call memo: every ground domain call the solver evaluates is kept,
/// keyed by its exact DcaCallKey, for the Solver's lifetime — across
/// Solve and Analyze calls and every case-split branch — so one call is
/// evaluated once per evaluator state. The memo is tagged with the
/// evaluator's (instance_id, StateEpoch) and checked at each Solve /
/// Analyze call's first DCA evaluation (a DCA-free call never reads the
/// epoch); a changed tag drops it. Evaluator errors are never kept, and a
/// memo that reaches kMaxDcaMemoEntries starts over.
class Solver {
 public:
  explicit Solver(DcaEvaluator* evaluator, SolverOptions options = {})
      : evaluator_(evaluator), options_(options) {}

  /// \brief Decides satisfiability of \p c: the trivial checks, then
  /// (with options.fastpath, the default) the TestSatisfiability screen,
  /// whose rejection returns kUnsat at once, then the decision procedure.
  /// Domain calls go through the call memo described above.
  SolveOutcome Solve(const Constraint& c);

  /// \brief Linear may-satisfiability screen, sound for REJECTION only:
  /// kUnsat is returned only when the full Solve would also return kUnsat
  /// (bottom/top literals, ground comparisons, trivially contradictory
  /// conjuncts, empty interval screens; DCA literals are left to the full
  /// solver). Anything it cannot refute is kSatDeferred ("may be
  /// satisfiable": no verdict), except the trivially-true constraint,
  /// which is kSat. No union-find, no allocation beyond amortized member
  /// scratch, negated blocks ignored (the positive part alone refuting
  /// suffices). Requires
  /// options.max_choice_branches >= 1 to reject — a budget-starved full
  /// Solve reports kSatDeferred for everything, and the screen must never
  /// be stricter than its oracle.
  SolveOutcome TestSatisfiability(const Constraint& c);

  /// \brief One body position of a join candidate, pre-rename: the chosen
  /// instance's arguments and constraint, and the clause body atom's
  /// argument pattern they will be equated with.
  struct JoinComponent {
    const TermVec* inst_args = nullptr;
    const Constraint* inst_constraint = nullptr;
    const TermVec* pattern = nullptr;
  };

  /// \brief Screens a whole join candidate BEFORE clause rename and
  /// constraint assembly: the assembled constraint would be
  /// clause_constraint ^ (each instance constraint, standardized apart) ^
  /// (inst_args[k] = pattern[k] for every position) — RejectJoin runs the
  /// TestSatisfiability screens over exactly that conjunction, keeping
  /// each component's variables in a private scope to model the fresh
  /// renaming. Returns true only when the assembled constraint is
  /// provably unsatisfiable (the executor then prunes without renaming,
  /// simplifying or solving); false is no verdict. Components with an
  /// arity mismatch yield no verdict — the slow path owns that error.
  bool RejectJoin(const Constraint& clause_constraint,
                  const std::vector<JoinComponent>& body);

  /// \brief Propagates the positive primitives of \p c and reports the
  /// per-class domains (for enumeration). Fails when the positive part is
  /// already unsatisfiable.
  Result<std::vector<VarDomainInfo>> Analyze(const Constraint& c);

  /// \brief Last evaluator error (only meaningful after kError).
  const Status& last_status() const { return last_status_; }

  const SolveStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SolveStats(); }

  /// \brief Bound on the call memo's entries.
  static constexpr size_t kMaxDcaMemoEntries = 1u << 16;

 private:
  class ConjunctionState;

  /// \brief One memoized call result. A finite result is stored once,
  /// sorted and deduplicated (std::set's equivalence), and shared by
  /// every class whose candidates it is.
  struct DcaMemoEntry {
    DcaResultKind kind = DcaResultKind::kUnknown;
    std::shared_ptr<const std::vector<Value>> values;  ///< kFinite
    Interval interval;                                 ///< kInterval
  };

  SolveOutcome SolveConjunctionWithSplits(std::vector<Primitive>* prims,
                                          int64_t* budget);

  /// \brief The result of the call in dca_probe_: from the memo, or
  /// evaluated and memoized. Null on an evaluator error (last_status_
  /// holds it). The entry stays valid until the next EvaluateDca.
  const DcaMemoEntry* EvaluateDca();

  // ---- TestSatisfiability / RejectJoin internals ----
  // Variables are keyed by (scope << 32) | uint32(var): scope 0 is the
  // clause / the screened constraint, scope i+1 is join component i —
  // modelling the fresh renaming that standardizes components apart.
  bool ScreenEq(const Constraint& c, uint32_t scope);
  bool ScreenEqPair(uint32_t scope_l, const Term& l, uint32_t scope_r,
                    const Term& r);
  bool ScreenRest(const Constraint& c, uint32_t scope);
  const Value* ScreenResolve(uint32_t scope, const Term& t) const;
  void ScreenReset();

  DcaEvaluator* evaluator_;
  SolverOptions options_;
  Status last_status_;
  SolveStats stats_;

  // Call memo (see the class comment). dca_memo_checked_ is cleared at
  // each Solve / Analyze entry and set once the tag has been compared.
  std::unordered_map<DcaCallKey, DcaMemoEntry, DcaCallKey::Hash> dca_memo_;
  bool dca_memo_tagged_ = false;
  bool dca_memo_checked_ = false;
  uint64_t dca_memo_source_ = 0;
  int64_t dca_memo_epoch_ = 0;
  DcaCallKey dca_probe_;  // the call being looked up

  // Screen scratch (amortized allocation-free across calls). Bindings map
  // packed (scope, var) keys to values owned by the screened terms, which
  // outlive the screen call.
  std::unordered_map<uint64_t, const Value*> screen_bound_;
  std::unordered_map<uint64_t, Interval> screen_intervals_;
};

}  // namespace mmv

#endif  // MMV_CONSTRAINT_SOLVER_H_
