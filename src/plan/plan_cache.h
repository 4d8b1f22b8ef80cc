// PlanCache: the per-program store of compiled clause plans, shared by the
// fixpoint engine (materialization and every seminaive continuation),
// insertion batches, StDel's step-3 re-derivation checks and whole-batch
// maintenance pipelines.
//
// Validity: plans are keyed by clause number and tagged with the owning
// Program's identity (see Program::id() — copies get fresh identities), so
// a cache handed a different program flushes itself instead of serving
// stale plans. Appending clauses to the same program is safe — existing
// plans stay valid, new clauses compile on demand.
//
// Adaptivity: the executor reports per-clause candidate / accept counters
// through Feedback(); once a clause has accumulated enough evidence its
// plan is recompiled with the observed selectivities as tie-breakers, and
// replaced only if the order actually changed. Handed-out plans are
// shared_ptr<const>, so an executor mid-round keeps a consistent plan even
// if the cache swaps in a refined one.
//
// Determinism: under duplicate semantics results are identical whatever
// the enumeration order, so cache history (including adaptive recompiles
// triggered by earlier runs sharing the cache) never affects outcomes.
// Under SET semantics the canonical atom set is likewise order-independent,
// but the representative support retained for a deduped atom follows
// enumeration order (DupSemantics::kSet) — for bit-reproducible
// set-semantics supports use a fresh cache per run.

#ifndef MMV_PLAN_PLAN_CACHE_H_
#define MMV_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/program.h"
#include "plan/clause_plan.h"
#include "plan/strata.h"

namespace mmv {
namespace plan {

/// \brief Counters of one cache lifetime (monotone; consumers snapshot and
/// diff to attribute activity to one run).
struct PlanCacheStats {
  int64_t compiles = 0;
  /// Compilations whose chosen execution order differed from the clause's
  /// written body order (initial compiles and adaptive recompiles alike).
  int64_t reorders = 0;
  int64_t cache_hits = 0;
  int64_t invalidations = 0;  ///< whole-cache flushes on program change
  int64_t refinements = 0;    ///< adaptive recompiles that changed an order
};

/// \brief Per-program memo of compiled ClausePlans.
class PlanCache {
 public:
  /// Feedback threshold: a clause is reconsidered for recompilation after
  /// this many candidates have been observed since its last compile. The
  /// per-clause threshold backs off (x4, up to kMaxRecompileThreshold)
  /// each time a recompile changes nothing, so settled clauses converge
  /// to near-zero recompile overhead.
  static constexpr int64_t kRecompileCandidates = 256;
  static constexpr int64_t kMaxRecompileThreshold = int64_t{1} << 40;

  /// \brief The plan for \p clause (which must belong to \p program),
  /// compiling on first use and recompiling when accumulated feedback
  /// warrants. Flushes the whole cache if \p program is not the program
  /// the cache was filled from.
  std::shared_ptr<const ClausePlan> PlanFor(const Program& program,
                                            const Clause& clause);

  /// \brief The strata decomposition of \p program (see strata.h), computed
  /// once per program identity and cached alongside the plans. Shares the
  /// plans' validity rule: a different program flushes the whole cache,
  /// appending clauses to the same program recomputes the strata only
  /// (clause plans stay valid; the dependency graph may have changed).
  std::shared_ptr<const StrataInfo> StrataFor(const Program& program);

  /// \brief Reports one executor pass over clause \p clause_number:
  /// per DECLARED body position, how many candidate atoms were unified
  /// against and how many survived. Sizes must match the clause's body.
  void Feedback(int clause_number, const std::vector<int64_t>& candidates,
                const std::vector<int64_t>& accepted);

  const PlanCacheStats& stats() const { return stats_; }
  size_t size() const { return plans_.size(); }

  /// \brief Drops every plan and all accumulated feedback (stats survive).
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const ClausePlan> plan;
    bool dirty = false;  ///< enough feedback accumulated to reconsider
  };
  struct Observed {
    std::vector<int64_t> candidates;
    std::vector<int64_t> accepted;
    int64_t since_compile = 0;
    /// Evidence needed before the next recompile is considered. Backs off
    /// (x4) every time a recompile leaves the orders unchanged — once the
    /// accumulated ratios have settled they can no longer move the
    /// tie-breaks, so perpetual every-256-candidates recompiles would be
    /// pure waste on hot clauses. A recompile that DOES change the order
    /// resets the threshold.
    int64_t threshold = kRecompileCandidates;
  };

  std::vector<double> AcceptRatios(int clause_number, size_t body_size) const;

  /// Flushes the cache when \p program is not the one it was filled from.
  void Revalidate(const Program& program);

  uint64_t program_id_ = 0;
  bool have_program_ = false;
  std::unordered_map<int, Entry> plans_;
  std::unordered_map<int, Observed> observed_;
  std::shared_ptr<const StrataInfo> strata_;
  size_t strata_clauses_ = 0;  ///< program size the strata were built from
  PlanCacheStats stats_;
};

}  // namespace plan
}  // namespace mmv

#endif  // MMV_PLAN_PLAN_CACHE_H_
