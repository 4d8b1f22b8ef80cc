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
// Determinism: a plan is a pure function of its clause (CompileClause), so
// what a shared cache served earlier runs never changes a later run's
// enumeration order — set-semantics supports included. Handed-out plans
// are shared_ptr<const> and immutable.

#ifndef MMV_PLAN_PLAN_CACHE_H_
#define MMV_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/program.h"
#include "plan/clause_plan.h"

namespace mmv {
namespace plan {

/// \brief Counters of one cache lifetime (monotone; consumers snapshot and
/// diff to attribute activity to one run).
struct PlanCacheStats {
  int64_t compiles = 0;
  /// Compilations whose chosen execution order differed from the clause's
  /// written body order.
  int64_t reorders = 0;
  int64_t cache_hits = 0;
  int64_t invalidations = 0;  ///< whole-cache flushes on program change
};

/// \brief Per-program memo of compiled ClausePlans.
class PlanCache {
 public:
  /// \brief The plan for \p clause (which must belong to \p program),
  /// compiling on first use. Flushes the whole cache if \p program is not
  /// the program the cache was filled from.
  std::shared_ptr<const ClausePlan> PlanFor(const Program& program,
                                            const Clause& clause);

  const PlanCacheStats& stats() const { return stats_; }
  size_t size() const { return plans_.size(); }

  /// \brief Drops every plan (stats survive).
  void Clear();

 private:
  /// Flushes the cache when \p program is not the one it was filled from.
  void Revalidate(const Program& program);

  uint64_t program_id_ = 0;
  bool have_program_ = false;
  std::unordered_map<int, std::shared_ptr<const ClausePlan>> plans_;
  PlanCacheStats stats_;
};

}  // namespace plan
}  // namespace mmv

#endif  // MMV_PLAN_PLAN_CACHE_H_
