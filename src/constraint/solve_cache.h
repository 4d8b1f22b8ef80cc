// SolveCache: a memo of satisfiability outcomes keyed by canonical
// constraint form.
//
// Repeated join steps of one clause produce constraints that are identical
// modulo fresh-variable numbering (ubiquitous in chain rules), and
// maintenance passes re-solve whole-view constraint snapshots; the memo
// collapses each canonical class to one real Solve.
//
// Validity contract: a cached outcome is only as durable as the state it
// was computed against. Callers own the cache and use one cache per
// (DcaEvaluator state, SolverOptions) regime — one per materialization
// run, per maintenance pass or per batch, during which the external
// database does not change — and Clear() or drop it when that state moves.
// The cache carries no epoch tag; the Solver's call memo is the one memo
// that tracks the evaluator's state on its own. The view's OWN atoms are
// not part of the solver's state — Solve decides pure constraint
// satisfiability against the domains — so view maintenance alone never
// invalidates the memo. The cache is not thread-safe; keep it with the
// Solver that owns it.

#ifndef MMV_CONSTRAINT_SOLVE_CACHE_H_
#define MMV_CONSTRAINT_SOLVE_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "constraint/canonical.h"

namespace mmv {

enum class SolveOutcome : uint8_t;

/// \brief Counters of one cache lifetime.
struct SolveCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t full = 0;  ///< inserts dropped because the cache was at capacity
};

/// \brief Memo of Solve outcomes keyed by CanonicalConstraintKey.
class SolveCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 1u << 20;

  explicit SolveCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  /// \brief The cached outcome for \p key, or nullptr on miss.
  const SolveOutcome* Lookup(const CanonicalKey& key);

  /// \brief Records an outcome; a no-op once max_entries is reached (the
  /// cache never evicts — bounded staleness is the caller's contract).
  void Insert(const CanonicalKey& key, SolveOutcome outcome);

  /// \brief Drops every entry (stats survive).
  void Clear() { map_.clear(); }

  size_t size() const { return map_.size(); }
  const SolveCacheStats& stats() const { return stats_; }

  /// \brief Reusable rendering buffer for key computation, so hot paths
  /// allocate at most once per high-water mark.
  std::string* scratch() { return &scratch_; }

 private:
  size_t max_entries_;
  SolveCacheStats stats_;
  std::unordered_map<CanonicalKey, SolveOutcome, CanonicalKey::Hasher> map_;
  std::string scratch_;
};

}  // namespace mmv

#endif  // MMV_CONSTRAINT_SOLVE_CACHE_H_
