// RejectCache: a persistent pairwise rejection memo for the solver's
// satisfiability fast path.
//
// Every ground DCA membership the solver decides — "value v is (not) a
// member of the set denoted by the ground call d:f(args)" — is a pure fact
// about the external database at its current state epoch. Re-deriving that
// fact costs a domain evaluation (or at least a call-memo probe deep inside
// a full Solve); the RejectCache records it once, keyed by an interned
// (value id, call id) pair, so Solver::TestSatisfiability can
// refute a doomed conjunct — in(v, call) with a recorded non-membership,
// or not in(v, call) with a recorded membership — before any union-find
// propagation, renaming or simplification runs.
//
// The memo records BOTH polarities (membership and non-membership): either
// one can refute, depending on the sign of the literal being screened.
//
// Validity contract: identical to SolveCache. A recorded membership is only
// as durable as the evaluator state it was computed against, so callers own
// the cache and must keep it scoped to one (DcaEvaluator state) regime.
// Long-lived caches threaded through maintenance batches call SyncEpoch
// with the evaluator's identity and state epoch at each batch boundary
// (maint::ApplyBatch does this for the cache handed to it through
// FixpointOptions::reject_cache, right beside the SolveCache sync); the
// memo survives while the external database stands still and flushes
// exactly when it moved. The same residual caller obligation documented in
// solve_cache.h applies to populating a tagged memo through paths that
// never sync.
//
// Not thread-safe; parallel passes run with reject_cache == nullptr (like
// they swap out any caller-provided SolveCache) — the deterministic
// screens of TestSatisfiability do not need it, so rejection counts stay
// byte-identical across thread counts.

#ifndef MMV_CONSTRAINT_REJECT_CACHE_H_
#define MMV_CONSTRAINT_REJECT_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "common/value.h"
#include "constraint/dca_call_key.h"

namespace mmv {

/// \brief Counters of one cache lifetime.
struct RejectCacheStats {
  int64_t hits = 0;    ///< lookups that found a recorded membership
  int64_t misses = 0;  ///< lookups with no record for the pair
  int64_t records = 0;         ///< memberships recorded (first sighting)
  int64_t full = 0;            ///< records dropped at capacity
  int64_t epoch_flushes = 0;   ///< SyncEpoch calls that dropped the memo
};

/// \brief Memo of ground DCA membership verdicts keyed by interned
/// (value, call) id pairs.
class RejectCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 1u << 20;

  explicit RejectCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  /// \brief Records "\p value is (member ? in : not in) the set denoted by
  /// the ground call \p call". Calls are interned by their exact
  /// DcaCallKey, so two calls share an id only when they are the same
  /// call. Re-recording a pair is a no-op (the verdict is a function of the
  /// pair within one epoch); at capacity new pairs are dropped, never
  /// evicted.
  void Record(const Value& value, const DcaCallKey& call, bool member);

  /// \brief The recorded membership for the pair, or nullptr when the pair
  /// (or either component) was never recorded. Lookup never interns — a
  /// miss costs two hash probes and allocates nothing.
  const bool* Lookup(const Value& value, const DcaCallKey& call);

  /// \brief Drops every entry and both intern tables (stats survive).
  void Clear();

  /// \brief Tags the memo with the external database's current state;
  /// same contract as SolveCache::SyncEpoch — a call with the tagged
  /// (source, epoch) pair is a no-op, any other call (different evaluator,
  /// different epoch, or first tagging of a non-empty memo) drops every
  /// entry before (re-)tagging. Returns true iff entries were dropped.
  bool SyncEpoch(uint64_t source, int64_t epoch);

  /// \brief The tagged epoch, or -1 when never tagged.
  int64_t epoch() const { return has_epoch_ ? epoch_ : -1; }

  /// \brief The tagged evaluator id, or 0 when never tagged.
  uint64_t epoch_source() const { return has_epoch_ ? source_ : 0; }

  /// \brief Number of recorded (value, call) pairs.
  size_t size() const { return pairs_.size(); }

  const RejectCacheStats& stats() const { return stats_; }

 private:
  size_t max_entries_;
  bool has_epoch_ = false;
  uint64_t source_ = 0;
  int64_t epoch_ = 0;
  RejectCacheStats stats_;
  // Intern tables: ids only grow with records (Lookup never inserts), so
  // both stay bounded by max_entries alongside the pair map.
  std::unordered_map<Value, uint32_t, ValueHash> value_ids_;
  std::unordered_map<DcaCallKey, uint32_t, DcaCallKey::Hash> call_ids_;
  std::unordered_map<uint64_t, bool> pairs_;  ///< (value_id<<32)|call_id
};

}  // namespace mmv

#endif  // MMV_CONSTRAINT_REJECT_CACHE_H_
