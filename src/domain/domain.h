// Domains (paper Section 2.1): named collections of functions over data
// objects. A domain call d:f(args) denotes a set of values; the DCA-atom
// in(X, d:f(args)) constrains X to that set.
//
// Domains are *time-versioned*: CallAt(f, args, t) returns the behaviour
// f_t of Section 4, and DomainManager::Delta computes f+ / f- (eqs. 6, 7).

#ifndef MMV_DOMAIN_DOMAIN_H_
#define MMV_DOMAIN_DOMAIN_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "constraint/dca_call_key.h"
#include "constraint/solver.h"
#include "relational/catalog.h"

namespace mmv {
namespace dom {

/// \brief Abstract external source exposing set-valued functions.
class Domain {
 public:
  explicit Domain(std::string name) : name_(std::move(name)) {}
  virtual ~Domain() = default;

  /// \brief Domain name used in DCA-atoms (e.g. "arith", "rel").
  const std::string& name() const { return name_; }

  /// \brief Evaluates \p function on ground \p args at the current state.
  virtual Result<DcaResult> Call(const std::string& function,
                                 const std::vector<Value>& args) = 0;

  /// \brief Evaluates at historical tick \p tick (the paper's f_t).
  /// Stateless domains ignore the tick.
  virtual Result<DcaResult> CallAt(const std::string& function,
                                   const std::vector<Value>& args,
                                   int64_t tick) {
    (void)tick;
    return Call(function, args);
  }

  /// \brief Names of the functions this domain implements.
  virtual std::vector<std::string> Functions() const = 0;

  /// \brief True when Call()/CallAt() never mutate domain state — pure
  /// reads of the backing store — so concurrent evaluations are safe while
  /// no writer runs (the single-writer window StateEpoch validates).
  /// Defaults to false: a domain must opt in explicitly, because a wrong
  /// answer here is a data race, not a wrong result. Note this is a claim
  /// about the EVALUATION path only; registration-time mutators
  /// (AddMap/AddAddress-style setup) stay writer-side as ever.
  virtual bool ConcurrentCallSafe() const { return false; }

  /// \brief Count of domain-LOCAL state mutations: writes that change
  /// Call() results but go through neither the catalog nor the clock
  /// (e.g. SpatialDomain::AddAddress). DomainManager::StateEpoch folds
  /// these in so epoch-gated memos observe them.
  int64_t local_mutations() const { return local_mutations_; }

 protected:
  /// \brief Implementations call this from every mutator of internal
  /// state that is invisible to the catalog clock.
  void NoteLocalMutation() { ++local_mutations_; }

 private:
  std::string name_;
  int64_t local_mutations_ = 0;
};

/// \brief f+ / f- of one ground call between two ticks (paper eqs. 6, 7).
struct FunctionDelta {
  std::vector<Value> added;    ///< f+ : in f_{t1} but not f_{t0}
  std::vector<Value> removed;  ///< f- : in f_{t0} but not f_{t1}

  bool empty() const { return added.empty() && removed.empty(); }
};

/// \brief Owns all registered domains and routes DCA evaluation to them.
///
/// Implements DcaEvaluator so a Solver can be pointed directly at it.
/// Evaluation happens at the shared clock's current tick unless a time is
/// pinned (used to reproduce "the view materialized at time t").
class DomainManager : public DcaEvaluator {
 public:
  explicit DomainManager(rel::Clock* clock) : clock_(clock) {}

  /// \brief Registers \p domain; AlreadyExists on name clash.
  Status Register(std::unique_ptr<Domain> domain);

  /// \brief Looks up a domain by name.
  Result<Domain*> Get(const std::string& name);

  /// \brief DcaEvaluator hook: evaluates at EffectiveTime().
  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override;

  /// \brief Evaluates at an explicit tick.
  Result<DcaResult> EvaluateAt(const std::string& domain,
                               const std::string& function,
                               const std::vector<Value>& args, int64_t tick);

  /// \brief Pins all Evaluate() calls to \p tick; pass -1 to unpin.
  void PinTime(int64_t tick) { pinned_ = tick; }

  /// \brief The tick Evaluate() uses: pinned time, or the clock's now.
  int64_t EffectiveTime() const {
    return pinned_ >= 0 ? pinned_ : clock_->now();
  }

  /// \brief DcaEvaluator state epoch: the effective tick combined with the
  /// clock's same-tick mutation counter and every registered domain's
  /// local-mutation counter. Tick alone would miss (a) the convenience
  /// Catalog::Insert/Delete path, which writes at the CURRENT tick
  /// without advancing the clock, and (b) domain-internal state the
  /// catalog never sees (Domain::NoteLocalMutation) — live evaluations
  /// change while now() stands still either way. Folding the counters in
  /// is conservatively sound: a live write spuriously flushes memos of
  /// pinned-historical state (which that write cannot touch), but a
  /// stale-serving epoch would be unsound. The packing (done in uint64_t
  /// — no signed-shift UB) is injective while the summed mutation count
  /// and the tick stay below 2^32, and compared only for equality (see
  /// DcaEvaluator::StateEpoch: pinning moves it backward).
  int64_t StateEpoch() const override {
    int64_t mutations = clock_->mutations();
    for (const auto& [name, domain] : domains_) {
      mutations += domain->local_mutations();
    }
    return static_cast<int64_t>(
        (static_cast<uint64_t>(mutations) << 32) ^
        (static_cast<uint64_t>(EffectiveTime()) & 0xffffffffull));
  }

  /// \brief f+ / f- of a ground call between \p t0 and \p t1. Fails for
  /// calls whose results are not finite sets (e.g. symbolic intervals).
  Result<FunctionDelta> Delta(const std::string& domain,
                              const std::string& function,
                              const std::vector<Value>& args, int64_t t0,
                              int64_t t1);

  rel::Clock* clock() { return clock_; }

  /// \brief Total number of domain calls evaluated (for benchmarks).
  int64_t call_count() const {
    return call_count_.load(std::memory_order_relaxed);
  }
  void ResetCallCount() { call_count_.store(0, std::memory_order_relaxed); }

  /// \brief DcaEvaluator hook: concurrent evaluation is safe exactly when
  /// every registered domain's evaluation path is a pure read AND the call
  /// cache is off (EvaluateAt fills call_cache_ when enabled — a write).
  /// The call counter is atomic, so it is not a disqualifier. Parallel
  /// passes fan out only when this is true, and then evaluate through this
  /// manager directly under the single-writer epoch contract (StateEpoch
  /// captured before the fan-out, re-checked after, loud failure on
  /// mismatch); otherwise they run on one thread.
  bool ConcurrentReadSafe() const override {
    if (cache_enabled_) return false;
    for (const auto& [name, domain] : domains_) {
      if (!domain->ConcurrentCallSafe()) return false;
    }
    return true;
  }

  /// \brief Enables memoization of *historical* evaluations (tick strictly
  /// before the clock's now — those snapshots are immutable, so the cache
  /// never goes stale; current-tick calls are always evaluated live).
  /// Calls are keyed per tick by their exact DcaCallKey.
  ///
  /// This realizes the paper's Section 5 remark that materializing the
  /// external function calls (Kemper/Kilger/Moerkotte-style function
  /// materialization) complements the view-level machinery.
  void EnableCallCache(bool enabled) {
    cache_enabled_ = enabled;
    if (!enabled) call_cache_.clear();
  }

  /// \brief Number of cache hits served (for benchmarks).
  int64_t cache_hits() const { return cache_hits_; }

 private:
  rel::Clock* clock_;
  std::unordered_map<std::string, std::unique_ptr<Domain>> domains_;
  int64_t pinned_ = -1;
  // Atomic so the ConcurrentReadSafe() fast path can count calls from
  // worker threads; relaxed ordering is enough for a statistics counter.
  std::atomic<int64_t> call_count_{0};
  bool cache_enabled_ = false;
  int64_t cache_hits_ = 0;
  // tick -> call -> result
  std::unordered_map<
      int64_t, std::unordered_map<DcaCallKey, DcaResult, DcaCallKey::Hash>>
      call_cache_;
};

}  // namespace dom
}  // namespace mmv

#endif  // MMV_DOMAIN_DOMAIN_H_
