#include "constraint/solver.h"

#include "constraint/canonical.h"
#include "constraint/solve_cache.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>

namespace mmv {

namespace {
uint64_t NextEvaluatorId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

DcaEvaluator::DcaEvaluator() : instance_id_(NextEvaluatorId()) {}

DcaEvaluator::DcaEvaluator(const DcaEvaluator& other)
    : instance_id_(NextEvaluatorId()) {
  (void)other;
}

DcaEvaluator& DcaEvaluator::operator=(const DcaEvaluator& other) {
  if (this != &other) instance_id_ = NextEvaluatorId();
  return *this;
}

bool Interval::Empty() const {
  if (lo > hi) return true;
  if (lo == hi && (lo_strict || hi_strict)) return true;
  if (integral) {
    auto c = IntegralCount();
    if (c.has_value() && *c <= 0) return true;
  }
  return false;
}

bool Interval::Contains(double v) const {
  if (integral && v != std::floor(v)) return false;
  if (lo_strict ? v <= lo : v < lo) return false;
  if (hi_strict ? v >= hi : v > hi) return false;
  return true;
}

bool Interval::IntersectWith(const Interval& other) {
  if (other.lo > lo || (other.lo == lo && other.lo_strict)) {
    lo = other.lo;
    lo_strict = other.lo_strict;
  }
  if (other.hi < hi || (other.hi == hi && other.hi_strict)) {
    hi = other.hi;
    hi_strict = other.hi_strict;
  }
  integral = integral || other.integral;
  return !Empty();
}

std::optional<int64_t> Interval::IntegralCount() const {
  if (!integral) return std::nullopt;
  if (!std::isfinite(lo) || !std::isfinite(hi)) return std::nullopt;
  double l = std::ceil(lo);
  if (lo_strict && l == lo) l += 1;
  double h = std::floor(hi);
  if (hi_strict && h == hi) h -= 1;
  if (l > h) return 0;
  return static_cast<int64_t>(h - l) + 1;
}

std::string Interval::ToString() const {
  std::ostringstream os;
  os << (lo_strict ? "(" : "[") << lo << ", " << hi
     << (hi_strict ? ")" : "]") << (integral ? " int" : "");
  return os.str();
}

namespace {

bool EvalCmp(double a, CmpOp op, double b) {
  switch (op) {
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

// Turns `X op c` into an interval restriction on X.
Interval CmpToInterval(CmpOp op, double c) {
  Interval i;
  switch (op) {
    case CmpOp::kLt:
      i.hi = c;
      i.hi_strict = true;
      break;
    case CmpOp::kLe:
      i.hi = c;
      break;
    case CmpOp::kGt:
      i.lo = c;
      i.lo_strict = true;
      break;
    case CmpOp::kGe:
      i.lo = c;
      break;
  }
  return i;
}

// piece \ co, as up to two intervals: the part of piece below co's lower
// end, and the part above co's upper end.
std::vector<Interval> SubtractInterval(const Interval& piece,
                                       const Interval& co) {
  std::vector<Interval> out;
  // x is below co iff it fails co's lower-bound test.
  Interval below;
  below.hi = co.lo;
  below.hi_strict = !co.lo_strict;
  Interval left = piece;
  if (left.IntersectWith(below)) out.push_back(left);
  // x is above co iff it fails co's upper-bound test.
  Interval above;
  above.lo = co.hi;
  above.lo_strict = !co.hi_strict;
  Interval right = piece;
  if (right.IntersectWith(above)) out.push_back(right);
  return out;
}

// A finite candidate set: sorted and deduplicated by std::set's
// equivalence, shared between the call memo and every class it restricts.
using Candidates = std::shared_ptr<const std::vector<Value>>;

// Membership in a sorted candidate list, by Value::operator==.
bool HasCandidate(const std::vector<Value>& sorted, const Value& v) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
  return it != sorted.end() && *it == v;
}

// Restricts *into to its intersection with \p other (keeping *into's
// representatives, as std::set_intersection does); false when empty.
bool IntersectCandidates(Candidates* into, const Candidates& other) {
  if (*into == other) return !other->empty();
  std::vector<Value> out;
  std::set_intersection((*into)->begin(), (*into)->end(), other->begin(),
                        other->end(), std::back_inserter(out));
  if (out.empty()) return false;
  *into = std::make_shared<const std::vector<Value>>(std::move(out));
  return true;
}

struct ClassInfo {
  std::optional<Value> bound;
  Interval interval;
  bool interval_touched = false;
  std::set<Value> excluded;
  Candidates candidates;  ///< null: no finite restriction
  std::vector<Interval> co_intervals;
};

struct DerefResult {
  bool is_value = false;
  Value value;
  VarId root = -1;
};

}  // namespace

// Tracks the state of solving one conjunction of primitives. Domain calls
// go through the owning Solver's call memo.
class Solver::ConjunctionState {
 public:
  explicit ConjunctionState(Solver* solver) : solver_(solver) {}

  SolveOutcome Run(const std::vector<Primitive>& prims) {
    solver_->stats_.literals_processed += static_cast<int64_t>(prims.size());
    // Pass 1: equalities build the union-find.
    for (const Primitive& p : prims) {
      if (p.kind != PrimKind::kEq) continue;
      if (!ProcessEq(p)) return SolveOutcome::kUnsat;
    }
    // Pass 2: everything else, to fixpoint.
    std::vector<Primitive> pending;
    for (const Primitive& p : prims) {
      if (p.kind != PrimKind::kEq) pending.push_back(p);
    }
    bool progress = true;
    while (progress) {
      progress = false;
      std::vector<Primitive> next;
      for (const Primitive& p : pending) {
        ProcessResult r = ProcessPrim(p);
        switch (r) {
          case ProcessResult::kUnsat:
            return SolveOutcome::kUnsat;
          case ProcessResult::kError:
            return SolveOutcome::kError;
          case ProcessResult::kResolved:
            progress = true;
            break;
          case ProcessResult::kDeferred:
            deferred_count_++;
            break;  // permanently deferred
          case ProcessResult::kRetry:
            next.push_back(p);
            break;
        }
      }
      pending = std::move(next);
      if (PromoteSingletons()) progress = true;
      if (pending.empty()) break;
    }
    // Whatever could not be resolved is deferred.
    deferred_count_ += static_cast<int64_t>(pending.size());
    for (const Primitive& p : pending) MarkDeferredVars(p);

    if (!FinalCheck()) return SolveOutcome::kUnsat;
    return deferred_count_ > 0 ? SolveOutcome::kSatDeferred
                               : SolveOutcome::kSat;
  }

  // After a kSatDeferred Run: proposes a variable with a finite candidate
  // set that a deferred literal depends on — binding it each way decides
  // the deferred literals (complete case split, since the variable must
  // take one of the candidate values).
  bool SuggestSplit(VarId* var, Candidates* candidates) {
    for (const auto& [v, _] : parent_) {
      VarId root = Find(v);
      const ClassInfo& c = classes_[root];
      if (c.bound || !c.candidates) continue;
      if (!deferred_vars_.count(v)) continue;
      *var = v;
      *candidates = c.candidates;
      return true;
    }
    // Fall back to any finite-candidate class if a deferred literal exists
    // at all (its variables may connect indirectly).
    if (deferred_count_ > 0) {
      for (const auto& [v, _] : parent_) {
        VarId root = Find(v);
        const ClassInfo& c = classes_[root];
        if (c.bound || !c.candidates) continue;
        *var = v;
        *candidates = c.candidates;
        return true;
      }
    }
    return false;
  }

  // Exposes per-class domains (after Run) for enumeration.
  std::vector<VarDomainInfo> ExtractDomains() {
    std::vector<VarDomainInfo> out;
    std::unordered_map<VarId, size_t> root_slot;
    for (const auto& [v, _] : parent_) {
      VarId r = Find(v);
      auto it = root_slot.find(r);
      if (it == root_slot.end()) {
        root_slot[r] = out.size();
        out.emplace_back();
        it = root_slot.find(r);
      }
      out[it->second].members.push_back(v);
    }
    for (auto& [r, slot] : root_slot) {
      const ClassInfo& ci = classes_[r];
      VarDomainInfo& info = out[slot];
      info.bound = ci.bound;
      if (ci.candidates) info.candidates = *ci.candidates;
      info.interval = ci.interval_touched ? ci.interval : Interval::All();
      info.excluded.assign(ci.excluded.begin(), ci.excluded.end());
      info.touched_by_deferred = false;
      for (VarId m : info.members) {
        if (deferred_vars_.count(m)) info.touched_by_deferred = true;
      }
    }
    return out;
  }

 private:
  enum class ProcessResult { kResolved, kDeferred, kRetry, kUnsat, kError };

  VarId Find(VarId v) {
    auto it = parent_.find(v);
    if (it == parent_.end()) {
      parent_[v] = v;
      return v;
    }
    if (it->second == v) return v;
    VarId r = Find(it->second);
    parent_[v] = r;
    return r;
  }

  ClassInfo& Class(VarId root) { return classes_[root]; }

  // Returns false on definite conflict.
  bool Union(VarId a, VarId b) {
    VarId ra = Find(a), rb = Find(b);
    if (ra == rb) return true;
    ClassInfo& ca = classes_[ra];
    ClassInfo& cb = classes_[rb];
    // Merge cb into ca.
    if (ca.bound && cb.bound && !(*ca.bound == *cb.bound)) return false;
    if (!ca.bound && cb.bound) ca.bound = cb.bound;
    if (cb.interval_touched) {
      if (!ca.interval_touched) {
        ca.interval = cb.interval;
        ca.interval_touched = true;
      } else if (!ca.interval.IntersectWith(cb.interval)) {
        return false;
      }
    }
    ca.excluded.insert(cb.excluded.begin(), cb.excluded.end());
    if (cb.candidates) {
      if (!ca.candidates) {
        ca.candidates = cb.candidates;
      } else if (!IntersectCandidates(&ca.candidates, cb.candidates)) {
        return false;
      }
    }
    ca.co_intervals.insert(ca.co_intervals.end(), cb.co_intervals.begin(),
                           cb.co_intervals.end());
    classes_.erase(rb);
    parent_[rb] = ra;
    return true;
  }

  // Binds class of v to value; false on conflict.
  bool BindClass(VarId v, const Value& val) {
    VarId r = Find(v);
    ClassInfo& c = classes_[r];
    if (c.bound) return *c.bound == val;
    c.bound = val;
    return true;
  }

  DerefResult Deref(const Term& t) {
    DerefResult d;
    if (t.is_const()) {
      d.is_value = true;
      d.value = t.constant();
      return d;
    }
    VarId r = Find(t.var());
    const ClassInfo& c = classes_[r];
    if (c.bound) {
      d.is_value = true;
      d.value = *c.bound;
      return d;
    }
    d.root = r;
    return d;
  }

  bool ProcessEq(const Primitive& p) {
    DerefResult l = Deref(p.lhs), r = Deref(p.rhs);
    if (l.is_value && r.is_value) return l.value == r.value;
    if (l.is_value) return BindClass(p.rhs.var(), l.value);
    if (r.is_value) return BindClass(p.lhs.var(), r.value);
    return Union(p.lhs.var(), p.rhs.var());
  }

  ProcessResult ProcessPrim(const Primitive& p) {
    switch (p.kind) {
      case PrimKind::kEq:
        // Late equalities (from promoted singletons do not re-add these).
        return ProcessEq(p) ? ProcessResult::kResolved : ProcessResult::kUnsat;
      case PrimKind::kNeq:
        return ProcessNeq(p);
      case PrimKind::kCmp:
        return ProcessCmp(p);
      case PrimKind::kIn:
      case PrimKind::kNotIn:
        return ProcessDca(p);
    }
    return ProcessResult::kResolved;
  }

  ProcessResult ProcessNeq(const Primitive& p) {
    DerefResult l = Deref(p.lhs), r = Deref(p.rhs);
    if (l.is_value && r.is_value) {
      return l.value == r.value ? ProcessResult::kUnsat
                                : ProcessResult::kResolved;
    }
    if (l.is_value || r.is_value) {
      const Value& val = l.is_value ? l.value : r.value;
      VarId root = l.is_value ? r.root : l.root;
      classes_[root].excluded.insert(val);
      return ProcessResult::kResolved;
    }
    if (l.root == r.root) return ProcessResult::kUnsat;
    neq_pairs_.emplace_back(p.lhs.var(), p.rhs.var());
    return ProcessResult::kResolved;  // checked again in FinalCheck
  }

  ProcessResult ProcessCmp(const Primitive& p) {
    DerefResult l = Deref(p.lhs), r = Deref(p.rhs);
    if (l.is_value && r.is_value) {
      if (!l.value.is_numeric() || !r.value.is_numeric())
        return ProcessResult::kUnsat;
      return EvalCmp(l.value.numeric(), p.op, r.value.numeric())
                 ? ProcessResult::kResolved
                 : ProcessResult::kUnsat;
    }
    if (l.is_value || r.is_value) {
      const Value& val = l.is_value ? l.value : r.value;
      if (!val.is_numeric()) return ProcessResult::kUnsat;
      VarId root = l.is_value ? r.root : l.root;
      CmpOp op = l.is_value ? SwapCmp(p.op) : p.op;  // orient as var op val
      ClassInfo& c = classes_[root];
      Interval restriction = CmpToInterval(op, val.numeric());
      if (!c.interval_touched) {
        c.interval = restriction;
        c.interval_touched = true;
      } else if (!c.interval.IntersectWith(restriction)) {
        return ProcessResult::kUnsat;
      }
      return ProcessResult::kResolved;
    }
    // var-var: wait for one side to become bound.
    return ProcessResult::kRetry;
  }

  ProcessResult ProcessDca(const Primitive& p) {
    if (solver_->evaluator_ == nullptr || !solver_->options_.evaluate_dca) {
      return ProcessResult::kDeferred;
    }
    // Ground the call arguments into the solver's probe key.
    DcaCallKey& call = solver_->dca_probe_;
    call.args.clear();
    for (const Term& t : p.call.args) {
      DerefResult d = Deref(t);
      if (!d.is_value) return ProcessResult::kRetry;
      call.args.push_back(std::move(d.value));
    }
    call.domain = p.call.domain;
    call.function = p.call.function;
    const DcaMemoEntry* res = solver_->EvaluateDca();
    if (res == nullptr) return ProcessResult::kError;
    if (res->kind == DcaResultKind::kUnknown) return ProcessResult::kDeferred;

    bool positive = (p.kind == PrimKind::kIn);
    DerefResult x = Deref(p.lhs);
    if (res->kind == DcaResultKind::kFinite) {
      if (x.is_value) {
        bool member = HasCandidate(*res->values, x.value);
        return member == positive ? ProcessResult::kResolved
                                  : ProcessResult::kUnsat;
      }
      ClassInfo& c = classes_[x.root];
      if (positive) {
        if (!c.candidates) {
          c.candidates = res->values;
        } else if (!IntersectCandidates(&c.candidates, res->values)) {
          return ProcessResult::kUnsat;
        }
      } else {
        c.excluded.insert(res->values->begin(), res->values->end());
      }
      return ProcessResult::kResolved;
    }
    // Interval result.
    if (x.is_value) {
      bool member =
          x.value.is_numeric() && res->interval.Contains(x.value.numeric());
      return member == positive ? ProcessResult::kResolved
                                : ProcessResult::kUnsat;
    }
    ClassInfo& c = classes_[x.root];
    if (positive) {
      if (!c.interval_touched) {
        c.interval = res->interval;
        c.interval_touched = true;
      } else if (!c.interval.IntersectWith(res->interval)) {
        return ProcessResult::kUnsat;
      }
    } else {
      c.co_intervals.push_back(res->interval);
    }
    return ProcessResult::kResolved;
  }

  // Promotes singleton candidate sets to bindings, enabling further DCA
  // argument grounding. Returns true on progress.
  bool PromoteSingletons() {
    bool progress = false;
    for (auto& [root, c] : classes_) {
      if (c.bound || !c.candidates) continue;
      // Filter candidates by current interval/exclusions first; the shared
      // list is replaced only when the filter drops something.
      auto admitted = [&c](const Value& v) {
        if (c.excluded.count(v)) return false;
        return !c.interval_touched ||
               (v.is_numeric() && c.interval.Contains(v.numeric()));
      };
      const std::vector<Value>& cands = *c.candidates;
      if (!std::all_of(cands.begin(), cands.end(), admitted)) {
        std::vector<Value> keep;
        std::copy_if(cands.begin(), cands.end(), std::back_inserter(keep),
                     admitted);
        c.candidates = std::make_shared<const std::vector<Value>>(
            std::move(keep));
        progress = true;
      }
      if (c.candidates->size() == 1) {
        c.bound = c.candidates->front();
        progress = true;
      }
    }
    return progress;
  }

  void MarkDeferredVars(const Primitive& p) {
    std::vector<VarId> vars;
    p.CollectVariables(&vars);
    deferred_vars_.insert(vars.begin(), vars.end());
  }

  bool ClassFeasible(const ClassInfo& c) const {
    if (c.bound) {
      const Value& v = *c.bound;
      if (c.excluded.count(v)) return false;
      if (c.candidates && !HasCandidate(*c.candidates, v)) return false;
      if (c.interval_touched &&
          (!v.is_numeric() || !c.interval.Contains(v.numeric())))
        return false;
      for (const Interval& co : c.co_intervals) {
        if (v.is_numeric() && co.Contains(v.numeric())) return false;
      }
      return true;
    }
    if (c.candidates) {
      for (const Value& v : *c.candidates) {
        if (c.excluded.count(v)) continue;
        if (c.interval_touched &&
            (!v.is_numeric() || !c.interval.Contains(v.numeric())))
          continue;
        bool hit = false;
        for (const Interval& co : c.co_intervals) {
          if (v.is_numeric() && co.Contains(v.numeric())) {
            hit = true;
            break;
          }
        }
        if (!hit) return true;
      }
      return false;
    }
    if (!c.interval_touched) {
      // Unconstrained (modulo exclusions / co-intervals over an unbounded
      // universe): always feasible.
      return true;
    }
    // Interval domain: subtract co-intervals, then check that some piece
    // survives the (finite) exclusion set.
    std::vector<Interval> pieces = {c.interval};
    for (const Interval& co : c.co_intervals) {
      std::vector<Interval> next;
      for (const Interval& piece : pieces) {
        std::vector<Interval> rem = SubtractInterval(piece, co);
        next.insert(next.end(), rem.begin(), rem.end());
      }
      pieces = std::move(next);
      if (pieces.empty()) return false;
    }
    for (Interval piece : pieces) {
      piece.integral = piece.integral || c.interval.integral;
      if (piece.Empty()) continue;
      if (piece.integral) {
        auto count = piece.IntegralCount();
        if (!count.has_value()) return true;  // infinitely many integers
        int64_t excluded_inside = 0;
        for (const Value& v : c.excluded) {
          if (v.is_numeric() && piece.Contains(v.numeric())) excluded_inside++;
        }
        if (*count > excluded_inside) return true;
      } else {
        // Real piece: non-degenerate pieces survive finite exclusions;
        // degenerate point pieces must avoid the exclusion set.
        if (piece.lo < piece.hi) return true;
        Value pt(piece.lo);
        if (!c.excluded.count(pt)) return true;
      }
    }
    return false;
  }

  bool FinalCheck() {
    for (const auto& [root, c] : classes_) {
      if (!ClassFeasible(c)) return false;
    }
    for (const auto& [a, b] : neq_pairs_) {
      VarId ra = Find(a), rb = Find(b);
      if (ra == rb) {
        const ClassInfo& c = classes_[ra];
        // X != Y with X,Y unified: unsat unless... always unsat.
        (void)c;
        return false;
      }
      const ClassInfo& ca = classes_[ra];
      const ClassInfo& cb = classes_[rb];
      if (ca.bound && cb.bound && *ca.bound == *cb.bound) return false;
      // Both forced to identical singleton candidate sets of size 1 are
      // caught by PromoteSingletons (which sets bound).
    }
    return true;
  }

  Solver* solver_;

  std::unordered_map<VarId, VarId> parent_;
  std::unordered_map<VarId, ClassInfo> classes_;
  std::vector<std::pair<VarId, VarId>> neq_pairs_;
  std::set<VarId> deferred_vars_;
  int64_t deferred_count_ = 0;
};

const Solver::DcaMemoEntry* Solver::EvaluateDca() {
  if (!dca_memo_checked_) {
    dca_memo_checked_ = true;
    const uint64_t source = evaluator_->instance_id();
    const int64_t epoch = evaluator_->StateEpoch();
    if (!dca_memo_tagged_ || source != dca_memo_source_ ||
        epoch != dca_memo_epoch_) {
      dca_memo_.clear();
      dca_memo_tagged_ = true;
      dca_memo_source_ = source;
      dca_memo_epoch_ = epoch;
    }
  }
  auto it = dca_memo_.find(dca_probe_);
  if (it != dca_memo_.end()) return &it->second;
  stats_.dca_evaluations++;
  Result<DcaResult> r = evaluator_->Evaluate(
      dca_probe_.domain, dca_probe_.function, dca_probe_.args);
  if (!r.ok()) {
    last_status_ = r.status();  // errors are never memoized
    return nullptr;
  }
  DcaMemoEntry entry;
  entry.kind = r->kind;
  entry.interval = r->interval;
  if (r->kind == DcaResultKind::kFinite) {
    // Sorted and deduplicated once. stable_sort + unique keeps the first
    // of equivalent values, the one std::set would keep, so candidate
    // lists hold the values, in the order, a std::set of the raw result
    // would hold.
    std::vector<Value> values = std::move(r->values);
    std::stable_sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end(),
                             [](const Value& a, const Value& b) {
                               return !(a < b) && !(b < a);
                             }),
                 values.end());
    entry.values =
        std::make_shared<const std::vector<Value>>(std::move(values));
  }
  // The bound: a full memo starts over. Classes hold their candidate
  // lists by shared_ptr, so dropping entries mid-Solve is safe.
  if (dca_memo_.size() >= kMaxDcaMemoEntries) dca_memo_.clear();
  return &dca_memo_.emplace(dca_probe_, std::move(entry)).first->second;
}

// Decides a conjunction of primitives, case-splitting on finite candidate
// sets when deferred literals remain (complete search up to the budget).
SolveOutcome Solver::SolveConjunctionWithSplits(std::vector<Primitive>* prims,
                                                int64_t* budget) {
  if (--(*budget) < 0) return SolveOutcome::kSatDeferred;
  stats_.choice_branches++;
  ConjunctionState state(this);
  SolveOutcome o = state.Run(*prims);
  if (o != SolveOutcome::kSatDeferred || !options_.split_candidates) {
    return o;
  }
  VarId var;
  Candidates candidates;
  if (!state.SuggestSplit(&var, &candidates)) return o;
  // The variable must take one of the candidate values: the split is a
  // complete case analysis.
  bool saw_deferred = false;
  bool saw_error = false;
  for (const Value& v : *candidates) {
    prims->push_back(Primitive::Eq(Term::Var(var), Term::Const(v)));
    SolveOutcome sub = SolveConjunctionWithSplits(prims, budget);
    prims->pop_back();
    if (sub == SolveOutcome::kSat) return SolveOutcome::kSat;
    if (sub == SolveOutcome::kSatDeferred) saw_deferred = true;
    if (sub == SolveOutcome::kError) saw_error = true;
    if (*budget < 0) return SolveOutcome::kSatDeferred;
  }
  if (saw_error) return SolveOutcome::kError;
  if (saw_deferred) return SolveOutcome::kSatDeferred;
  return SolveOutcome::kUnsat;
}

SolveOutcome Solver::Solve(const Constraint& c) {
  stats_.solve_calls++;
  dca_memo_checked_ = false;
  if (c.is_false()) return SolveOutcome::kUnsat;
  if (c.is_true()) return SolveOutcome::kSat;
  // Satisfiability fast path: the linear screen runs BEFORE the memo
  // lookup — a rejection skips even the canonical-key rendering, and the
  // screen is sound for rejection only, so outcomes are unchanged.
  if (options_.fastpath &&
      TestSatisfiability(c) == SolveOutcome::kUnsat) {
    return SolveOutcome::kUnsat;
  }
  if (options_.cache == nullptr) return SolveUncached(c);
  CanonicalKey key = CanonicalConstraintKey(c, options_.cache->scratch());
  if (const SolveOutcome* hit = options_.cache->Lookup(key)) {
    stats_.cache_hits++;
    return *hit;
  }
  SolveOutcome outcome = SolveUncached(c);
  // Errors are evaluator failures, not properties of the constraint.
  if (outcome != SolveOutcome::kError) options_.cache->Insert(key, outcome);
  return outcome;
}

SolveOutcome Solver::SolveUncached(const Constraint& c) {
  int64_t budget = options_.max_choice_branches;

  // Fast path / pruning: the positive part must be satisfiable on its own.
  {
    std::vector<Primitive> prims = c.prims();
    SolveOutcome positive =
        SolveConjunctionWithSplits(&prims, &budget);
    if (positive == SolveOutcome::kUnsat || positive == SolveOutcome::kError) {
      return positive;
    }
    if (c.nots().empty()) return positive;
  }

  // Expand not-blocks. To satisfy not(B) where B = p1 ^ ... ^ pk ^
  // not(B1) ^ ... ^ not(Bm), choose either some pi to violate (add its
  // negation) or some Bj to assert (add Bj's primitives and queue Bj's own
  // inner blocks as further not-obligations). The constraint is satisfiable
  // iff some choice assignment yields a satisfiable conjunction.
  bool saw_deferred = false;
  bool saw_error = false;
  std::vector<Primitive> chosen = c.prims();
  std::vector<const NotBlock*> blocks;
  blocks.reserve(c.nots().size());
  for (const NotBlock& b : c.nots()) blocks.push_back(&b);

  std::function<bool(size_t)> dfs = [&](size_t idx) -> bool {
    if (idx == blocks.size()) {
      if (budget < 0) {
        // Budget exhausted: conservatively report deferred-sat.
        saw_deferred = true;
        return true;  // stop the search
      }
      SolveOutcome o = SolveConjunctionWithSplits(&chosen, &budget);
      if (o == SolveOutcome::kSat) return true;
      if (o == SolveOutcome::kSatDeferred) saw_deferred = true;
      if (o == SolveOutcome::kError) saw_error = true;
      return false;
    }
    const NotBlock& b = *blocks[idx];
    for (const Primitive& p : b.prims) {
      chosen.push_back(p.Negated());
      bool found = dfs(idx + 1);
      chosen.pop_back();
      if (found) return true;
    }
    for (const NotBlock& ib : b.inner) {
      size_t chosen_mark = chosen.size();
      size_t blocks_mark = blocks.size();
      chosen.insert(chosen.end(), ib.prims.begin(), ib.prims.end());
      for (const NotBlock& nested : ib.inner) blocks.push_back(&nested);
      bool found = dfs(idx + 1);
      chosen.resize(chosen_mark);
      blocks.resize(blocks_mark);
      if (found) return true;
    }
    return false;
  };

  bool sat = dfs(0);
  if (sat && budget >= 0) return SolveOutcome::kSat;
  if (saw_error) return SolveOutcome::kError;
  if (saw_deferred) return SolveOutcome::kSatDeferred;
  return SolveOutcome::kUnsat;
}

// ---- satisfiability fast path ---------------------------------------------
//
// The screens below mirror a strict SUBSET of the full decision procedure:
// every rejection corresponds to a contradiction the union-find pipeline
// would also find among the same literals, so `screen rejects` implies
// `Solve returns kUnsat`. Anything the full solver merely defers (var-var
// comparisons, unevaluated DCA-atoms, not-blocks) the screens skip — a
// budget-starved or deferring Solve must never be out-rejected.

namespace {
inline uint64_t ScreenVarKey(uint32_t scope, VarId v) {
  return (static_cast<uint64_t>(scope) << 32) | static_cast<uint32_t>(v);
}
}  // namespace

void Solver::ScreenReset() {
  screen_bound_.clear();
  screen_intervals_.clear();
}

const Value* Solver::ScreenResolve(uint32_t scope, const Term& t) const {
  if (t.is_const()) return &t.constant();
  auto it = screen_bound_.find(ScreenVarKey(scope, t.var()));
  return it == screen_bound_.end() ? nullptr : it->second;
}

// One equality edge; true on a definite conflict. There is no union-find
// here: an edge whose sides both resolve must agree, an edge with exactly
// one resolved side binds the other, and a var-var edge is skipped —
// callers run the eq passes twice (bindings only grow) so a binding
// discovered late still propagates one hop. Everything a binding derives
// is entailed by the equalities alone, and the full solver's pass-1
// union-find derives every such entailment, so each conflict found here is
// found there too.
bool Solver::ScreenEqPair(uint32_t scope_l, const Term& l, uint32_t scope_r,
                          const Term& r) {
  const Value* lv = ScreenResolve(scope_l, l);
  const Value* rv = ScreenResolve(scope_r, r);
  if (lv != nullptr && rv != nullptr) return !(*lv == *rv);
  if (lv != nullptr && r.is_var()) {
    screen_bound_.emplace(ScreenVarKey(scope_r, r.var()), lv);
  } else if (rv != nullptr && l.is_var()) {
    screen_bound_.emplace(ScreenVarKey(scope_l, l.var()), rv);
  }
  return false;
}

bool Solver::ScreenEq(const Constraint& c, uint32_t scope) {
  for (const Primitive& p : c.prims()) {
    if (p.kind != PrimKind::kEq) continue;
    if (ScreenEqPair(scope, p.lhs, scope, p.rhs)) return true;
  }
  return false;
}

// Deterministic non-eq screens (disequalities, comparisons). Mirrors
// ProcessNeq / ProcessCmp on the resolvable cases only; DCA literals are
// left to the full solver.
bool Solver::ScreenRest(const Constraint& c, uint32_t scope) {
  for (const Primitive& p : c.prims()) {
    switch (p.kind) {
      case PrimKind::kEq:
      case PrimKind::kIn:
      case PrimKind::kNotIn:
        break;
      case PrimKind::kNeq: {
        const Value* lv = ScreenResolve(scope, p.lhs);
        const Value* rv = ScreenResolve(scope, p.rhs);
        if (lv != nullptr && rv != nullptr && *lv == *rv) return true;
        // X != X: the full solver derefs both sides to one class root.
        if (lv == nullptr && rv == nullptr && p.lhs.is_var() &&
            p.rhs.is_var() && p.lhs.var() == p.rhs.var()) {
          return true;
        }
        break;
      }
      case PrimKind::kCmp: {
        const Value* lv = ScreenResolve(scope, p.lhs);
        const Value* rv = ScreenResolve(scope, p.rhs);
        if (lv != nullptr && rv != nullptr) {
          if (!lv->is_numeric() || !rv->is_numeric()) return true;
          if (!EvalCmp(lv->numeric(), p.op, rv->numeric())) return true;
          break;
        }
        if (lv == nullptr && rv == nullptr) break;  // var-var: deferred
        const Value* val = lv != nullptr ? lv : rv;
        if (!val->is_numeric()) return true;  // mirrors ProcessCmp
        const Term& var_side = lv != nullptr ? p.rhs : p.lhs;
        CmpOp op = lv != nullptr ? SwapCmp(p.op) : p.op;  // var op val
        Interval restriction = CmpToInterval(op, val->numeric());
        // Per-variable intervals: coarser than the solver's per-CLASS
        // intervals, so an empty intersection here is empty there too.
        auto [it, fresh] = screen_intervals_.emplace(
            ScreenVarKey(scope, var_side.var()), restriction);
        if (!fresh && !it->second.IntersectWith(restriction)) return true;
        break;
      }
    }
  }
  return false;
}

SolveOutcome Solver::TestSatisfiability(const Constraint& c) {
  stats_.sat_prechecks++;
  if (c.is_false()) {
    stats_.sat_rejects++;
    return SolveOutcome::kUnsat;
  }
  if (c.is_true()) return SolveOutcome::kSat;
  // A budget-starved full Solve reports kSatDeferred for EVERY conjunction
  // — with no oracle rejection to mirror, the screen must stand down.
  if (options_.max_choice_branches < 1) return SolveOutcome::kSatDeferred;
  ScreenReset();
  if (ScreenEq(c, 0) || ScreenEq(c, 0) || ScreenRest(c, 0)) {
    stats_.sat_rejects++;
    return SolveOutcome::kUnsat;
  }
  return SolveOutcome::kSatDeferred;
}

bool Solver::RejectJoin(const Constraint& clause_constraint,
                        const std::vector<JoinComponent>& body) {
  if (!options_.fastpath || options_.max_choice_branches < 1) return false;
  // Malformed joins (arity mismatch) yield NO verdict: the executor's slow
  // path owns that error, and a screen rejection would silently mask it.
  for (const JoinComponent& comp : body) {
    if (comp.inst_args->size() != comp.pattern->size()) return false;
  }
  stats_.sat_prechecks++;
  // A bottom component makes the whole assembled conjunction false
  // (Constraint::AndWith propagates the marker), which T_P prunes.
  if (clause_constraint.is_false()) {
    stats_.sat_rejects++;
    return true;
  }
  for (const JoinComponent& comp : body) {
    if (comp.inst_constraint->is_false()) {
      stats_.sat_rejects++;
      return true;
    }
  }
  ScreenReset();
  // Equality passes over every eq source of the assembled constraint: the
  // clause constraint (scope 0), each instance constraint (scope i+1 —
  // modelling the fresh renaming that standardizes instances apart), and
  // the argument-pattern equations the executor would add. Two rounds, so
  // a binding discovered in one source propagates across the others — in
  // particular a clause variable double-bound through two DIFFERENT
  // instances' ground arguments is the canonical cross-instance mismatch.
  for (int pass = 0; pass < 2; ++pass) {
    if (ScreenEq(clause_constraint, 0)) {
      stats_.sat_rejects++;
      return true;
    }
    for (size_t i = 0; i < body.size(); ++i) {
      if (ScreenEq(*body[i].inst_constraint,
                   static_cast<uint32_t>(i) + 1)) {
        stats_.sat_rejects++;
        return true;
      }
    }
    for (size_t i = 0; i < body.size(); ++i) {
      const JoinComponent& comp = body[i];
      for (size_t k = 0; k < comp.pattern->size(); ++k) {
        if (ScreenEqPair(static_cast<uint32_t>(i) + 1, (*comp.inst_args)[k],
                         0, (*comp.pattern)[k])) {
          stats_.sat_rejects++;
          return true;
        }
      }
    }
  }
  if (ScreenRest(clause_constraint, 0)) {
    stats_.sat_rejects++;
    return true;
  }
  for (size_t i = 0; i < body.size(); ++i) {
    if (ScreenRest(*body[i].inst_constraint,
                   static_cast<uint32_t>(i) + 1)) {
      stats_.sat_rejects++;
      return true;
    }
  }
  return false;
}

Result<std::vector<VarDomainInfo>> Solver::Analyze(const Constraint& c) {
  if (c.is_false()) {
    return Status::InvalidArgument("Analyze called on false constraint");
  }
  dca_memo_checked_ = false;
  ConjunctionState state(this);
  SolveOutcome o = state.Run(c.prims());
  if (o == SolveOutcome::kUnsat) {
    return Status::InvalidArgument(
        "Analyze: positive part is unsatisfiable");
  }
  if (o == SolveOutcome::kError) return last_status_;
  return state.ExtractDomains();
}

}  // namespace mmv
