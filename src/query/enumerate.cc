#include "query/enumerate.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <sstream>

namespace mmv {
namespace query {

bool Instance::operator<(const Instance& other) const {
  if (pred != other.pred) return pred < other.pred;
  size_t n = std::min(values.size(), other.values.size());
  for (size_t i = 0; i < n; ++i) {
    if (values[i] < other.values[i]) return true;
    if (other.values[i] < values[i]) return false;
  }
  return values.size() < other.values.size();
}

std::string Instance::ToString() const {
  std::ostringstream os;
  os << pred << "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) os << ", ";
    os << values[i];
  }
  os << ")";
  return os.str();
}

namespace {

// Candidate values of one head position, or "unbounded".
struct PositionDomain {
  std::vector<Value> values;
  bool unbounded = false;
  int class_slot = -1;  ///< shared-class marker for repeated variables
};

// Extracts the enumerable values of a class description.
PositionDomain DomainOf(const VarDomainInfo& info) {
  PositionDomain out;
  if (info.bound) {
    out.values.push_back(*info.bound);
    return out;
  }
  if (info.candidates) {
    for (const Value& v : *info.candidates) {
      bool excluded = std::find(info.excluded.begin(), info.excluded.end(),
                                v) != info.excluded.end();
      if (excluded) continue;
      if (!info.interval.Unbounded()) {
        if (!v.is_numeric() || !info.interval.Contains(v.numeric())) continue;
      }
      out.values.push_back(v);
    }
    return out;
  }
  // Interval-only domains are enumerable when integral and finite.
  if (info.interval.integral) {
    auto count = info.interval.IntegralCount();
    if (count.has_value() && *count == 0) return out;  // provably empty
    if (count.has_value() && *count > 0 && *count <= 2000000) {
      double lo = std::ceil(info.interval.lo);
      double hi = std::floor(info.interval.hi);
      // The walk must use an int64_t cursor: at magnitudes >= 2^53 a
      // double `v += 1` is a no-op (infinite loop) or skips integers even
      // though the COUNT above is tiny. The endpoint doubles themselves
      // are exact integers (ceil/floor), so the casts below are exact;
      // bounds outside int64 range are unenumerable (the cast would be
      // UB), so treat them as unbounded. 2^63 is the first double above
      // the int64 range on both sides.
      constexpr double kInt64Edge = 9223372036854775808.0;  // 2^63
      if (lo < -kInt64Edge || hi >= kInt64Edge) {
        out.unbounded = true;
        return out;
      }
      int64_t lo_i = static_cast<int64_t>(lo);
      int64_t hi_i = static_cast<int64_t>(hi);
      // Strict-bound nudges happen in int64 too: at 2^53, `lo += 1` on the
      // double rounds back to 2^53 and the open bound would be included.
      if (info.interval.lo_strict && lo == info.interval.lo) ++lo_i;
      if (info.interval.hi_strict && hi == info.interval.hi) --hi_i;
      for (int64_t v = lo_i; v <= hi_i; ++v) {
        Value val(v);
        bool excluded = std::find(info.excluded.begin(), info.excluded.end(),
                                  val) != info.excluded.end();
        if (!excluded) out.values.push_back(std::move(val));
      }
      return out;
    }
  }
  out.unbounded = true;
  return out;
}

// Recursive enumeration engine for one atom.
class AtomEnumerator {
 public:
  AtomEnumerator(const ViewAtom& atom, Solver* solver,
                 const EnumerateOptions& options, InstanceSet* out)
      : atom_(atom), options_(options), out_(out), solver_(solver) {}

  Status Run() { return Refine(atom_.constraint, 0); }

 private:
  static constexpr int kMaxSplitDepth = 64;

  Status Refine(const Constraint& constraint, int depth) {
    if (out_->instances.size() >= options_.max_instances) {
      out_->complete = false;
      return Status::OK();
    }
    SolveOutcome pre = solver_->Solve(constraint);
    if (pre == SolveOutcome::kError) return solver_->last_status();
    if (pre == SolveOutcome::kUnsat) return Status::OK();

    Result<std::vector<VarDomainInfo>> analyzed =
        solver_->Analyze(constraint);
    if (!analyzed.ok()) return Status::OK();  // positive part unsat
    const std::vector<VarDomainInfo>& classes = *analyzed;

    // Split on a deferred-touched finite class first: grounding it lets
    // the solver evaluate the remaining chained domain calls.
    if (depth < kMaxSplitDepth) {
      for (const VarDomainInfo& info : classes) {
        if (!info.touched_by_deferred || info.bound || !info.candidates ||
            info.members.empty()) {
          continue;
        }
        PositionDomain d = DomainOf(info);
        if (d.unbounded) continue;
        for (const Value& v : d.values) {
          Constraint refined = constraint;
          refined.Add(Primitive::Eq(Term::Var(info.members.front()),
                                    Term::Const(v)));
          MMV_RETURN_NOT_OK(Refine(refined, depth + 1));
        }
        return Status::OK();
      }
    }
    return EnumerateHeads(constraint, classes);
  }

  Status EnumerateHeads(const Constraint& constraint,
                        const std::vector<VarDomainInfo>& classes) {
    auto class_of = [&](VarId v) -> int {
      for (size_t i = 0; i < classes.size(); ++i) {
        const auto& m = classes[i].members;
        if (std::find(m.begin(), m.end(), v) != m.end()) {
          return static_cast<int>(i);
        }
      }
      return -1;
    };

    size_t arity = atom_.args.size();
    std::vector<PositionDomain> domains(arity);
    for (size_t k = 0; k < arity; ++k) {
      const Term& t = atom_.args[k];
      if (t.is_const()) {
        domains[k].values.push_back(t.constant());
        continue;
      }
      int slot = class_of(t.var());
      if (slot < 0) {
        domains[k].unbounded = true;  // variable absent from the constraint
        continue;
      }
      domains[k] = DomainOf(classes[static_cast<size_t>(slot)]);
      domains[k].class_slot = slot;
    }
    for (const PositionDomain& d : domains) {
      if (d.unbounded) {
        out_->complete = false;
        return Status::OK();
      }
    }

    std::vector<Value> tuple(arity);
    std::vector<std::pair<int, Value>> chosen;
    return Product(constraint, domains, 0, &tuple, &chosen);
  }

  Status Product(const Constraint& constraint,
                 const std::vector<PositionDomain>& domains, size_t k,
                 std::vector<Value>* tuple,
                 std::vector<std::pair<int, Value>>* chosen) {
    if (out_->instances.size() >= options_.max_instances) {
      out_->complete = false;
      return Status::OK();
    }
    size_t arity = atom_.args.size();
    if (k == arity) {
      Constraint check = constraint;
      for (size_t i = 0; i < arity; ++i) {
        check.Add(Primitive::Eq(atom_.args[i], Term::Const((*tuple)[i])));
      }
      SolveOutcome o = solver_->Solve(check);
      if (o == SolveOutcome::kError) return solver_->last_status();
      if (IsSolvable(o)) {
        if (o == SolveOutcome::kSatDeferred) out_->approximate = true;
        out_->instances.insert(Instance{atom_.pred, *tuple});
      }
      return Status::OK();
    }
    if (domains[k].class_slot >= 0) {
      for (const auto& [slot, val] : *chosen) {
        if (slot == domains[k].class_slot) {
          (*tuple)[k] = val;
          return Product(constraint, domains, k + 1, tuple, chosen);
        }
      }
    }
    for (const Value& v : domains[k].values) {
      (*tuple)[k] = v;
      if (domains[k].class_slot >= 0) {
        chosen->emplace_back(domains[k].class_slot, v);
        MMV_RETURN_NOT_OK(Product(constraint, domains, k + 1, tuple, chosen));
        chosen->pop_back();
      } else {
        MMV_RETURN_NOT_OK(Product(constraint, domains, k + 1, tuple, chosen));
      }
    }
    return Status::OK();
  }

  const ViewAtom& atom_;
  EnumerateOptions options_;
  InstanceSet* out_;
  Solver* solver_;
};

}  // namespace

Result<InstanceSet> EnumerateAtomWith(const ViewAtom& atom, Solver* solver,
                                      const EnumerateOptions& options) {
  InstanceSet out;
  if (atom.constraint.is_false()) return out;
  AtomEnumerator enumerator(atom, solver, options, &out);
  MMV_RETURN_NOT_OK(enumerator.Run());
  return out;
}

Result<InstanceSet> EnumerateAtom(const ViewAtom& atom,
                                  DcaEvaluator* evaluator,
                                  const EnumerateOptions& options) {
  Solver solver(evaluator, options.solver);
  MMV_ASSIGN_OR_RETURN(InstanceSet out,
                       EnumerateAtomWith(atom, &solver, options));
  if (options.solve_stats != nullptr) *options.solve_stats += solver.stats();
  return out;
}

Result<InstanceSet> EnumerateView(const View& view, DcaEvaluator* evaluator,
                                  const EnumerateOptions& options) {
  Solver solver(evaluator, options.solver);
  InstanceSet out;
  for (const ViewAtom& atom : view.atoms()) {
    // Each atom gets only the REMAINING budget: handing every atom the
    // full max_instances would let an N-atom view do ~N times the capped
    // work (and overshoot the cap) before the union check below truncated.
    // An atom capped at `remaining` adds at most `remaining` new
    // instances, so the union can never exceed max_instances.
    EnumerateOptions atom_options = options;
    atom_options.max_instances = options.max_instances - out.instances.size();
    MMV_ASSIGN_OR_RETURN(InstanceSet one,
                         EnumerateAtomWith(atom, &solver, atom_options));
    out.instances.insert(one.instances.begin(), one.instances.end());
    out.complete = out.complete && one.complete;
    out.approximate = out.approximate || one.approximate;
    if (out.instances.size() >= options.max_instances) {
      out.complete = false;
      break;
    }
  }
  assert(out.instances.size() <= options.max_instances);
  if (options.solve_stats != nullptr) *options.solve_stats += solver.stats();
  return out;
}

Result<InstanceSet> EnumerateView(const SnapshotHandle& snapshot,
                                  DcaEvaluator* evaluator,
                                  const EnumerateOptions& options) {
  // Walks the image's global atom order — the same sequence the live
  // view's atoms() held at publication, so a snapshot read enumerates
  // (and budget-truncates) exactly like a live read of that epoch.
  Solver solver(evaluator, options.solver);
  InstanceSet out;
  Status status = Status::OK();
  snapshot->image->ForEachAtom([&](const ViewAtom& atom) {
    // Remaining-budget threading, as in the live overload above.
    EnumerateOptions atom_options = options;
    atom_options.max_instances = options.max_instances - out.instances.size();
    Result<InstanceSet> one = EnumerateAtomWith(atom, &solver, atom_options);
    if (!one.ok()) {
      status = one.status();
      return false;
    }
    out.instances.insert(one->instances.begin(), one->instances.end());
    out.complete = out.complete && one->complete;
    out.approximate = out.approximate || one->approximate;
    if (out.instances.size() >= options.max_instances) {
      out.complete = false;
      return false;
    }
    return true;
  });
  MMV_RETURN_NOT_OK(status);
  assert(out.instances.size() <= options.max_instances);
  if (options.solve_stats != nullptr) *options.solve_stats += solver.stats();
  return out;
}

}  // namespace query
}  // namespace mmv
