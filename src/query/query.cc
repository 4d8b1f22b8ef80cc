#include "query/query.h"

#include <algorithm>
#include <unordered_map>

namespace mmv {
namespace query {

namespace {

// Restricts a copy of \p atom by \p pattern: Eq primitives for constant
// positions, position-equality for repeated pattern variables.
ViewAtom RestrictByPattern(const ViewAtom& atom, const TermVec& pattern) {
  ViewAtom restricted = atom;
  std::unordered_map<VarId, size_t> first_pos;
  for (size_t k = 0; k < pattern.size(); ++k) {
    const Term& p = pattern[k];
    if (p.is_const()) {
      restricted.constraint.Add(
          Primitive::Eq(atom.args[k], Term::Const(p.constant())));
    } else {
      auto it = first_pos.find(p.var());
      if (it == first_pos.end()) {
        first_pos[p.var()] = k;
      } else {
        // Repeated pattern variable: positions must be equal.
        restricted.constraint.Add(
            Primitive::Eq(atom.args[k], atom.args[it->second]));
      }
    }
  }
  return restricted;
}

// Enumerates one pattern-restricted atom into \p out with the REMAINING
// budget, as in EnumerateView: handing every matching atom the full
// max_instances would let the union overshoot the cap. Returns false once
// the cap is reached (callers stop scanning). Every atom of one read runs
// on the read's one solver.
Result<bool> AccumulateMatch(const ViewAtom& atom, const TermVec& pattern,
                             Solver* solver, const EnumerateOptions& options,
                             InstanceSet* out) {
  EnumerateOptions atom_options = options;
  atom_options.max_instances = options.max_instances - out->instances.size();
  MMV_ASSIGN_OR_RETURN(
      InstanceSet one,
      EnumerateAtomWith(RestrictByPattern(atom, pattern), solver,
                        atom_options));
  out->instances.insert(one.instances.begin(), one.instances.end());
  out->complete = out->complete && one.complete;
  out->approximate = out->approximate || one.approximate;
  if (out->instances.size() >= options.max_instances) {
    out->complete = false;
    return false;
  }
  return true;
}

}  // namespace

Result<InstanceSet> QueryPred(const View& view, Symbol pred,
                              const TermVec& pattern,
                              DcaEvaluator* evaluator,
                              const EnumerateOptions& options) {
  // The probe skips only atoms whose restriction is false on constants
  // alone (they contribute no instance and cannot mark the result
  // incomplete), and yields the rest in the scan's ascending order, so the
  // max_instances cap cuts at the same atom a scan would.
  Solver solver(evaluator, options.solver);
  InstanceSet out;
  View::Candidates candidates = view.Probe(pred, pattern);
  for (size_t i; candidates.Next(&i);) {
    const ViewAtom& atom = view.atoms()[i];
    if (View::ConstantsClash(atom.args, pattern)) continue;
    MMV_ASSIGN_OR_RETURN(
        bool keep_going,
        AccumulateMatch(atom, pattern, &solver, options, &out));
    if (!keep_going) break;
  }
  if (options.solve_stats != nullptr) *options.solve_stats += solver.stats();
  return out;
}

Result<InstanceSet> QueryPred(const SnapshotHandle& snapshot, Symbol pred,
                              const TermVec& pattern,
                              DcaEvaluator* evaluator,
                              const EnumerateOptions& options) {
  // The image's per-pred segment holds the same atoms, in the same order,
  // as the live posting list did at publication, so the scan below is
  // byte-identical to the live overload at that epoch.
  Solver solver(evaluator, options.solver);
  InstanceSet out;
  for (const ViewAtom& atom : snapshot->image->AtomsFor(pred)) {
    if (atom.args.size() != pattern.size()) continue;
    MMV_ASSIGN_OR_RETURN(
        bool keep_going,
        AccumulateMatch(atom, pattern, &solver, options, &out));
    if (!keep_going) break;
  }
  if (options.solve_stats != nullptr) *options.solve_stats += solver.stats();
  return out;
}

Result<bool> Ask(const View& view, Symbol pred,
                 const std::vector<Value>& values, DcaEvaluator* evaluator,
                 const EnumerateOptions& options) {
  TermVec pattern;
  pattern.reserve(values.size());
  for (const Value& v : values) pattern.push_back(Term::Const(v));
  // A cap of one instance stops the probe at the first atom that has one.
  EnumerateOptions first = options;
  first.max_instances = std::min<size_t>(options.max_instances, 1);
  MMV_ASSIGN_OR_RETURN(InstanceSet result,
                       QueryPred(view, pred, pattern, evaluator, first));
  return !result.instances.empty();
}

Result<bool> Ask(const SnapshotHandle& snapshot, Symbol pred,
                 const std::vector<Value>& values, DcaEvaluator* evaluator,
                 const EnumerateOptions& options) {
  TermVec pattern;
  pattern.reserve(values.size());
  for (const Value& v : values) pattern.push_back(Term::Const(v));
  MMV_ASSIGN_OR_RETURN(InstanceSet result,
                       QueryPred(snapshot, pred, pattern, evaluator, options));
  return !result.instances.empty();
}

}  // namespace query
}  // namespace mmv
