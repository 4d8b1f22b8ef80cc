#include "maintenance/del_add.h"

#include <algorithm>

#include "query/enumerate.h"

namespace mmv {
namespace maint {

std::string UpdateAtom::ToString(const VarNames* names) const {
  return PrintAtom(pred, args, constraint, names);
}

namespace {

// Largest variable id occurring in a term vector / constraint.
VarId MaxVar(const TermVec& args, const Constraint& c) {
  VarId max_id = -1;
  std::vector<VarId> vars;
  CollectVars(args, &vars);
  for (VarId v : c.Variables()) vars.push_back(v);
  for (VarId v : vars) max_id = std::max(max_id, v);
  return max_id;
}

}  // namespace

Constraint RebindHead(const TermVec& orig_head, const SimplifiedAtom& s) {
  Constraint c = s.constraint;
  if (c.is_false()) return c;
  for (size_t k = 0; k < orig_head.size() && k < s.head.size(); ++k) {
    if (!(orig_head[k] == s.head[k])) {
      c.Add(Primitive::Eq(orig_head[k], s.head[k]));
    }
  }
  return c;
}

VarFactory FreshFactory(const Program& program, const View& view,
                        const UpdateAtom* request) {
  VarFactory f = program.factory();
  f.ReserveAbove(view.MaxVarId());
  if (request) {
    f.ReserveAbove(MaxVar(request->args, request->constraint));
  }
  return f;
}

VarFactory FreshFactory(const Program& program, const View& view,
                        const std::vector<UpdateAtom>& requests) {
  VarFactory f = FreshFactory(program, view);
  for (const UpdateAtom& r : requests) {
    f.ReserveAbove(MaxVar(r.args, r.constraint));
  }
  return f;
}

Result<std::vector<DelElement>> BuildDel(const View& view,
                                         const UpdateAtom& request,
                                         Solver* solver,
                                         VarFactory* factory_in) {
  std::vector<DelElement> del;
  // A fresh factory for standardizing the request apart from each atom.
  VarFactory local;
  VarFactory& factory = factory_in ? *factory_in : local;
  factory.ReserveAbove(view.MaxVarId());
  factory.ReserveAbove(MaxVar(request.args, request.constraint));

  std::vector<VarId> req_vars;
  CollectVars(request.args, &req_vars);
  for (VarId v : request.constraint.Variables()) {
    if (std::find(req_vars.begin(), req_vars.end(), v) == req_vars.end()) {
      req_vars.push_back(v);
    }
  }
  // Probe with the request's simplified head: an atom whose constant at
  // position k differs from the head's constant there has an overlap that
  // simplifies to false, so the probe may skip it.
  SimplifiedAtom head = SimplifyAtom(request.args, request.constraint);
  if (head.constraint.is_false()) return del;
  View::Candidates candidates = view.Probe(request.pred, head.head);
  for (size_t i; candidates.Next(&i);) {
    const ViewAtom& atom = view.atoms()[i];
    if (View::ConstantsClash(atom.args, head.head)) continue;
    // Standardize the request apart from the atom.
    Substitution renaming = FreshRenaming(req_vars, &factory);
    TermVec req_args = renaming.Apply(request.args);
    Constraint overlap = atom.constraint;
    overlap.AndWith(renaming.Apply(request.constraint));
    for (size_t k = 0; k < req_args.size(); ++k) {
      overlap.Add(Primitive::Eq(atom.args[k], req_args[k]));
    }
    SimplifiedAtom s = SimplifyAtom(atom.args, overlap);
    Constraint deleted_part = RebindHead(atom.args, s);
    if (deleted_part.is_false()) continue;
    SolveOutcome o = solver->Solve(deleted_part);
    if (o == SolveOutcome::kError) return solver->last_status();
    if (!IsSolvable(o)) continue;
    del.push_back(DelElement{i, std::move(deleted_part)});
  }
  return del;
}

Constraint InstanceConstraint(const TermVec& target_args,
                              const TermVec& src_args,
                              const Constraint& src_constraint,
                              VarFactory* factory) {
  // Substitute src head variables by the target argument terms; extra
  // occurrences and constant positions turn into equalities (they share
  // variables with the positive context via target_args).
  Substitution sub;
  std::vector<Primitive> extra;
  for (size_t k = 0; k < src_args.size() && k < target_args.size(); ++k) {
    const Term& a = src_args[k];
    if (a.is_var() && !sub.Contains(a.var())) {
      sub.Bind(a.var(), target_args[k]);
    } else {
      extra.push_back(Primitive::Eq(target_args[k], sub.Apply(a)));
    }
  }
  // Remaining (non-head) variables of the source constraint: fresh names.
  for (VarId v : src_constraint.Variables()) {
    if (!sub.Contains(v)) sub.Bind(v, Term::Var(factory->Fresh()));
  }
  Constraint body = sub.Apply(src_constraint);
  for (Primitive& p : extra) body.Add(std::move(p));
  return body;
}

NotBlock NegatedInstanceBlock(const TermVec& target_args,
                              const TermVec& src_args,
                              const Constraint& src_constraint,
                              VarFactory* factory) {
  Constraint body =
      InstanceConstraint(target_args, src_args, src_constraint, factory);
  if (body.is_true()) {
    // not(true): represent as a block whose body is the vacuous equality —
    // callers normally guard against this (deleting *all* instances).
    body.Add(Primitive::Eq(Term::Const(Value(static_cast<int64_t>(0))),
                           Term::Const(Value(static_cast<int64_t>(0)))));
  }
  return Constraint::Negate(body);
}

Result<std::vector<ViewAtom>> BuildAdd(const View& view,
                                       const UpdateAtom& request,
                                       Solver* solver, int* ext_support) {
  VarFactory factory;
  factory.ReserveAbove(view.MaxVarId());
  factory.ReserveAbove(MaxVar(request.args, request.constraint));

  // Probe with the request's simplified head: an atom whose constant at
  // position k differs from the head's constant there yields a not-block
  // whose body simplifies to false, which the final SimplifyAtom drops.
  SimplifiedAtom head = SimplifyAtom(request.args, request.constraint);
  if (head.constraint.is_false()) return std::vector<ViewAtom>{};
  Constraint add_constraint = request.constraint;
  View::Candidates candidates = view.Probe(request.pred, head.head);
  for (size_t i; candidates.Next(&i);) {
    const ViewAtom& atom = view.atoms()[i];
    if (View::ConstantsClash(atom.args, head.head)) continue;
    if (atom.constraint.is_false()) continue;
    if (atom.constraint.is_true() && atom.args == request.args) {
      // The whole predicate instance space is already present.
      return std::vector<ViewAtom>{};
    }
    Constraint covered = atom.constraint;
    // Express "request instance already equals this atom's instance".
    NotBlock block = NegatedInstanceBlock(request.args, atom.args,
                                          covered, &factory);
    add_constraint.AddNot(std::move(block));
    if (add_constraint.is_false()) return std::vector<ViewAtom>{};
  }

  SimplifiedAtom s = SimplifyAtom(request.args, add_constraint);
  if (s.constraint.is_false()) return std::vector<ViewAtom>{};
  SolveOutcome o = solver->Solve(s.constraint);
  if (o == SolveOutcome::kError) return solver->last_status();
  if (!IsSolvable(o)) return std::vector<ViewAtom>{};

  ViewAtom atom;
  atom.pred = request.pred;
  atom.args = s.head;
  atom.constraint = std::move(s.constraint);
  atom.support = Support(--(*ext_support));
  atom.depth = 0;
  return std::vector<ViewAtom>{std::move(atom)};
}

std::optional<std::vector<NotBlock>> GroundedNegationBlocks(
    const TermVec& args, const Constraint& delta, DcaEvaluator* evaluator,
    size_t limit) {
  if (delta.is_false()) return std::vector<NotBlock>{};
  ViewAtom tmp;
  tmp.pred = "_delta";
  tmp.args = args;
  tmp.constraint = delta;
  query::EnumerateOptions opts;
  opts.max_instances = limit;
  Result<query::InstanceSet> set =
      query::EnumerateAtom(tmp, evaluator, opts);
  if (!set.ok()) return std::nullopt;
  if (!set->complete || set->approximate) return std::nullopt;

  std::vector<NotBlock> blocks;
  blocks.reserve(set->instances.size());
  for (const query::Instance& inst : set->instances) {
    NotBlock b;
    for (size_t k = 0; k < args.size() && k < inst.values.size(); ++k) {
      if (args[k].is_var()) {
        b.prims.push_back(
            Primitive::Eq(args[k], Term::Const(inst.values[k])));
      }
      // Constant positions necessarily match the enumerated value.
    }
    blocks.push_back(std::move(b));
  }
  return blocks;
}

bool SubtractDeletedPart(const TermVec& args, const Constraint& delta,
                         DcaEvaluator* evaluator, Constraint* constraint) {
  if (delta.is_false()) return false;
  if (delta.is_true()) {
    *constraint = Constraint::False();
    return true;
  }
  // Coverage fast path: when delta provably covers the whole atom
  // (constraint ^ not(delta) unsatisfiable), the atom simply dies — no
  // grounding needed. The symbolic check is conservative under the
  // existential reading (it may fail to prove coverage, never the
  // converse), so taking this branch is always sound.
  {
    Solver cover_solver(evaluator);
    Constraint covered = *constraint;
    covered.AddNot(Constraint::Negate(delta));
    if (cover_solver.Solve(covered) == SolveOutcome::kUnsat) {
      *constraint = Constraint::False();
      return true;
    }
  }
  std::optional<std::vector<NotBlock>> blocks =
      GroundedNegationBlocks(args, delta, evaluator);
  if (blocks.has_value()) {
    if (blocks->empty()) return false;  // delta denotes no instances now
    for (NotBlock& b : *blocks) {
      // An all-constant head yields an empty equality body: the single
      // instance IS the atom, so the subtraction empties it.
      constraint->AddNot(std::move(b));
      if (constraint->is_false()) break;
    }
    return true;
  }
  // Fallback: symbolic subtraction (exact when delta only mentions head
  // variables; conservative — never over-deletes — otherwise).
  constraint->AddNot(Constraint::Negate(delta));
  return true;
}

size_t PruneUnsolvable(View* view, Solver* solver) {
  return view->RemoveIf([&](const ViewAtom& a) {
    if (a.constraint.is_false()) return true;
    SolveOutcome o = solver->Solve(a.constraint);
    return o == SolveOutcome::kUnsat;
  });
}

}  // namespace maint
}  // namespace mmv
