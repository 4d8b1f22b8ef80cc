#include "maintenance/stdel.h"

#include <iterator>
#include <utility>

#include "constraint/simplify.h"
#include "plan/plan_cache.h"

namespace mmv {
namespace maint {

namespace {

// A P_OUT pair: the deleted part of an atom plus the atom's support.
struct Pair {
  Symbol pred;
  TermVec args;
  Constraint deleted;  ///< over the atom's head variables (positive form)
  Support spt;
};

// Step 3's lift: reassembles the derivation of `parent` through `renamed`
// with the deleted part at `child_slot` and the (current) sibling atoms
// elsewhere — conditions (a)-(b) — then simplifies and re-expresses the
// result over the parent's own head variables. Returns false when a
// sibling is gone (condition (b) fails). Fresh variables come from
// \p factory.
bool BuildLift(const View& view, const std::vector<Constraint>& original,
               const Pair& pair, const ViewAtom& parent, size_t child_slot,
               const Clause& renamed, VarFactory* factory, VarSet* var_set,
               Constraint* out) {
  size_t n = renamed.body.size();
  Constraint delta = renamed.constraint;
  for (size_t i = 0; i < n; ++i) {
    const TermVec* inst_args;
    const Constraint* inst_c;
    if (i == child_slot) {
      inst_args = &pair.args;
      inst_c = &pair.deleted;
    } else {
      int64_t sib = view.IndexOfSupport(parent.support.children()[i]);
      if (sib < 0) return false;  // condition (b) fails
      const ViewAtom& sib_atom = view.atoms()[static_cast<size_t>(sib)];
      inst_args = &sib_atom.args;
      inst_c = &original[static_cast<size_t>(sib)];
    }
    var_set->Clear();
    var_set->AddTerms(*inst_args);
    inst_c->CollectVariables(var_set);
    Substitution rho = FreshRenaming(var_set->vars(), factory);
    TermVec a = rho.Apply(*inst_args);
    delta.AndWith(rho.Apply(*inst_c));
    for (size_t k = 0; k < a.size(); ++k) {
      delta.Add(Primitive::Eq(a[k], renamed.body[i].args[k]));
    }
  }
  // Bridge to the parent's own head variables.
  for (size_t k = 0; k < parent.args.size(); ++k) {
    delta.Add(Primitive::Eq(parent.args[k], renamed.head_args[k]));
  }
  SimplifiedAtom s = SimplifyAtom(parent.args, delta);
  *out = RebindHead(parent.args, s);
  return true;
}

}  // namespace

Status DeleteStDel(const Program& program, View* view,
                   const UpdateAtom& request, DcaEvaluator* evaluator,
                   const SolverOptions& solver_options, StDelStats* stats) {
  return DeleteStDelBatch(program, view, {request}, evaluator, solver_options,
                          stats);
}

Status DeleteStDelBatch(const Program& program, View* view,
                        const std::vector<UpdateAtom>& requests,
                        DcaEvaluator* evaluator,
                        const SolverOptions& solver_options,
                        StDelStats* stats, plan::PlanCache* plans) {
  StDelStats local;
  if (!stats) stats = &local;
  *stats = StDelStats();
  // Step 3 consumes compiled clause plans only for their precomputed
  // variable lists.
  plan::PlanCache local_plans;
  if (plans == nullptr) plans = &local_plans;
  const int64_t plan_hits_start = plans->stats().cache_hits;
  Solver solver(evaluator, solver_options);
  VarFactory factory = FreshFactory(program, *view, requests);

  // Step 1: mark every constraint atom in M — once for the whole batch.
  view->MarkAll(true);

  // Input: the union of the requests' Del sets, every overlap computed
  // against the PRE-deletion constraints. Overlapping requests may both
  // record a deleted part of the same atom; subtraction is idempotent at
  // the instance level, so the union propagates exactly what sequential
  // single-request runs would. Sharing the run's factory keeps every fresh
  // variable of this batch in one issuance stream.
  std::vector<DelElement> del;
  for (const UpdateAtom& request : requests) {
    MMV_ASSIGN_OR_RETURN(std::vector<DelElement> part,
                         BuildDel(*view, request, &solver, &factory));
    del.insert(del.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  stats->del_elements = del.size();
  if (del.empty()) {
    stats->solver = solver.stats();
    return Status::OK();
  }

  // Snapshot the pre-deletion constraints: step 3's lift reassembles the
  // derivation as it existed when it was made, so sibling contributions use
  // their ORIGINAL constraints. (Derivations lost through a sibling's own
  // deletion are subtracted by that sibling's P_OUT pair separately;
  // using the already-replaced sibling constraint here would make the lift
  // unsatisfiable whenever several body atoms die together, leaving the
  // parent's lost instances behind.)
  std::vector<Constraint> original_constraints;
  original_constraints.reserve(view->size());
  for (const ViewAtom& a : view->atoms()) {
    original_constraints.push_back(a.constraint);
  }

  // Support lookups go through the view's incrementally-maintained indexes
  // (supports are unique identities, Lemma 1); nothing is rebuilt here.
  // Step 3 only replaces constraints in place, which leaves both the
  // support hash index and the child-support index valid throughout.

  // Step 2: subtract the Del overlaps and seed P_OUT.
  std::vector<Pair> pout;
  for (const DelElement& e : del) {
    ViewAtom& atom = view->MutableAtom(e.atom_index);
    if (!SubtractDeletedPart(atom.args, e.deleted_part, evaluator,
                             &atom.constraint)) {
      continue;  // the overlap denotes no instances at the current state
    }
    stats->replacements++;
    stats->step2_replacements++;
    pout.push_back(Pair{atom.pred, atom.args, e.deleted_part, atom.support});
  }

  // Step 3: propagate along supports until no replacement happens. The
  // worklist is sequential: each replacement can add a new P_OUT pair.
  std::vector<std::pair<size_t, size_t>> parents;  // scratch, reused
  VarSet var_set;                                  // scratch, reused
  for (size_t qi = 0; qi < pout.size(); ++qi) {
    Pair pair = pout[qi];  // copy: the vector grows as we iterate
    parents.clear();
    view->ForEachParentOfChild(pair.spt, [&](size_t p, size_t k) {
      parents.emplace_back(p, k);
    });
    for (auto [parent_idx, child_slot] : parents) {
      ViewAtom& parent = view->MutableAtom(parent_idx);
      if (!parent.marked) continue;

      const Clause* clause = program.ClauseByNumber(parent.support.clause());
      if (clause == nullptr) continue;  // externally inserted: no clause
      // Standardize the clause apart via its compiled plan's precomputed
      // variable list — one hash lookup instead of a full clause walk per
      // visited parent.
      Clause renamed = clause->RenameWith(
          plans->PlanFor(program, *clause)->clause_vars, &factory);
      if (renamed.body.size() != parent.support.children().size()) continue;

      // Reassemble the derivation with the deleted part at child_slot and
      // the (current) sibling atoms elsewhere — conditions (a)-(c).
      Constraint lifted;
      if (!BuildLift(*view, original_constraints, pair, parent, child_slot,
                     renamed, &factory, &var_set, &lifted)) {
        continue;
      }
      if (lifted.is_false()) continue;
      SolveOutcome o = solver.Solve(lifted);  // condition (c)
      if (o == SolveOutcome::kError) return solver.last_status();
      if (!IsSolvable(o)) continue;

      if (!SubtractDeletedPart(parent.args, lifted, evaluator,
                               &parent.constraint)) {
        continue;  // the lifted part denotes no instances
      }
      stats->replacements++;
      pout.push_back(Pair{parent.pred, parent.args, lifted, parent.support});
    }
  }
  stats->pout_pairs = pout.size();

  // Step 4: drop atoms whose constraints became unsolvable.
  stats->removed_unsolvable = PruneUnsolvable(view, &solver);
  // Steps 2/3 wrote factory-fresh variables into surviving constraints;
  // raise the view's high-water mark so later updates stay standardized
  // apart from them.
  view->NoteExternalVars(factory.issued());
  stats->plan_cache_hits = plans->stats().cache_hits - plan_hits_start;
  stats->solver = solver.stats();
  return Status::OK();
}

}  // namespace maint
}  // namespace mmv
