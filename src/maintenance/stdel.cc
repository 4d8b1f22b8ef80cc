#include "maintenance/stdel.h"

#include <algorithm>
#include <iterator>
#include <memory>

#include "constraint/simplify.h"
#include "core/thread_pool.h"
#include "plan/partition.h"
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

// Re-expresses a simplified constraint over the original head arguments.
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

// Step 3's lift: reassembles the derivation of `parent` through `renamed`
// with the deleted part at `child_slot` and the (current) sibling atoms
// elsewhere — conditions (a)-(b) — then simplifies and re-expresses the
// result over the parent's own head variables. Returns false when a
// sibling is gone (condition (b) fails). Reads only snapshot state (the
// pair, `original` constraints, immutable atom args/supports), so
// concurrent calls for different parents are independent; fresh variables
// come from the caller's \p factory.
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

// One parent visit scheduled for a parallel lift check.
struct LiftItem {
  size_t parent_idx = 0;
  size_t child_slot = 0;
  const Clause* clause = nullptr;
  std::shared_ptr<const plan::ClausePlan> plan;
};

// What the parallel lift check hands back to the sequential apply phase.
struct LiftOutcome {
  Constraint lifted;
  bool applicable = false;  ///< lift nonempty and solvable
  Status status;            ///< evaluator failure, checked in apply order
  SolveStats solver;
};

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
                        StDelStats* stats, plan::PlanCache* plans,
                        int num_threads) {
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
  // worklist itself is inherently sequential (each replacement can expose
  // new pairs), but with num_threads > 1 the per-parent LIFT CHECKS of one
  // pair — independent reads of snapshot state — fan out across threads,
  // and the subtractions are applied afterwards in the sequential sweep's
  // parent order, so propagation is order-identical either way. The
  // workers share the evaluator unserialized, so only one that vouches
  // for concurrent pure reads allows the fan-out; the epoch check after
  // each fan-out polices the single-writer contract that claim rests on.
  std::vector<std::pair<size_t, size_t>> parents;  // scratch, reused
  std::vector<LiftItem> lift_items;                // scratch, reused
  VarSet var_set;                                  // scratch, reused
  const bool may_fan_out =
      num_threads > 1 &&
      (evaluator == nullptr || evaluator->ConcurrentReadSafe());
  SolveStats parallel_solver;  // lift-check counters, apply order
  for (size_t qi = 0; qi < pout.size(); ++qi) {
    Pair pair = pout[qi];  // copy: the vector grows as we iterate
    parents.clear();
    view->ForEachParentOfChild(pair.spt, [&](size_t p, size_t k) {
      parents.emplace_back(p, k);
    });

    // Parallel lift checks need the staging id range to be recognizable:
    // if the run's real factory ever nears kStagingVarBase (ids seeded
    // from the view's high-water mark), RemapStagingVars could rebind REAL
    // variables of the lifted constraint — fall back to the sequential
    // sweep, mirroring the fixpoint engine's per-round guard. Each fan-out
    // is chunked into contiguous item shards (plan/partition.h, the same
    // arithmetic the fixpoint round uses): one task per shard instead of
    // one per item, and parent sweeps too small to amortize the staging
    // overhead stay sequential.
    int parts = 1;
    if (may_fan_out && parents.size() > 1 &&
        factory.issued() < kStagingVarBase / 2) {
      parts = plan::PartitionCountFor(parents.size(), num_threads,
                                      /*min_per_shard=*/2);
      if (parts <= 1) stats->partition_skipped_small++;
    }
    if (parts > 1) {
      // Collect phase: marked / clause / arity screening and the plan-cache
      // lookups stay on this thread (PlanCache is not synchronized).
      lift_items.clear();
      for (auto [parent_idx, child_slot] : parents) {
        const ViewAtom& parent = view->atoms()[parent_idx];
        if (!parent.marked) continue;
        const Clause* clause =
            program.ClauseByNumber(parent.support.clause());
        if (clause == nullptr) continue;  // externally inserted: no clause
        if (clause->body.size() != parent.support.children().size()) {
          continue;
        }
        lift_items.push_back(LiftItem{parent_idx, child_slot, clause,
                                      plans->PlanFor(program, *clause)});
      }
      stats->partitions_run += parts;
      if (evaluator != nullptr) {
        stats->evaluator_clones += static_cast<int64_t>(lift_items.size());
      }
      int64_t epoch_before =
          evaluator != nullptr ? evaluator->StateEpoch() : 0;
      std::vector<LiftOutcome> outcomes(lift_items.size());
      ThreadPool::Global().ParallelFor(
          static_cast<size_t>(parts), num_threads, [&](size_t shard) {
            auto [item_begin, item_end] = plan::PartitionRange(
                lift_items.size(), parts, static_cast<int>(shard));
            for (size_t i = item_begin; i < item_end; ++i) {
              const LiftItem& item = lift_items[i];
              LiftOutcome& out = outcomes[i];
              VarFactory staging;
              staging.ReserveAbove(kStagingVarBase);
              VarSet item_vars;
              Clause renamed =
                  item.clause->RenameWith(item.plan->clause_vars, &staging);
              const ViewAtom& parent = view->atoms()[item.parent_idx];
              Constraint lifted;
              if (!BuildLift(*view, original_constraints, pair, parent,
                             item.child_slot, renamed, &staging, &item_vars,
                             &lifted)) {
                continue;
              }
              if (lifted.is_false()) continue;
              Solver item_solver(evaluator, solver_options);
              SolveOutcome o = item_solver.Solve(lifted);  // condition (c)
              out.solver = item_solver.stats();
              if (o == SolveOutcome::kError) {
                out.status = item_solver.last_status();
                continue;
              }
              if (!IsSolvable(o)) continue;
              out.applicable = true;
              out.lifted = std::move(lifted);
            }
          });
      // The workers read the external state unguarded; a writer
      // slipping in mid-sweep would have produced silently inconsistent
      // lift verdicts. Fail loudly instead of applying them.
      if (evaluator != nullptr && evaluator->StateEpoch() != epoch_before) {
        return Status::Internal(
            "external state changed under a parallel StDel lift sweep "
            "(evaluator epoch " + std::to_string(epoch_before) + " -> " +
            std::to_string(evaluator->StateEpoch()) +
            "); concurrent evaluation requires a quiescent external "
            "database");
      }
      // Apply phase: the sequential sweep's parent order.
      for (size_t i = 0; i < lift_items.size(); ++i) {
        LiftOutcome& out = outcomes[i];
        MMV_RETURN_NOT_OK(out.status);
        parallel_solver += out.solver;
        if (!out.applicable) continue;
        RemapVarsAtOrAbove(kStagingVarBase, &factory, /*args=*/nullptr,
                           &out.lifted, &var_set);
        ViewAtom& parent = view->MutableAtom(lift_items[i].parent_idx);
        if (!SubtractDeletedPart(parent.args, out.lifted, evaluator,
                                 &parent.constraint)) {
          continue;  // the lifted part denotes no instances
        }
        stats->replacements++;
        pout.push_back(
            Pair{parent.pred, parent.args, out.lifted, parent.support});
      }
      continue;
    }

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
  stats->solver += parallel_solver;
  return Status::OK();
}

}  // namespace maint
}  // namespace mmv
