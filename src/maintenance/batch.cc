#include "maintenance/batch.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "constraint/canonical.h"
#include "plan/plan_cache.h"

namespace mmv {
namespace maint {

namespace {

// Seeds a fresh external-support counter below every clause number found
// anywhere in the view's support trees. Scanning roots alone would miss
// external leaves buried inside derived supports and hand out a colliding
// number.
int SeedExtCounter(const View& view) {
  int counter = 0;
  for (const ViewAtom& a : view.atoms()) {
    counter = std::min(counter, a.support.MinClause());
  }
  return counter;
}

// A truncated insertion continuation (max_atoms / max_iterations) left the
// view without some consequences of the inserted atoms; maintaining past
// it would commit and publish an incomplete view as if it were closed.
Status TruncatedInsert() {
  return Status::ResourceExhausted(
      "insertion continuation truncated (max_atoms / max_iterations); the "
      "maintained view would be incomplete");
}

// Lifts a solver's fast-path screens into the batch totals.
void AddSolverScreens(const SolveStats& from, BatchStats& to) {
  MMV_SAT_COUNTERS(MMV_LIFT_COUNTER_)
}

// Folds one StDel pass over \p requests delete requests into \p stats.
void AddDeletePass(const StDelStats& s, size_t requests, BatchStats* stats) {
  stats->delete_passes++;
  stats->deletions_applied += requests;
  stats->del_elements += s.del_elements;
  stats->replacements += s.replacements;
  stats->step3_replacements += s.step3_replacements();
  stats->removed_unsolvable += s.removed_unsolvable;
  stats->plan_cache_hits += s.plan_cache_hits;
  AddSolverScreens(s.solver, *stats);
}

// Folds one insertion pass over \p requests insert requests into \p stats:
// its continuation's plan-layer and fan-out counters (the list
// FixpointStats and BatchStats splice) and both its solvers' screens.
void AddInsertPass(const InsertStats& s, size_t requests, BatchStats* stats) {
  stats->insert_passes++;
  stats->insertions_applied += requests;
  stats->add_atoms += s.add_atoms;
  stats->insertion_pass_atoms += s.atoms_added;
  const FixpointStats& from = s.unfold;
  BatchStats& to = *stats;
  MMV_PASS_COUNTERS(MMV_LIFT_COUNTER_)
  AddSolverScreens(from.solver, to);
  AddSolverScreens(s.solver, to);
}

// Predicates participating in any non-fact clause, as head or body atom.
// Delete+re-insert cancellation is only sound OUTSIDE this set: a derived
// head swaps derived coverage for an independent external support, and a
// body predicate's re-insert re-derives descendants (resurrecting derived
// atoms deleted earlier — in this burst or in the view's whole history).
std::unordered_set<Symbol> RuleParticipants(const Program& program) {
  std::unordered_set<Symbol> preds;
  for (const Clause& c : program.clauses()) {
    if (c.IsFact()) continue;
    preds.insert(c.head_pred);
    for (const BodyAtom& b : c.body) preds.insert(b.pred);
  }
  return preds;
}

}  // namespace

BatchPlan PlanBatch(const Program& program,
                    const std::vector<Update>& updates) {
  BatchPlan plan;
  plan.input_updates = updates.size();
  std::unordered_set<Symbol> rule_preds = RuleParticipants(program);

  struct Emitted {
    bool dead = false;
    // Running totals taken right AFTER this op was emitted; comparing them
    // against the current totals tells whether any insert/delete was kept
    // in between.
    size_t inserts_any = 0;
    size_t deletes_any = 0;
  };
  std::vector<Emitted> emitted(updates.size());
  std::vector<size_t> kept;  // indices into `updates` / `emitted`
  kept.reserve(updates.size());
  // Latest surviving op per canonical atom key.
  std::unordered_map<CanonicalKey, size_t, CanonicalKey::Hasher> last_by_key;
  std::string scratch;
  size_t inserts_any = 0, deletes_any = 0;

  for (size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    CanonicalKey key = CanonicalAtomKey(u.atom.pred, u.atom.args,
                                        u.atom.constraint,
                                        /*assume_simplified=*/false, &scratch);
    auto it = last_by_key.find(key);
    size_t prev = it == last_by_key.end() ? i : it->second;
    bool has_prev = it != last_by_key.end() && !emitted[prev].dead;
    bool prev_is_insert =
        has_prev && updates[prev].kind == Update::Kind::kInsert;

    if (u.kind == Update::Kind::kInsert) {
      if (has_prev && prev_is_insert &&
          deletes_any == emitted[prev].deletes_any) {
        // Duplicate insert: still covered, its Add set would be empty.
        continue;
      }
      if (has_prev && !prev_is_insert &&
          deletes_any == emitted[prev].deletes_any &&
          rule_preds.count(u.atom.pred) == 0) {
        // Delete k ... insert k with only inserts in between, k not
        // touching any rule: deleting and re-asserting a purely leaf-level
        // atom nets to asserting it. For a rule participant the pair is
        // kept — a derived k would swap derived coverage for an
        // independent external support (observable by later ancestor
        // deletions), and a body-predicate k's re-insert re-derives its
        // descendants (resurrecting derived atoms deleted beforehand).
        emitted[prev].dead = true;
      }
    } else {
      if (has_prev && !prev_is_insert &&
          inserts_any == emitted[prev].inserts_any) {
        // Duplicate delete: nothing could have re-added the instances.
        continue;
      }
      if (has_prev && prev_is_insert &&
          inserts_any == emitted[prev].inserts_any) {
        // Insert k ... delete k with no insert in between: the delete wipes
        // the inserted instances and their consequences anyway.
        emitted[prev].dead = true;
      }
    }

    if (u.kind == Update::Kind::kInsert) {
      ++inserts_any;
    } else {
      ++deletes_any;
    }
    emitted[i].inserts_any = inserts_any;
    emitted[i].deletes_any = deletes_any;
    kept.push_back(i);
    last_by_key[key] = i;
  }

  plan.ops.reserve(kept.size());
  for (size_t i : kept) {
    if (!emitted[i].dead) plan.ops.push_back(updates[i]);
  }
  plan.coalesced_away = plan.input_updates - plan.ops.size();
  return plan;
}

Status ApplyBatch(const Program& program, View* view,
                  const std::vector<Update>& updates, DcaEvaluator* evaluator,
                  const FixpointOptions& options, BatchStats* stats,
                  int* ext_support_counter, SnapshotStore* snapshots,
                  BurstLog* log) {
  BatchStats local_stats;
  if (!stats) stats = &local_stats;
  *stats = BatchStats();
  int local_counter = 0;
  if (!ext_support_counter) {
    local_counter = SeedExtCounter(*view);
    ext_support_counter = &local_counter;
  }

  // Log-ahead-of-apply: the EXACT requested burst (not the coalesced plan
  // — replay re-plans, so the record stays meaningful if the planner
  // changes) is journaled before the first pass touches the view. The
  // record stays pending until the whole burst applied.
  if (log != nullptr) {
    MMV_RETURN_NOT_OK(log->LogBurst(updates));
  }

  BatchPlan plan = PlanBatch(program, updates);
  stats->input_updates = plan.input_updates;
  stats->coalesced_away = plan.coalesced_away;

  // One compiled-plan cache spans the whole batch: StDel step-3 renames,
  // BuildAdd continuations and every insert run's fixpoint flushes all
  // reuse the same per-program clause plans. A caller-provided cache
  // (FixpointOptions::plan_cache) outlives the batch instead.
  plan::PlanCache batch_plans;
  FixpointOptions batch_options = options;
  if (batch_options.plan_cache == nullptr) {
    batch_options.plan_cache = &batch_plans;
  }

  // Execute maximal same-kind runs: one multi-atom StDel pass per delete
  // run, one Add pass + seminaive continuation per insert run.
  auto run_passes = [&]() -> Status {
    size_t i = 0;
    while (i < plan.ops.size()) {
      size_t j = i;
      while (j < plan.ops.size() && plan.ops[j].kind == plan.ops[i].kind) ++j;
      std::vector<UpdateAtom> requests;
      requests.reserve(j - i);
      for (size_t k = i; k < j; ++k) requests.push_back(plan.ops[k].atom);

      if (plan.ops[i].kind == Update::Kind::kDelete) {
        StDelStats s;
        MMV_RETURN_NOT_OK(DeleteStDelBatch(program, view, requests, evaluator,
                                           batch_options.solver, &s,
                                           batch_options.plan_cache));
        AddDeletePass(s, requests.size(), stats);
      } else {
        InsertStats s;
        MMV_RETURN_NOT_OK(InsertBatch(program, view, requests, evaluator,
                                      batch_options, &s, ext_support_counter));
        if (s.unfold.truncated) return TruncatedInsert();
        AddInsertPass(s, requests.size(), stats);
      }
      i = j;
    }
    return Status::OK();
  };
  Status applied = run_passes();
  if (!applied.ok()) {
    // A failed batch leaves NO record: recovery replays exactly the clean
    // prefix of bursts, matching the snapshot layer's failure atomicity.
    if (log != nullptr) log->AbortBurst();
    return applied;
  }
  // ONE image extraction serves both consumers below: the durable log
  // checkpoints it (and diffs it against the previous checkpoint's image)
  // and the snapshot store publishes it to readers. Extraction is
  // O(delta) — untouched per-pred segments are re-pointed at the previous
  // epoch's image, and only the preds this burst dirtied are copied.
  if (log != nullptr || snapshots != nullptr) {
    View::ImageExtractStats image_stats;
    SnapshotImageHandle image = view->ExtractImage(&image_stats);
    stats->snapshot_nodes_shared += image_stats.segments_shared;
    stats->snapshot_nodes_copied += image_stats.segments_copied;
    // Durable-commit point, deliberately BEFORE epoch publication: once a
    // reader can pin the post-batch epoch the log must already own the
    // burst, or a crash would roll the store behind what readers observed.
    if (log != nullptr) {
      MMV_RETURN_NOT_OK(log->CommitBurst(image, stats));
    }
    // The epoch publication point: one immutable snapshot per cleanly
    // applied burst. Errors above returned already — a failed batch
    // publishes nothing, so concurrent readers keep the pre-batch epoch.
    if (snapshots != nullptr) {
      snapshots->PublishImage(std::move(image));
      stats->epochs_published++;
    }
  }
  return Status::OK();
}

Status ApplyUpdatesSequential(const Program& program, View* view,
                              const std::vector<Update>& updates,
                              DcaEvaluator* evaluator,
                              const FixpointOptions& options,
                              BatchStats* stats, int* ext_support_counter) {
  BatchStats local_stats;
  if (!stats) stats = &local_stats;
  *stats = BatchStats();
  stats->input_updates = updates.size();
  int local_counter = 0;
  if (!ext_support_counter) {
    local_counter = SeedExtCounter(*view);
    ext_support_counter = &local_counter;
  }

  for (const Update& u : updates) {
    if (u.kind == Update::Kind::kDelete) {
      StDelStats s;
      MMV_RETURN_NOT_OK(DeleteStDel(program, view, u.atom, evaluator,
                                    options.solver, &s));
      AddDeletePass(s, 1, stats);
    } else {
      InsertStats s;
      MMV_RETURN_NOT_OK(InsertAtom(program, view, u.atom, evaluator, options,
                                   &s, ext_support_counter));
      if (s.unfold.truncated) return TruncatedInsert();
      AddInsertPass(s, 1, stats);
    }
  }
  return Status::OK();
}

Result<bool> IsDuplicateFree(const View& view, DcaEvaluator* evaluator) {
  Solver solver(evaluator);
  VarFactory factory;
  for (const ViewAtom& a : view.atoms()) {
    std::vector<VarId> vars;
    CollectVars(a.args, &vars);
    for (VarId v : a.constraint.Variables()) factory.ReserveAbove(v);
    for (VarId v : vars) factory.ReserveAbove(v);
  }

  const auto& atoms = view.atoms();
  for (size_t i = 0; i < atoms.size(); ++i) {
    for (size_t j = i + 1; j < atoms.size(); ++j) {
      if (atoms[i].pred != atoms[j].pred ||
          atoms[i].args.size() != atoms[j].args.size()) {
        continue;
      }
      // Overlap: atom i's constraint conjoined with "args are an instance
      // of atom j".
      Constraint overlap = Constraint::And(
          atoms[i].constraint,
          InstanceConstraint(atoms[i].args, atoms[j].args,
                             atoms[j].constraint, &factory));
      SolveOutcome o = solver.Solve(overlap);
      if (o == SolveOutcome::kError) return solver.last_status();
      if (IsSolvable(o)) return false;  // shared instances (or undecided)
    }
  }
  return true;
}

}  // namespace maint
}  // namespace mmv
