#include "core/fixpoint.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "core/thread_pool.h"
#include "plan/partition.h"
#include "plan/plan_cache.h"

namespace mmv {

namespace {

// Hard ceiling on variable ids. Attempted derivations rename their clause
// and instances even when the result is pruned, so a pathological pass can
// burn ids far faster than it stages atoms; wrapping VarId (signed, 32-bit)
// would alias variables across derivations — and staging-factory ids that
// wrapped below kStagingVarBase would dodge the merge remap. Fail loudly
// with plenty of headroom instead.
constexpr VarId kVarIdCeiling =
    std::numeric_limits<VarId>::max() - (VarId{1} << 20);

// Where a clause pass's derived atoms go. Inline passes add them to the
// view immediately (dedup included); fanned-out passes stage them per
// slice for the round's ordered merge.
class DeriveSink {
 public:
  virtual ~DeriveSink() = default;
  /// Delivers one surviving derivation. \p presimplified records that
  /// (args, constraint) already went through SimplifyAtom.
  virtual void Emit(ViewAtom atom, bool presimplified) = 0;
  /// True when the pass must stop enumerating (atom budget exhausted).
  virtual bool Full() const = 0;
};

// The frozen seminaive windows of one planned clause pass (PreparePass
// output): per body position, the posting list and the list positions of
// delta_begin / delta_end.
struct PassWindows {
  size_t delta_begin = 0, delta_end = 0;
  std::vector<const std::vector<size_t>*> lists;
  std::vector<std::pair<size_t, size_t>> cut;
};

// One clause pass over a fixed view prefix: the join executors (naive
// nested-loop oracle and the compiled-plan slice executor) plus the shared
// derivation tail (constraint assembly, simplify, solve). Everything the
// pass writes goes through its DeriveSink / FixpointStats bindings, so one
// ClauseRunner serves the engine's inline passes (bound to the live view
// and engine stats) and each fanned-out slice (bound to its staging).
//
// Reads only view indexes and atoms below the round's delta_end; within a
// round those are frozen (appends land at indices >= delta_end), which is
// what makes concurrent passes against one view sound.
class ClauseRunner {
 public:
  ClauseRunner(const View& view, const FixpointOptions& options,
               Solver* solver, VarFactory* factory)
      : view_(view), options_(options), solver_(solver), factory_(factory) {}

  /// \brief Points the runner's output at \p stats / \p sink (per slice
  /// for fanned-out workers; once for the engine's own runner).
  void Bind(FixpointStats* stats, DeriveSink* sink) {
    stats_ = stats;
    sink_ = sink;
  }

  // ---- kNaive: the legacy nested-loop join (differential oracle) --------

  // Enumerates body-atom combinations for clause c with the standard
  // seminaive pivot trick: position `pivot` ranges over the newest delta,
  // earlier positions over strictly older atoms, later positions over
  // everything up to delta_end.
  Status RunNaive(const Clause& c, size_t delta_begin, size_t delta_end,
                  int round) {
    size_t n = c.body.size();
    std::vector<const std::vector<size_t>*> lists(n);
    for (size_t i = 0; i < n; ++i) {
      const std::vector<size_t>& list = view_.AtomsFor(c.body[i].pred);
      if (list.empty()) return Status::OK();  // no candidates at all
      lists[i] = &list;
    }
    std::vector<size_t> chosen(n);
    for (size_t pivot = 0; pivot < n; ++pivot) {
      MMV_RETURN_NOT_OK(
          Recurse(c, lists, pivot, 0, delta_begin, delta_end, round, &chosen));
      if (sink_->Full()) break;
    }
    return Status::OK();
  }

  // ---- kIndexed: the planned slice executor -----------------------------
  //
  // A planned round runs as (clause, pivot[, shard]) slices: each nonempty
  // seminaive pivot of a runnable clause is its own pass — sound without
  // barriers because every pivot's windows read only the frozen prefix
  // below delta_end — and a pivot whose delta window is large enough may
  // be split further into contiguous shards of its depth-0 candidate
  // sequence (plan/partition.h). Every plan order starts at its pivot, so
  // depth 0 is always the pivot's own delta window.

  /// \brief Resolves the pass's posting lists and hoisted seminaive
  /// windows: the posting-list positions of delta_begin and delta_end per
  /// body position, computed once per clause instead of per recursion
  /// step. Appends during derivation only push indices >= delta_end, so
  /// the cut positions stay correct throughout. Returns false when the
  /// pass cannot derive — a body predicate with no atoms at all, or one
  /// with no atoms below delta_end (every window empty; atoms past
  /// delta_end exist when an EARLIER clause of this round already
  /// appended, and cutting on the windowed count keeps the verdict a pure
  /// function of the frozen prefix). Pure read: writes no stats, so the
  /// round can screen every clause before deciding where slices run.
  bool PreparePass(const Clause& c, size_t delta_begin, size_t delta_end,
                   PassWindows* w) const {
    size_t n = c.body.size();
    w->delta_begin = delta_begin;
    w->delta_end = delta_end;
    w->lists.assign(n, nullptr);
    w->cut.assign(n, {0, 0});
    for (size_t i = 0; i < n; ++i) {
      const std::vector<size_t>& list = view_.AtomsFor(c.body[i].pred);
      if (list.empty()) return false;  // no candidates at all
      w->lists[i] = &list;
      w->cut[i] = {LowerBoundPos(list, delta_begin),
                   LowerBoundPos(list, delta_end)};
      if (w->cut[i].second == 0) return false;
    }
    return true;
  }

  /// \brief Runs one slice of a prepared pass: the whole (clause, pivot)
  /// pass, or — given \p pool — the shard pool[begin, end) of the pivot's
  /// materialized depth-0 candidates. A shard does not count depth-0
  /// probes; MaterializePivotCandidates already did, once per pivot.
  Status RunSlice(const Clause& c, const plan::ClausePlan& plan,
                  const PassWindows& windows, size_t pivot, int round,
                  const std::vector<size_t>* pool = nullptr, size_t begin = 0,
                  size_t end = 0) {
    BeginPass(c, plan, windows, pivot, round);
    if (pool == nullptr) return RecursePlanned(0);
    for (size_t i = begin; i < end; ++i) {
      MMV_RETURN_NOT_OK(TryCandidate(0, (*pool)[i]));
      if (sink_->Full()) break;
    }
    return Status::OK();
  }

  /// \brief Appends a sharded pivot's depth-0 candidates to \p out in
  /// exactly the order a whole-pivot slice enumerates them. Runs ONCE per
  /// (clause, pivot) on the engine thread — it counts the depth-0
  /// index_probes / probe_intersections into the bound stats, and shards
  /// then enumerate contiguous subranges without re-probing, so the probe
  /// counters stay identical to num_threads=1 whatever the shard count.
  void MaterializePivotCandidates(const Clause& c,
                                  const plan::ClausePlan& plan,
                                  const PassWindows& windows, size_t pivot,
                                  std::vector<size_t>* out) {
    BeginPass(c, plan, windows, pivot, /*round=*/0);
    Candidates candidates = SelectCandidates(0);
    for (size_t idx; candidates.Next(&idx);) out->push_back(idx);
  }

  // ---- shared derivation tail -------------------------------------------

  // Executes one derivation: clause c applied to the chosen instances.
  Status Derive(const Clause& c, const std::vector<size_t>& chosen,
                int round) {
    if (factory_->issued() >= kVarIdCeiling) {
      return Status::Internal(
          "variable id space exhausted deriving clause " +
          std::to_string(c.number));
    }
    stats_->derivations_attempted++;
    // Pre-rename join screen (T_P only — W_P keeps unsolvable atoms): a
    // provably-unsatisfiable candidate is pruned before the clause rename,
    // per-instance standardization and constraint assembly below ever
    // allocate. Sound for rejection only, so the pruned set — and
    // unsat_pruned, which the slow path increments for the same candidates
    // via simplify/Solve — is identical with the fast path off. Candidates
    // with an arity mismatch get no verdict (RejectJoin screens that
    // itself), keeping the error path below intact.
    if (options_.op == OperatorKind::kTp && options_.solver.fastpath &&
        !chosen.empty()) {
      join_components_.clear();
      join_components_.reserve(chosen.size());
      for (size_t i = 0; i < chosen.size(); ++i) {
        const ViewAtom& inst = view_.atoms()[chosen[i]];
        join_components_.push_back(
            {&inst.args, &inst.constraint, &c.body[i].args});
      }
      if (solver_->RejectJoin(c.constraint, join_components_)) {
        stats_->unsat_pruned++;
        return Status::OK();
      }
    }
    Clause renamed = c.Rename(factory_);
    Constraint acc = renamed.constraint;
    std::vector<Support> children;
    children.reserve(chosen.size());

    for (size_t i = 0; i < chosen.size(); ++i) {
      const ViewAtom& inst = view_.atoms()[chosen[i]];
      const TermVec& pattern = renamed.body[i].args;
      if (inst.args.size() != pattern.size()) {
        return Status::InvalidArgument(
            "arity mismatch joining " + inst.pred.name() + "/" +
            std::to_string(inst.args.size()) + " against clause " +
            std::to_string(c.number));
      }
      // Standardize the instance apart (T_P: "which share no variables").
      var_set_.Clear();
      var_set_.AddTerms(inst.args);
      inst.constraint.CollectVariables(&var_set_);
      Substitution renaming = FreshRenaming(var_set_.vars(), factory_);
      TermVec inst_args = renaming.Apply(inst.args);
      acc.AndWith(renaming.Apply(inst.constraint));
      for (size_t k = 0; k < pattern.size(); ++k) {
        acc.Add(Primitive::Eq(inst_args[k], pattern[k]));
      }
      children.push_back(inst.support);
    }

    TermVec head = renamed.head_args;
    Constraint constraint = std::move(acc);
    if (options_.simplify) {
      SimplifiedAtom s = SimplifyAtom(head, constraint);
      head = std::move(s.head);
      constraint = std::move(s.constraint);
    }
    if (constraint.is_false()) {
      stats_->unsat_pruned++;
      return Status::OK();
    }
    if (options_.op == OperatorKind::kTp) {
      SolveOutcome o = solver_->Solve(constraint);
      if (o == SolveOutcome::kError) return solver_->last_status();
      if (o == SolveOutcome::kUnsat) {
        stats_->unsat_pruned++;
        return Status::OK();
      }
    }

    ViewAtom atom;
    atom.pred = renamed.head_pred;
    atom.args = std::move(head);
    atom.constraint = std::move(constraint);
    atom.support = Support(c.number, std::move(children));
    atom.depth = round;
    sink_->Emit(std::move(atom), /*presimplified=*/options_.simplify);
    return Status::OK();
  }

 private:
  // Where one planned step's candidates come from: the windowed
  // View::CandidatesAt merge of an arg-value bucket and its position's
  // variable-argument atoms (a variable instance argument unifies with any
  // value), or — when no probe position is ground — the body position's
  // posting-list window. Next() yields ascending atom indices, the
  // oracle's enumeration order.
  using Candidates = View::Candidates;

  // Starts one planned slice: records the pass and resets the binding
  // slots and undo log.
  void BeginPass(const Clause& c, const plan::ClausePlan& plan,
                 const PassWindows& windows, size_t pivot, int round) {
    clause_ = &c;
    plan_ = &plan;
    order_ = &plan.order(pivot);
    windows_ = &windows;
    pivot_ = pivot;
    round_ = round;
    size_t n = c.body.size();
    chosen_.assign(n, 0);
    bound_.assign(static_cast<size_t>(plan.num_slots), BoundRef{});
    undo_.clear();
  }

  // A ground binding: which chosen instance argument bound the slot. Atom
  // indices stay valid across view appends (unlike pointers into the atom
  // vector, which reallocates).
  struct BoundRef {
    uint32_t atom = kNoAtom;
    uint32_t pos = 0;
  };
  static constexpr uint32_t kNoAtom = 0xffffffffu;

  static size_t LowerBoundPos(const std::vector<size_t>& idx, size_t limit) {
    return static_cast<size_t>(
        std::lower_bound(idx.begin(), idx.end(), limit) - idx.begin());
  }

  const Value& Resolved(int slot) const {
    const BoundRef& b = bound_[static_cast<size_t>(slot)];
    return view_.atoms()[b.atom].args[b.pos].constant();
  }

  Status Recurse(const Clause& c,
                 const std::vector<const std::vector<size_t>*>& lists,
                 size_t pivot, size_t pos, size_t delta_begin,
                 size_t delta_end, int round, std::vector<size_t>* chosen) {
    if (pos == c.body.size()) {
      return Derive(c, *chosen, round);
    }
    // Bounds for this position.
    size_t lo_limit, hi_limit;
    if (pos < pivot) {
      lo_limit = 0;
      hi_limit = delta_begin;
    } else if (pos == pivot) {
      lo_limit = delta_begin;
      hi_limit = delta_end;
    } else {
      lo_limit = 0;
      hi_limit = delta_end;
    }
    // Work with positions, not iterators: Derive() appends to the index
    // vectors (recursive rules), which may reallocate their buffers. The
    // positional window stays valid because appends only push_back values
    // >= delta_end, beyond hi_limit.
    const std::vector<size_t>& idx = *lists[pos];  // ascending atom indices
    size_t lo_pos = LowerBoundPos(idx, lo_limit);
    size_t hi_pos = LowerBoundPos(idx, hi_limit);
    for (size_t i = lo_pos; i < hi_pos; ++i) {
      (*chosen)[pos] = (*lists[pos])[i];
      MMV_RETURN_NOT_OK(Recurse(c, lists, pivot, pos + 1, delta_begin,
                                delta_end, round, chosen));
      if (sink_->Full()) return Status::OK();
    }
    return Status::OK();
  }

  // Probe selection for step `depth` of the current pass, shared by the
  // recursion and candidate materialization. The seminaive window is keyed
  // by the DECLARED position (so each combination is enumerated under
  // exactly one pivot, whatever the execution order); only the nesting
  // order is the plan's. Every precomputed probe position that is actually
  // ground here (a clause constant, or a slot bound by an earlier step) is
  // weighed and the smallest windowed bucket wins.
  Candidates SelectCandidates(size_t depth) {
    const plan::PlanStep& step = order_->steps[depth];
    size_t pos = step.decl_pos;
    const PassWindows& w = *windows_;
    size_t lo_limit = pos == pivot_ ? w.delta_begin : 0;
    size_t hi_limit = pos < pivot_ ? w.delta_begin : w.delta_end;
    const std::vector<plan::PlanArg>& pattern = plan_->body[pos];
    Symbol pred = clause_->body[pos].pred;
    Candidates best;
    int ground_positions = 0;
    for (uint16_t k : step.probe_positions) {
      const plan::PlanArg& a = pattern[k];
      const Value* v;
      if (a.is_const) {
        v = &a.value;
      } else if (bound_[static_cast<size_t>(a.slot)].atom != kNoAtom) {
        v = &Resolved(a.slot);
      } else {
        continue;
      }
      ++ground_positions;
      Candidates probe =
          view_.CandidatesAt(pred, k, *v).Within(lo_limit, hi_limit);
      if (ground_positions == 1 || probe.size() < best.size()) best = probe;
    }
    if (ground_positions >= 2) stats_->probe_intersections++;
    if (ground_positions > 0) {
      stats_->index_probes++;
      return best;
    }
    return Candidates{w.lists[pos], nullptr,
                      pos == pivot_ ? w.cut[pos].first : 0,
                      pos < pivot_ ? w.cut[pos].first : w.cut[pos].second,
                      0, 0};
  }

  Status RecursePlanned(size_t depth) {
    if (depth == clause_->body.size()) return DerivePlanned();
    Candidates candidates = SelectCandidates(depth);
    for (size_t idx; candidates.Next(&idx);) {
      MMV_RETURN_NOT_OK(TryCandidate(depth, idx));
      if (sink_->Full()) break;
    }
    return Status::OK();
  }

  // Unifies the candidate's ground arguments against the pattern: mismatch
  // rejects the whole subtree below this step; a first ground sighting
  // of a pattern variable binds its slot (undone on backtrack).
  Status TryCandidate(size_t depth, size_t idx) {
    size_t pos = order_->steps[depth].decl_pos;
    const ViewAtom& inst = view_.atoms()[idx];
    const std::vector<plan::PlanArg>& pattern = plan_->body[pos];
    size_t undo_mark = undo_.size();
    bool ok = true;
    if (inst.args.size() == pattern.size()) {
      for (size_t k = 0; k < pattern.size() && ok; ++k) {
        const Term& t = inst.args[k];
        if (!t.is_const()) continue;  // a real Eq literal decides later
        const plan::PlanArg& a = pattern[k];
        if (a.is_const) {
          ok = a.value == t.constant();
        } else if (a.slot >= 0) {
          BoundRef& b = bound_[a.slot];
          if (b.atom == kNoAtom) {
            b = BoundRef{static_cast<uint32_t>(idx),
                         static_cast<uint32_t>(k)};
            undo_.push_back(a.slot);
          } else {
            ok = Resolved(a.slot) == t.constant();
          }
        }
      }
    }
    Status status = Status::OK();
    if (ok) {
      chosen_[pos] = idx;
      status = RecursePlanned(depth + 1);
    } else {
      stats_->ground_rejects++;
    }
    while (undo_.size() > undo_mark) {
      bound_[static_cast<size_t>(undo_.back())] = BoundRef{};
      undo_.pop_back();
    }
    return status;
  }

  // True when the surviving tuple is fully ground: every instance argument
  // a constant (each one either matched a ground pattern term or bound its
  // slot), every instance constraint trivially true. With the clause
  // constraint also true, the rename + Eq-chain + simplify pipeline would
  // produce exactly (instantiated head, true) — so build that directly.
  bool FastEligible() const {
    for (size_t i = 0; i < chosen_.size(); ++i) {
      const ViewAtom& inst = view_.atoms()[chosen_[i]];
      if (!inst.constraint.is_true()) return false;
      const std::vector<plan::PlanArg>& pattern = plan_->body[i];
      if (inst.args.size() != pattern.size()) return false;
      for (size_t k = 0; k < pattern.size(); ++k) {
        if (!inst.args[k].is_const()) return false;
        const plan::PlanArg& a = pattern[k];
        if (!a.is_const && (a.slot < 0 || bound_[a.slot].atom == kNoAtom)) {
          return false;
        }
      }
    }
    return true;
  }

  Status DerivePlanned() {
    if (!plan_->constraint_true || !FastEligible()) {
      return Derive(*clause_, chosen_, round_);
    }
    stats_->derivations_attempted++;
    stats_->rename_skipped++;
    ViewAtom atom;
    atom.pred = clause_->head_pred;
    atom.args.reserve(plan_->head.size());
    // slot -> fresh variable for unsafe head variables, so repeated
    // occurrences of one variable share one fresh id (p(X, X) stays the
    // diagonal, not the cross product).
    std::vector<std::pair<int, VarId>> unsafe_fresh;
    for (const plan::PlanArg& h : plan_->head) {
      if (h.is_const) {
        atom.args.push_back(Term::Const(h.value));
      } else if (bound_[h.slot].atom != kNoAtom) {
        atom.args.push_back(Term::Const(Resolved(h.slot)));
      } else {
        // Head variable not bound through the body ("unsafe"): the rename
        // pipeline would map every occurrence to one fresh variable.
        VarId fresh = -1;
        for (const auto& [slot, v] : unsafe_fresh) {
          if (slot == h.slot) {
            fresh = v;
            break;
          }
        }
        if (fresh < 0) {
          fresh = factory_->Fresh();
          unsafe_fresh.emplace_back(h.slot, fresh);
        }
        atom.args.push_back(Term::Var(fresh));
      }
    }
    std::vector<Support> children;
    children.reserve(chosen_.size());
    for (size_t i : chosen_) children.push_back(view_.atoms()[i].support);
    atom.support = Support(clause_->number, std::move(children));
    atom.depth = round_;
    sink_->Emit(std::move(atom), /*presimplified=*/true);
    return Status::OK();
  }

  const View& view_;
  const FixpointOptions& options_;
  Solver* solver_;
  VarFactory* factory_;
  FixpointStats* stats_ = nullptr;
  DeriveSink* sink_ = nullptr;

  // The current planned slice (BeginPass).
  const Clause* clause_ = nullptr;
  const plan::ClausePlan* plan_ = nullptr;
  const plan::PivotOrder* order_ = nullptr;
  const PassWindows* windows_ = nullptr;
  size_t pivot_ = 0;
  int round_ = 0;
  std::vector<size_t> chosen_;       // instance per decl body position
  std::vector<BoundRef> bound_;      // per plan slot
  std::vector<int> undo_;            // bound slots, LIFO
  VarSet var_set_;  // scratch for Derive
  std::vector<Solver::JoinComponent> join_components_;  // scratch for the
                                                        // pre-rename screen
};

// One derivation staged by a fanned-out slice.
struct StagedAtom {
  ViewAtom atom;
  bool presimplified = false;
  CanonicalKey key;  ///< precomputed dedup key (kSet only)
};

// Everything one fanned-out slice hands back to the round's merge.
struct SliceOutcome {
  std::vector<StagedAtom> atoms;  ///< enumeration order
  bool capped = false;  ///< the staging budget cut this pass short
  Status status;
  FixpointStats stats;  ///< pass-local counters (summed at merge)
  SolveStats solver;    ///< pass-local solver counters
};

// One schedulable unit of a planned round. Slices are built in (rule,
// pivot, shard) order, so consuming them in list order with each slice's
// atoms in enumeration order replays the exact one-thread append order.
struct RoundSlice {
  size_t rule = 0;    ///< index into the engine's rules (clause order)
  size_t pivot = 0;   ///< declared seminaive pivot position
  int parts = 1;      ///< shards the pivot window is split into
  int shard = 0;
  // Fan-out only:
  size_t pool = 0;            ///< round candidate pool (parts > 1)
  size_t begin = 0, end = 0;  ///< shard range within the pool
};

// Stages one slice's derivations; canonical dedup keys are computed here
// in the worker (they are renaming-invariant, so the staged-variable ids
// do not matter) and the per-round merge does the actual dedup insertions.
class StagingSink : public DeriveSink {
 public:
  StagingSink(const FixpointOptions& options, size_t frozen_view_size,
              std::vector<StagedAtom>* out)
      : options_(options), frozen_(frozen_view_size), out_(out) {}

  /// \brief True when Full() cut the pass short. Staged counts are
  /// PRE-dedup, so a capped pass may have stopped before derivations an
  /// inline pass (which caps on the deduped view size) would still reach
  /// — the merge must flag the run truncated or atoms would be dropped
  /// silently.
  bool capped() const { return capped_; }

  void Emit(ViewAtom atom, bool presimplified) override {
    StagedAtom s;
    if (options_.semantics == DupSemantics::kSet) {
      s.key = CanonicalAtomKey(atom.pred, atom.args, atom.constraint,
                               presimplified, &scratch_);
    }
    s.atom = std::move(atom);
    s.presimplified = presimplified;
    out_->push_back(std::move(s));
  }

  // Per-slice atom budget: the frozen view plus everything this slice
  // staged. (Truncation points under fan-out legitimately differ from one
  // thread — see FixpointOptions::num_threads.)
  bool Full() const override {
    if (frozen_ + out_->size() < options_.max_atoms) return false;
    capped_ = true;
    return true;
  }

 private:
  const FixpointOptions& options_;
  size_t frozen_;
  std::vector<StagedAtom>* out_;
  mutable bool capped_ = false;
  std::string scratch_;
};

// Seminaive materialization engine for one Materialize call.
//
// Two join strategies share one Derive tail (constraint assembly, simplify,
// solve, dedup), so they differ only in which candidate tuples reach it:
//
//  - kNaive enumerates the full per-predicate cross product and lets the
//    tail reject contradictory tuples. Kept as the differential oracle.
//  - kIndexed executes compiled plan::ClausePlans (from the shared
//    PlanCache) as (clause, pivot[, shard]) slices: body atoms run in the
//    plan's per-pivot selectivity order, each step probes the view's
//    arg-value index through the plan's precomputed probe positions
//    (picking the smallest of several ground buckets), and the incremental
//    substitution threads through dense binding slots so any ground
//    mismatch rejects the candidate before deeper steps are enumerated.
//
// Each planned round freezes its delta window before any slice starts —
// every window is capped at delta_end, so no slice sees intra-round
// derivations — which makes the slices mutually independent. The round's
// slice list then either runs inline on the engine's own runner, appending
// through DirectSink, or fans out across threads: every slice stages its
// derivations with a private solver and staging factory for fresh
// variables, and one merge replays them into the view in (clause, pivot,
// shard, enumeration) order — exactly the inline append order — doing
// dedup and counters on the engine thread. Hence canonical atom sets,
// support multisets and derivation counters are identical whatever the
// thread count; only fresh-variable numbering and the call memo's
// dca_evaluations (each slice's solver keeps its own) are
// scheduling-free but not one-thread-identical. Both join strategies run
// the same Solve; no solve outcome is memoized.
class Engine {
 public:
  Engine(const Program& program, DcaEvaluator* evaluator,
         const FixpointOptions& options, FixpointStats* stats)
      : program_(program),
        evaluator_(evaluator),
        options_(options),
        stats_(stats),
        solver_(evaluator, options.solver),
        factory_(program.factory()),
        // Early ground rejection is behavior-preserving only when the
        // engine provably drops statically contradictory joins: simplify
        // detects every ground `=` conflict and Derive prunes it. Without
        // simplify, a kWp run (or a budget-starved kTp solve) could
        // legitimately keep such an atom — fall back to the oracle.
        indexed_(options.join_mode == JoinMode::kIndexed && options.simplify),
        // Workers call the evaluator unserialized, so fanning out needs
        // one that vouches for concurrent pure reads; any other runs
        // every round inline.
        fan_out_(indexed_ && options.num_threads > 1 &&
                 (evaluator == nullptr || evaluator->ConcurrentReadSafe())),
        plans_(options.plan_cache != nullptr ? options.plan_cache
                                             : &local_plans_),
        plan_stats_start_(plans_->stats()),
        direct_sink_(this),
        runner_(view_, options_, &solver_, &factory_) {
    runner_.Bind(stats_, &direct_sink_);
    const std::vector<Clause>& clauses = program.clauses();
    for (size_t ci = 0; ci < clauses.size(); ++ci) {
      if (clauses[ci].IsFact()) continue;
      rules_.emplace_back();
      rules_.back().clause = ci;
      if (indexed_) rules_.back().plan = plans_->PlanFor(program, clauses[ci]);
    }
  }

  Result<View> Run(View initial, size_t delta_begin) {
    // Seed with the initial atoms (MaterializeFrom / DRed rederivation).
    // Under duplicate semantics the view moves in wholesale — its indexes
    // (by-predicate postings, support hash) arrive ready-built, and seed
    // supports are unique identities already (Lemma 1). Set semantics has
    // no such guarantee (maintenance can collapse distinct atoms onto one
    // canonical form), so seeds are re-added one by one to suppress
    // canonical duplicates, exactly like derived atoms.
    factory_.ReserveAbove(initial.MaxVarId());
    if (options_.semantics == DupSemantics::kSet) {
      VarId seed_bound = initial.MaxVarId();
      std::vector<ViewAtom> seeds = initial.TakeAtoms();
      for (ViewAtom& a : seeds) AddAtom(std::move(a), false);
      view_.NoteExternalVars(seed_bound);  // carry initial's mark to view_
    } else {
      stats_->atoms_created += initial.size();
      view_ = std::move(initial);
    }
    delta_begin = std::min(delta_begin, view_.size());

    // Round 0: constrained facts (empty-body clauses).
    if (options_.derive_facts) {
      for (const Clause& c : program_.clauses()) {
        if (!c.IsFact()) continue;
        MMV_RETURN_NOT_OK(runner_.Derive(c, {}, 0));
        if (Capped()) return Finish();
      }
    }

    int round = 0;
    while (true) {
      size_t delta_end = view_.size();
      if (delta_begin == delta_end) break;  // no new atoms last round
      ++round;
      if (round > options_.max_iterations) {
        stats_->truncated = true;
        break;
      }
      stats_->iterations = round;
      if (indexed_) {
        MMV_RETURN_NOT_OK(RunPlannedRound(delta_begin, delta_end, round));
        if (Capped()) return Finish();
      } else {
        for (const Rule& r : rules_) {
          MMV_RETURN_NOT_OK(runner_.RunNaive(program_.clauses()[r.clause],
                                             delta_begin, delta_end, round));
          if (Capped()) return Finish();
        }
      }
      delta_begin = delta_end;
    }
    return Finish();
  }

 private:
  // Inline sink: dedup + append to the live view.
  class DirectSink : public DeriveSink {
   public:
    explicit DirectSink(Engine* engine) : engine_(engine) {}
    void Emit(ViewAtom atom, bool presimplified) override {
      engine_->AddAtom(std::move(atom), presimplified);
    }
    bool Full() const override {
      return engine_->view_.size() >= engine_->options_.max_atoms;
    }

   private:
    Engine* engine_;
  };

  bool Capped() {
    if (view_.size() >= options_.max_atoms) {
      stats_->truncated = true;
      return true;
    }
    return false;
  }

  View Finish() {
    stats_->solver = solver_.stats();
    stats_->solver += fan_out_solver_;
    // Attribute this run's share of the (possibly shared) plan cache's
    // activity: the counters are monotone, so the delta since construction
    // is exactly what this run caused.
    const plan::PlanCacheStats& ps = plans_->stats();
    stats_->plan_reorders += ps.reorders - plan_stats_start_.reorders;
    stats_->plan_cache_hits += ps.cache_hits - plan_stats_start_.cache_hits;
    return std::move(view_);
  }

  // ---- the planned slice executor ---------------------------------------

  // One rule (non-fact clause) of the program, with its state for the
  // current planned round. Rules are listed once per run, so no round
  // walks the program's facts.
  struct Rule {
    size_t clause = 0;  ///< index in program order
    std::shared_ptr<const plan::ClausePlan> plan;  ///< fetched once per run
    PassWindows windows;
  };

  Status RunPlannedRound(size_t delta_begin, size_t delta_end, int round) {
    const std::vector<Clause>& clauses = program_.clauses();
    // Slice the round. Plans were fetched once, on the engine thread, when
    // rules_ was built: the slices share the immutable plans read-only.
    // PreparePass is a pure read of the frozen windows, so where the
    // slices run cannot skew any counter. Fanning out needs the real
    // factory well clear of the staging base (staged ids must stay
    // recognizable) and at least two slices; a pivot window that clears
    // the partition threshold splits into shards.
    bool may_fan_out = fan_out_ && factory_.issued() < kStagingVarBase / 2;
    slices_.clear();
    for (size_t ri = 0; ri < rules_.size(); ++ri) {
      Rule& r = rules_[ri];
      const Clause& c = clauses[r.clause];
      if (!runner_.PreparePass(c, delta_begin, delta_end, &r.windows)) {
        continue;
      }
      for (size_t pivot = 0; pivot < c.body.size(); ++pivot) {
        auto [first, last] = r.windows.cut[pivot];
        if (first == last) continue;  // empty delta window
        int parts = may_fan_out ? plan::PartitionCountFor(
                                      last - first, options_.num_threads)
                                : 1;
        for (int shard = 0; shard < parts; ++shard) {
          RoundSlice s;
          s.rule = ri;
          s.pivot = pivot;
          s.parts = parts;
          s.shard = shard;
          slices_.push_back(s);
        }
      }
    }
    bool fan_out = may_fan_out && slices_.size() >= 2;
    std::vector<SliceOutcome> outcomes;
    if (fan_out) MMV_RETURN_NOT_OK(FanOut(round, &outcomes));

    // Consume the slices in list order: inline ones run here, appending
    // through DirectSink; fanned-out ones merge their staged atoms. The
    // round stops at the first error or when the view reaches the atom
    // budget (Run()'s Capped() finishes the view).
    for (size_t si = 0; si < slices_.size(); ++si) {
      const RoundSlice& s = slices_[si];
      const Rule& r = rules_[s.rule];
      MMV_RETURN_NOT_OK(fan_out ? MergeSlice(&outcomes[si])
                                : runner_.RunSlice(clauses[r.clause], *r.plan,
                                                   r.windows, s.pivot, round));
      if (direct_sink_.Full()) break;
    }
    return Status::OK();
  }

  // Runs the round's slices across the thread pool into \p outcomes.
  Status FanOut(int round, std::vector<SliceOutcome>* outcomes) {
    const std::vector<Clause>& clauses = program_.clauses();
    // Sharded pivots: materialize each one's depth-0 candidates once, on
    // the engine thread, and hand every shard a contiguous range of them.
    std::vector<std::vector<size_t>> pools;
    for (RoundSlice& s : slices_) {
      if (s.parts == 1) {
        stats_->partition_skipped_small++;
        continue;
      }
      stats_->partitions_run++;
      if (s.shard == 0) {
        const Rule& r = rules_[s.rule];
        pools.emplace_back();
        runner_.MaterializePivotCandidates(clauses[r.clause], *r.plan,
                                           r.windows, s.pivot, &pools.back());
      }
      s.pool = pools.size() - 1;
      std::tie(s.begin, s.end) =
          plan::PartitionRange(pools.back().size(), s.parts, s.shard);
    }

    // The workers call the read-safe evaluator directly, lock-free; the
    // epoch check after the fan-out polices the single-writer contract
    // that claim rests on.
    int64_t epoch_before = 0;
    if (evaluator_ != nullptr) {
      epoch_before = evaluator_->StateEpoch();
      stats_->evaluator_clones += static_cast<int64_t>(slices_.size());
    }
    outcomes->resize(slices_.size());
    auto run_slice = [&](size_t si) {
      const RoundSlice& s = slices_[si];
      const Rule& r = rules_[s.rule];
      SliceOutcome& out = (*outcomes)[si];
      Solver solver(evaluator_, options_.solver);
      VarFactory factory;
      factory.ReserveAbove(kStagingVarBase);
      StagingSink sink(options_, view_.size(), &out.atoms);
      ClauseRunner runner(view_, options_, &solver, &factory);
      runner.Bind(&out.stats, &sink);
      out.status = runner.RunSlice(
          clauses[r.clause], *r.plan, r.windows, s.pivot, round,
          s.parts > 1 ? &pools[s.pool] : nullptr, s.begin, s.end);
      out.capped = sink.capped();
      out.solver = solver.stats();
    };
    ThreadPool::Global().ParallelFor(slices_.size(), options_.num_threads,
                                     run_slice);

    // The workers read the external state unguarded; a writer slipping in
    // mid-round would have produced silently inconsistent derivations.
    // Fail loudly instead of merging them.
    if (evaluator_ != nullptr && evaluator_->StateEpoch() != epoch_before) {
      return Status::Internal(
          "external state changed under a parallel fixpoint round "
          "(evaluator epoch " + std::to_string(epoch_before) + " -> " +
          std::to_string(evaluator_->StateEpoch()) +
          "); concurrent evaluation requires a quiescent external "
          "database");
    }
    return Status::OK();
  }

  // Folds one fanned-out slice into the engine: its counters, then its
  // staged atoms in enumeration order until the view reaches the budget.
  Status MergeSlice(SliceOutcome* out) {
    *stats_ += out->stats;
    fan_out_solver_ += out->solver;
    // A slice cut short by the staging budget may have stopped before
    // derivations an inline pass (capping on the DEDUPED view size) would
    // still reach; if dedup then keeps the merged view under max_atoms
    // the run would otherwise claim completeness while missing atoms —
    // flag it truncated.
    if (out->capped) stats_->truncated = true;
    for (StagedAtom& staged : out->atoms) {
      if (direct_sink_.Full()) break;
      MergeStaged(std::move(staged));
    }
    return out->status;
  }

  // Replays one staged derivation into the view: dedup exactly as AddAtom
  // would (the canonical key was precomputed in the worker), then rename
  // the pass-local staging variables into the engine's real factory.
  void MergeStaged(StagedAtom staged) {
    if (options_.semantics == DupSemantics::kDuplicate) {
      if (view_.HasSupport(staged.atom.support)) {
        stats_->duplicates_suppressed++;
        return;
      }
    } else {
      if (!canonical_seen_.insert(staged.key).second) {
        stats_->duplicates_suppressed++;
        return;
      }
    }
    RemapStagingVars(&staged.atom);
    stats_->atoms_created++;
    view_.Add(std::move(staged.atom));
  }

  // Maps every staging-range variable of \p atom (first-appearance order —
  // deterministic) to a fresh variable from the real factory. Distinct
  // derivations never share fresh variables, so the per-atom map is exact
  // even though different tasks reuse the same staging id range.
  void RemapStagingVars(ViewAtom* atom) {
    RemapVarsAtOrAbove(kStagingVarBase, &factory_, &atom->args,
                       &atom->constraint, &var_set_);
  }

  // Appends the atom unless it is a duplicate. The view's own indexes
  // (by-predicate postings, support hash, arg-value buckets) are maintained
  // by View::Add; duplicate detection probes them directly. Set semantics
  // keys atoms by their hashed canonical form (no per-atom string is
  // retained); \p presimplified records that (args, constraint) already
  // went through SimplifyAtom, which the canonical pass may then skip.
  bool AddAtom(ViewAtom atom, bool presimplified) {
    if (options_.semantics == DupSemantics::kDuplicate) {
      if (view_.HasSupport(atom.support)) {
        stats_->duplicates_suppressed++;
        return false;
      }
    } else {
      CanonicalKey key = CanonicalAtomKey(atom.pred, atom.args,
                                          atom.constraint, presimplified,
                                          &canonical_scratch_);
      if (!canonical_seen_.insert(key).second) {
        stats_->duplicates_suppressed++;
        return false;
      }
    }
    stats_->atoms_created++;
    view_.Add(std::move(atom));
    return true;
  }

  const Program& program_;
  DcaEvaluator* evaluator_;
  FixpointOptions options_;
  FixpointStats* stats_;
  Solver solver_;
  VarFactory factory_;
  const bool indexed_;
  const bool fan_out_;  ///< rounds may fan out across threads
  plan::PlanCache local_plans_;  // used when no caller-shared plan cache
  plan::PlanCache* plans_;
  const plan::PlanCacheStats plan_stats_start_;  // shared-cache snapshot

  View view_;
  DirectSink direct_sink_;
  ClauseRunner runner_;  // the engine's own pass executor (facts + inline)
  VarSet var_set_;       // scratch for RemapStagingVars
  std::unordered_set<CanonicalKey, CanonicalKey::Hasher> canonical_seen_;
  std::string canonical_scratch_;

  std::vector<Rule> rules_;          // the program's rules, clause order
  std::vector<RoundSlice> slices_;   // the current planned round's slices
  SolveStats fan_out_solver_;  // workers' solver counters, merge order
};

}  // namespace

Result<View> MaterializeFrom(const Program& program, View initial,
                             DcaEvaluator* evaluator,
                             const FixpointOptions& options,
                             FixpointStats* stats, size_t delta_begin) {
  FixpointStats local;
  Engine engine(program, evaluator, options, stats ? stats : &local);
  return engine.Run(std::move(initial), delta_begin);
}

Result<View> Materialize(const Program& program, DcaEvaluator* evaluator,
                         const FixpointOptions& options,
                         FixpointStats* stats) {
  return MaterializeFrom(program, View(), evaluator, options, stats);
}

Status ContinueFixpoint(const Program& program, View* view,
                        DcaEvaluator* evaluator,
                        const FixpointOptions& options, FixpointStats* stats,
                        size_t delta_begin) {
  FixpointOptions continuation = options;
  continuation.derive_facts = false;
  MMV_ASSIGN_OR_RETURN(
      View result, MaterializeFrom(program, std::move(*view), evaluator,
                                   continuation, stats, delta_begin));
  *view = std::move(result);
  return Status::OK();
}

Result<JoinMode> ParseJoinMode(std::string_view text) {
  if (text == "naive") return JoinMode::kNaive;
  if (text == "indexed") return JoinMode::kIndexed;
  return Status::InvalidArgument("unknown join mode '" + std::string(text) +
                                 "' (expected 'naive' or 'indexed')");
}

Result<int> ParseThreads(std::string_view text) {
  Result<int> value = ParseDecimal<int>(text, "thread count");
  if (!value.ok() || *value < 1 || *value > 4096) {
    return Status::InvalidArgument("unknown thread count '" +
                                   std::string(text) +
                                   "' (expected an integer in [1, 4096])");
  }
  return value;
}

Result<JoinMode> JoinModeFromEnv() {
  const char* mode = std::getenv("MMV_JOIN_MODE");
  if (mode == nullptr || *mode == '\0') return JoinMode::kIndexed;
  Result<JoinMode> parsed = ParseJoinMode(mode);
  if (!parsed.ok()) {
    return Status::InvalidArgument("$MMV_JOIN_MODE: " +
                                   parsed.status().message());
  }
  return parsed;
}

Result<int> ThreadsFromEnv() {
  const char* threads = std::getenv("MMV_THREADS");
  if (threads == nullptr || *threads == '\0') return 1;
  Result<int> parsed = ParseThreads(threads);
  if (!parsed.ok()) {
    return Status::InvalidArgument("$MMV_THREADS: " +
                                   parsed.status().message());
  }
  return parsed;
}

Result<bool> ParseSolverFastpath(std::string_view text) {
  if (text == "on") return true;
  if (text == "off") return false;
  return Status::InvalidArgument("unknown solver fastpath mode '" +
                                 std::string(text) +
                                 "' (expected 'on' or 'off')");
}

Result<bool> SolverFastpathFromEnv() {
  const char* mode = std::getenv("MMV_SOLVER_FASTPATH");
  if (mode == nullptr || *mode == '\0') return true;
  Result<bool> parsed = ParseSolverFastpath(mode);
  if (!parsed.ok()) {
    return Status::InvalidArgument("$MMV_SOLVER_FASTPATH: " +
                                   parsed.status().message());
  }
  return parsed;
}

}  // namespace mmv
