#include "maintenance/dred_constrained.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "maintenance/rewrite.h"

namespace mmv {
namespace maint {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// A P_OUT element: a constrained atom that *may* need deletion.
struct PoutAtom {
  Symbol pred;
  TermVec args;
  Constraint constraint;
};

}  // namespace

Result<View> DeleteDRed(const Program& program, const View& view,
                        const UpdateAtom& request, DcaEvaluator* evaluator,
                        const FixpointOptions& options, DRedStats* stats) {
  DRedStats local;
  if (!stats) stats = &local;
  *stats = DRedStats();
  Solver solver(evaluator, options.solver);
  VarFactory factory = FreshFactory(program, view, &request);

  // ---- Input: Del ----------------------------------------------------
  MMV_ASSIGN_OR_RETURN(std::vector<DelElement> del,
                       BuildDel(view, request, &solver, &factory));
  stats->del_elements = del.size();
  if (del.empty()) {
    stats->solver = solver.stats();
    return view;  // nothing to delete
  }

  // ---- Step 1: unfold P_OUT ------------------------------------------
  Clock::time_point t0 = Clock::now();
  std::vector<PoutAtom> pout;
  std::unordered_set<CanonicalKey, CanonicalKey::Hasher> pout_seen;
  std::string scratch;
  auto add_pout = [&](PoutAtom a) {
    CanonicalKey key = CanonicalAtomKey(a.pred, a.args, a.constraint,
                                        /*assume_simplified=*/false, &scratch);
    if (!pout_seen.insert(key).second) return false;
    pout.push_back(std::move(a));
    return true;
  };
  for (const DelElement& e : del) {
    const ViewAtom& atom = view.atoms()[e.atom_index];
    add_pout(PoutAtom{atom.pred, atom.args, e.deleted_part});
  }

  // Non-pivot body positions range over the (immutable) original view via
  // its maintained by-predicate index.
  size_t layer_begin = 0;
  int rounds = 0;
  while (layer_begin < pout.size()) {
    size_t layer_end = pout.size();
    if (++rounds > options.max_iterations) {
      return Status::ResourceExhausted(
          "P_OUT unfolding did not converge within max_iterations; "
          "increase FixpointOptions::max_iterations");
    }
    for (const Clause& c : program.clauses()) {
      if (c.IsFact()) continue;
      size_t n = c.body.size();
      // Exactly one body position j drawn from the current P_OUT layer.
      for (size_t j = 0; j < n; ++j) {
        // Collect P_OUT candidates for position j.
        std::vector<size_t> j_candidates;
        for (size_t pi = layer_begin; pi < layer_end; ++pi) {
          if (pout[pi].pred == c.body[j].pred &&
              pout[pi].args.size() == c.body[j].args.size()) {
            j_candidates.push_back(pi);
          }
        }
        if (j_candidates.empty()) continue;
        // Other positions range over the original materialized view.
        bool feasible = true;
        std::vector<const std::vector<size_t>*> other_lists(n, nullptr);
        for (size_t i = 0; i < n && feasible; ++i) {
          if (i == j) continue;
          const std::vector<size_t>& list = view.AtomsFor(c.body[i].pred);
          if (list.empty()) {
            feasible = false;
            break;
          }
          other_lists[i] = &list;
        }
        if (!feasible) continue;

        std::vector<size_t> chosen(n);
        // Recursively enumerate combinations.
        std::function<Status(size_t)> recurse =
            [&](size_t pos) -> Status {
          if (pos == n) {
            // Build the unfolded constraint.
            Clause renamed = c.Rename(&factory);
            Constraint acc = renamed.constraint;
            for (size_t i = 0; i < n; ++i) {
              const TermVec* inst_args;
              const Constraint* inst_c;
              if (i == j) {
                inst_args = &pout[chosen[i]].args;
                inst_c = &pout[chosen[i]].constraint;
              } else {
                const ViewAtom& va = view.atoms()[chosen[i]];
                inst_args = &va.args;
                inst_c = &va.constraint;
              }
              std::vector<VarId> vars;
              CollectVars(*inst_args, &vars);
              for (VarId v : inst_c->Variables()) {
                if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
                  vars.push_back(v);
                }
              }
              Substitution rho = FreshRenaming(vars, &factory);
              TermVec a = rho.Apply(*inst_args);
              acc.AndWith(rho.Apply(*inst_c));
              for (size_t k = 0; k < a.size(); ++k) {
                acc.Add(Primitive::Eq(a[k], renamed.body[i].args[k]));
              }
            }
            SimplifiedAtom s = SimplifyAtom(renamed.head_args, acc);
            if (s.constraint.is_false()) return Status::OK();
            SolveOutcome o = solver.Solve(s.constraint);
            if (o == SolveOutcome::kError) return solver.last_status();
            if (!IsSolvable(o)) return Status::OK();
            add_pout(
                PoutAtom{renamed.head_pred, s.head, std::move(s.constraint)});
            return Status::OK();
          }
          if (pos == j) {
            for (size_t pi : j_candidates) {
              chosen[pos] = pi;
              MMV_RETURN_NOT_OK(recurse(pos + 1));
            }
            return Status::OK();
          }
          for (size_t vi : *other_lists[pos]) {
            chosen[pos] = vi;
            MMV_RETURN_NOT_OK(recurse(pos + 1));
          }
          return Status::OK();
        };
        MMV_RETURN_NOT_OK(recurse(0));
      }
    }
    layer_begin = layer_end;
  }
  stats->pout_atoms = pout.size();
  stats->unfold_ms = MsSince(t0);

  // ---- Step 2: overestimate M' ---------------------------------------
  t0 = Clock::now();
  View mprime = view;
  for (size_t ai = 0; ai < mprime.size(); ++ai) {
    ViewAtom& atom = mprime.MutableAtom(ai);
    for (const PoutAtom& p : pout) {
      if (p.pred != atom.pred || p.args.size() != atom.args.size()) continue;
      Constraint instance =
          InstanceConstraint(atom.args, p.args, p.constraint, &factory);
      Constraint overlap = Constraint::And(atom.constraint, instance);
      SolveOutcome o = solver.Solve(overlap);
      if (o == SolveOutcome::kError) return solver.last_status();
      if (!IsSolvable(o)) continue;  // no instances shared: skip
      if (SubtractDeletedPart(atom.args, instance, evaluator,
                              &atom.constraint)) {
        stats->atoms_overestimated++;
      }
    }
  }
  stats->overestimate_ms = MsSince(t0);

  // ---- Step 3: rederive over P'' ---------------------------------------
  t0 = Clock::now();
  std::set<Symbol> affected;
  for (const PoutAtom& p : pout) affected.insert(p.pred);

  Program p2;
  for (const Clause& c : program.clauses()) {
    Clause copy = c;
    if (!affected.count(c.head_pred)) {
      // Unaffected predicate: every derivation is already present in M'.
      // Keep the clause slot (numbering!) but make it inert.
      copy.constraint = Constraint::False();
      copy.body.clear();
      stats->pruned_clauses++;
    } else if (c.head_pred == request.pred &&
               c.head_args.size() == request.args.size()) {
      // Rewrite (4): guard against re-deriving the deleted instances
      // (grounded when enumerable, symbolic otherwise).
      Constraint guard_delta = InstanceConstraint(
          c.head_args, request.args, request.constraint, &factory);
      SubtractDeletedPart(c.head_args, guard_delta, evaluator,
                          &copy.constraint);
    }
    p2.AddClause(std::move(copy));
  }
  p2.factory()->ReserveAbove(factory.issued());
  *p2.names() = program.names();

  FixpointStats fstats;
  MMV_ASSIGN_OR_RETURN(
      View result,
      MaterializeFrom(p2, std::move(mprime), evaluator, options, &fstats));
  stats->rederive_derivations = fstats.derivations_attempted;

  stats->removed_unsolvable = PruneUnsolvable(&result, &solver);
  // Step 2 wrote factory-fresh variables into the seeded constraints,
  // which MaterializeFrom carried over without re-adding; raise the
  // result's high-water mark past everything this run issued.
  result.NoteExternalVars(factory.issued());
  stats->rederive_ms = MsSince(t0);
  stats->solver = solver.stats();
  return result;
}

}  // namespace maint
}  // namespace mmv
