// Construction of the paper's Del and Add input sets (Sections 3.1, 3.2)
// plus the shared instance-negation helper used by every maintenance
// algorithm.

#ifndef MMV_MAINTENANCE_DEL_ADD_H_
#define MMV_MAINTENANCE_DEL_ADD_H_

#include <optional>

#include "constraint/simplify.h"
#include "constraint/solver.h"
#include "core/program.h"
#include "core/view.h"

namespace mmv {
namespace maint {

/// \brief An update request: the constrained atom A(args) <- constraint
/// whose instances are to be deleted from / inserted into the view.
struct UpdateAtom {
  Symbol pred;
  TermVec args;
  Constraint constraint;  ///< true means "all instances of pred(args)"

  std::string ToString(const VarNames* names = nullptr) const;
};

/// \brief One element of the Del set: the solvable overlap of the request
/// with one view atom.
struct DelElement {
  size_t atom_index;       ///< which view atom it came from
  Constraint deleted_part; ///< phi ^ (X=Y) ^ psi, over the atom's head vars
};

/// \brief Builds Del (Section 3.1): for every view atom A(Y) <- phi with
/// phi ^ (X=Y) ^ psi solvable, records that atom and the overlap constraint.
///
/// The overlap constraint is simplified but re-expressed over the original
/// atom's head variables so it can be negated against the atom later.
///
/// Cost: O(candidates), not O(atoms of the predicate). Candidates come
/// from View::Probe on the constants of the request's simplified head; an
/// atom whose constant argument differs from one of them has an overlap
/// that simplifies to false and is skipped before anything is copied.
/// Elements keep ascending atom order.
///
/// \p factory (when given) issues the renamings that standardize the
/// request apart; callers that keep using their factory afterwards should
/// pass it so all fresh variables of one maintenance run come from a
/// single stream. Defaults to a local factory seeded fresh w.r.t. the
/// view and request.
Result<std::vector<DelElement>> BuildDel(const View& view,
                                         const UpdateAtom& request,
                                         Solver* solver,
                                         VarFactory* factory = nullptr);

/// \brief Builds the Add set (Section 3.2): constrained atoms covering the
/// requested instances minus everything already in the view —
/// A(X) <- psi ^ not(phi_1[X]) ^ ... ^ not(phi_m[X]).
///
/// Returns zero atoms when the request is provably already covered, and
/// at most one atom otherwise. Cost: O(candidates), probed as in BuildDel:
/// a skipped atom's block would read not(false), which simplification
/// drops. \p ext_support tags the atom's support with
/// a unique negative clause number (external facts have no deriving clause);
/// the counter is decremented per inserted atom.
Result<std::vector<ViewAtom>> BuildAdd(const View& view,
                                       const UpdateAtom& request,
                                       Solver* solver, int* ext_support);

/// \brief Builds the block not("target_args is an instance of
/// (src_args, src_constraint)"), substituting src head variables by the
/// target argument terms (so the negation shares variables with the
/// positive context instead of quantifying them away).
///
/// Non-head variables of the source constraint are renamed fresh; under the
/// per-literal negation semantics they read existentially, which over-keeps
/// instances (never over-deletes) — see DESIGN.md notes on negation.
NotBlock NegatedInstanceBlock(const TermVec& target_args,
                              const TermVec& src_args,
                              const Constraint& src_constraint,
                              VarFactory* factory);

/// \brief The positive counterpart of NegatedInstanceBlock: the constraint
/// "target_args is an instance of (src_args, src_constraint)", with src head
/// variables substituted by the target argument terms.
Constraint InstanceConstraint(const TermVec& target_args,
                              const TermVec& src_args,
                              const Constraint& src_constraint,
                              VarFactory* factory);

/// \brief Default cap on grounding a deletion constraint (see
/// GroundedNegationBlocks).
constexpr size_t kDefaultGroundNegationLimit = 4096;

/// \brief Grounds the deletion constraint (src over head \p args) into one
/// equality block per deleted instance, for exact subtraction.
///
/// A symbolic not(delta) is only exact when delta mentions head variables
/// alone: internal variables read existentially under per-literal negation,
/// which can make the block trivially satisfiable (nothing subtracted).
/// When delta's head solutions are finitely enumerable at the current
/// domain state, this returns blocks {arg1 = v1 & ... & argk = vk} — one
/// per instance — which are exact regardless of internal variables.
/// Returns nullopt when enumeration is incomplete/approximate or exceeds
/// \p limit (callers then fall back to the symbolic block).
std::optional<std::vector<NotBlock>> GroundedNegationBlocks(
    const TermVec& args, const Constraint& delta, DcaEvaluator* evaluator,
    size_t limit = kDefaultGroundNegationLimit);

/// \brief Subtracts delta from \p constraint over \p args: grounded blocks
/// when possible, the symbolic not(delta) otherwise. Sets the constraint to
/// false when delta covers everything. Returns false (and leaves the
/// constraint untouched) when delta provably denotes no instances.
bool SubtractDeletedPart(const TermVec& args, const Constraint& delta,
                         DcaEvaluator* evaluator, Constraint* constraint);

/// \brief Re-expresses a simplified atom's constraint over the original
/// head argument terms: conjoins orig[k] = simplified_head[k] wherever
/// simplification rewrote a head position. A false constraint stays false.
Constraint RebindHead(const TermVec& orig_head, const SimplifiedAtom& s);

/// \brief A VarFactory guaranteed fresh w.r.t. \p program, \p view and
/// \p request.
VarFactory FreshFactory(const Program& program, const View& view,
                        const UpdateAtom* request = nullptr);

/// \brief As above, but fresh w.r.t. every request of a batch.
VarFactory FreshFactory(const Program& program, const View& view,
                        const std::vector<UpdateAtom>& requests);

/// \brief Removes every atom whose constraint is unsatisfiable (StDel
/// step 4 and the final DRed cleanup). Returns the number removed.
size_t PruneUnsolvable(View* view, Solver* solver);

}  // namespace maint
}  // namespace mmv

#endif  // MMV_MAINTENANCE_DEL_ADD_H_
