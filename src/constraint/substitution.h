// Substitutions (variable -> term maps) and clause renaming
// ("standardizing apart", required by T_P's "share no variables" side
// condition).

#ifndef MMV_CONSTRAINT_SUBSTITUTION_H_
#define MMV_CONSTRAINT_SUBSTITUTION_H_

#include <unordered_map>

#include "constraint/constraint.h"
#include "constraint/term.h"

namespace mmv {

/// \brief A finite mapping from variables to terms.
class Substitution {
 public:
  Substitution() = default;

  /// \brief Binds \p v to \p t (overwrites any previous binding).
  void Bind(VarId v, Term t) { map_[v] = std::move(t); }

  /// \brief Whether \p v is bound.
  bool Contains(VarId v) const { return map_.count(v) > 0; }

  /// \brief The binding of \p v, or the variable itself when unbound.
  Term Lookup(VarId v) const {
    auto it = map_.find(v);
    return it == map_.end() ? Term::Var(v) : it->second;
  }

  /// \brief Applies the substitution to a term (single step, no chasing).
  Term Apply(const Term& t) const {
    return t.is_var() ? Lookup(t.var()) : t;
  }

  /// \brief Applies to every term of a vector.
  TermVec Apply(const TermVec& ts) const;

  /// \brief Applies to a primitive constraint.
  Primitive Apply(const Primitive& p) const;

  /// \brief Applies to a negated block (recursively).
  NotBlock Apply(const NotBlock& b) const;

  /// \brief Applies to a whole constraint.
  Constraint Apply(const Constraint& c) const;

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  const std::unordered_map<VarId, Term>& map() const { return map_; }

 private:
  std::unordered_map<VarId, Term> map_;
};

/// \brief Builds a renaming of every variable in \p vars to a fresh variable
/// drawn from \p factory.
Substitution FreshRenaming(const std::vector<VarId>& vars,
                           VarFactory* factory);

/// \brief Renames every variable of (*args, *constraint) whose id is at or
/// above \p base to a fresh variable from \p factory, in first-appearance
/// order (args first, then constraint). This is the deterministic merge
/// step that moves PASS-LOCAL staging variables (kStagingVarBase, term.h)
/// into a run's real factory — keep it the ONLY implementation: a missed
/// remap leaks pass-local ids into durable state. \p scratch is a
/// reusable VarSet.
void RemapVarsAtOrAbove(VarId base, VarFactory* factory, TermVec* args,
                        Constraint* constraint, VarSet* scratch);

}  // namespace mmv

#endif  // MMV_CONSTRAINT_SUBSTITUTION_H_
