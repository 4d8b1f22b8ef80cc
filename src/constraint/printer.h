// Pretty-printing with symbolic variable names.

#ifndef MMV_CONSTRAINT_PRINTER_H_
#define MMV_CONSTRAINT_PRINTER_H_

#include <string>
#include <unordered_map>

#include "common/interner.h"
#include "constraint/constraint.h"

namespace mmv {

/// \brief Optional mapping VarId -> source-level name, populated by the
/// parser so diagnostics print `X` instead of `X17`.
class VarNames {
 public:
  /// \brief Registers \p name for \p id (later registrations win).
  void Set(VarId id, std::string name) { names_[id] = std::move(name); }

  /// \brief The symbolic name, or "X<id>" when unregistered.
  std::string NameOf(VarId id) const;

  bool empty() const { return names_.empty(); }
  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<VarId, std::string> names_;
};

/// \brief Renders a term using \p names (nullptr falls back to X<id>).
std::string PrintTerm(const Term& t, const VarNames* names);

/// \brief Renders a constraint using \p names.
std::string PrintConstraint(const Constraint& c, const VarNames* names);

/// \brief Renders pred(args) <- constraint.
std::string PrintAtom(Symbol pred, const TermVec& args, const Constraint& c,
                      const VarNames* names);

}  // namespace mmv

#endif  // MMV_CONSTRAINT_PRINTER_H_
