// Terms: variables and constants, the arguments of atoms, domain calls and
// primitive constraints (paper Section 2.1/2.3).

#ifndef MMV_CONSTRAINT_TERM_H_
#define MMV_CONSTRAINT_TERM_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/value.h"

namespace mmv {

/// \brief Variable identifier. Variables are globally numbered; fresh ids are
/// drawn from a VarFactory so clause instances can be standardized apart.
using VarId = int32_t;

/// \brief A term: either a variable or a constant Value.
class Term {
 public:
  /// Constructs a constant term holding \p v.
  static Term Const(Value v) { return Term(kConstTag, -1, std::move(v)); }

  /// Constructs a variable term with id \p id.
  static Term Var(VarId id) { return Term(kVarTag, id, Value()); }

  /// Default: the null constant.
  Term() : Term(kConstTag, -1, Value()) {}

  bool is_var() const { return tag_ == kVarTag; }
  bool is_const() const { return tag_ == kConstTag; }

  /// \brief Variable id; requires is_var().
  VarId var() const { return var_; }

  /// \brief Constant payload; requires is_const().
  const Value& constant() const { return value_; }

  bool operator==(const Term& other) const {
    if (tag_ != other.tag_) return false;
    return is_var() ? var_ == other.var_ : value_ == other.value_;
  }
  bool operator!=(const Term& other) const { return !(*this == other); }

  size_t Hash() const {
    size_t h = static_cast<size_t>(tag_) * 0x517cc1b727220a95ULL;
    return is_var() ? HashCombine(h, static_cast<size_t>(var_))
                    : HashCombine(h, value_.Hash());
  }

  /// \brief Debug rendering; variables print as X<id> unless \p names
  /// supplies a symbolic name.
  std::string ToString() const;

 private:
  enum Tag : uint8_t { kVarTag, kConstTag };
  Term(Tag tag, VarId var, Value value)
      : tag_(tag), var_(var), value_(std::move(value)) {}

  Tag tag_;
  VarId var_;
  Value value_;
};

/// \brief A tuple of terms (atom arguments / domain-call arguments).
using TermVec = std::vector<Term>;

/// \brief Source of fresh variable ids; one per program/materialization so
/// that clause renaming ("standardizing apart") never collides.
class VarFactory {
 public:
  VarFactory() = default;

  /// \brief Returns a fresh, never-before-issued variable id.
  VarId Fresh() { return next_++; }

  /// \brief Ensures future Fresh() calls return ids > \p id.
  void ReserveAbove(VarId id) {
    if (id >= next_) next_ = id + 1;
  }

  /// \brief Number of ids issued so far.
  VarId issued() const { return next_; }

 private:
  VarId next_ = 0;
};

/// \brief Base of the PASS-LOCAL staging variable range. Parallel
/// fixpoint clause rounds standardize apart through private factories
/// reserved above this id; the deterministic merge on the coordinating
/// thread renames any staging variable that survives into the run's real
/// factory before it reaches durable state, so real ids never meet
/// staging ids. Real factories stay far below this in practice; rounds
/// fall back to sequential execution if one ever approaches it.
constexpr VarId kStagingVarBase = VarId{1} << 30;

/// \brief Collects the distinct variables of \p terms into \p out
/// (first-appearance order, no duplicates).
void CollectVars(const TermVec& terms, std::vector<VarId>* out);

/// \brief Order-preserving accumulator of distinct variable ids.
///
/// Membership is a linear scan while the set is small (where it beats any
/// hashing) and an unordered_set beyond that — replacing the O(v^2)
/// std::find-over-a-growing-vector idiom on hot paths while keeping the
/// exact first-appearance order those paths rely on for deterministic
/// fresh-variable renaming.
class VarSet {
 public:
  void Clear() {
    vars_.clear();
    seen_.clear();
  }

  /// \brief Adds \p v if absent; returns true when newly added.
  bool Add(VarId v) {
    if (seen_.empty()) {
      if (std::find(vars_.begin(), vars_.end(), v) != vars_.end()) {
        return false;
      }
      vars_.push_back(v);
      if (vars_.size() > kLinearLimit) {
        seen_.insert(vars_.begin(), vars_.end());
      }
      return true;
    }
    if (!seen_.insert(v).second) return false;
    vars_.push_back(v);
    return true;
  }

  void AddTerm(const Term& t) {
    if (t.is_var()) Add(t.var());
  }
  void AddTerms(const TermVec& ts) {
    for (const Term& t : ts) AddTerm(t);
  }

  /// \brief The distinct variables in first-appearance order.
  const std::vector<VarId>& vars() const { return vars_; }
  bool empty() const { return vars_.empty(); }
  size_t size() const { return vars_.size(); }

 private:
  static constexpr size_t kLinearLimit = 16;
  std::vector<VarId> vars_;
  std::unordered_set<VarId> seen_;  // engaged once past kLinearLimit
};

std::ostream& operator<<(std::ostream& os, const Term& t);

}  // namespace mmv

#endif  // MMV_CONSTRAINT_TERM_H_
