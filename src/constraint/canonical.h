// Canonical forms of constrained atoms and constraints.
//
// Two constrained atoms with the same canonical form are syntactic
// variants (same literals modulo variable renaming and literal order).
// The mapping is conservative: semantically equivalent atoms may canonicalize
// differently (the paper notes p(X,Y) <- X = Y+1 vs p(X,Y) <- Y = X-1), in
// which case they are simply retained as duplicates — still sound.
//
// Two consumers with different cost profiles share the machinery:
//   - set-semantics deduplication in the fixpoint engine keys atoms by a
//     hashed CanonicalKey (no per-atom string is retained), and
//   - the solver memo (constraint/solve_cache.h) keys bare constraints by
//     a cheaper in-order rendering that skips literal sorting: constraints
//     produced by the same clause at different fresh-variable offsets
//     already agree literal-for-literal, which is the sharing that matters.

#ifndef MMV_CONSTRAINT_CANONICAL_H_
#define MMV_CONSTRAINT_CANONICAL_H_

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/interner.h"
#include "constraint/constraint.h"

namespace mmv {

/// \brief A 128-bit hash of a canonical rendering. Collisions are
/// astronomically unlikely — the halves come from two STRUCTURALLY
/// different byte passes (xor-multiply vs add-multiply-rotate) finalized
/// through full-avalanche mixes, so their bits are independent (the naive
/// two-seeds-one-algorithm alternative leaks correlated low-order bits) —
/// which is the contract its users (dedup sets, solver memo) rely on.
struct CanonicalKey {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const CanonicalKey& other) const {
    return lo == other.lo && hi == other.hi;
  }
  bool operator!=(const CanonicalKey& other) const {
    return !(*this == other);
  }

  struct Hasher {
    size_t operator()(const CanonicalKey& k) const noexcept {
      return static_cast<size_t>(k.lo);
    }
  };
};

/// \brief Canonical key of the constrained atom pred(args) <- c.
///
/// Same canonical form as CanonicalAtomString — simplify, sort literals by a
/// variable-insensitive key, rename variables by first appearance — but the
/// rendering goes into the caller's reusable \p scratch buffer and only the
/// 128-bit hash survives, so a dedup set holds no strings.
///
/// \p assume_simplified skips the internal SimplifyAtom pass; callers may
/// set it when (args, c) already went through SimplifyAtom (the pass is
/// idempotent, so this is purely a cost knob).
CanonicalKey CanonicalAtomKey(Symbol pred, const TermVec& args,
                              const Constraint& c, bool assume_simplified,
                              std::string* scratch);

/// \brief Canonical key of a bare constraint for the solver memo: literals
/// rendered in order (no sorting, no simplification) with variables renamed
/// by first appearance. Constraints that differ only in fresh-variable
/// numbering — the shape repeated join steps of one clause produce — map to
/// the same key; literal-order variants do not (they simply miss the memo).
CanonicalKey CanonicalConstraintKey(const Constraint& c, std::string* scratch);

/// \brief Canonical string of the constrained atom pred(args) <- c.
///
/// Simplifies the constraint, orders literals by a variable-insensitive key,
/// then renames variables by first appearance.
std::string CanonicalAtomString(Symbol pred, const TermVec& args,
                                const Constraint& c);

}  // namespace mmv

#endif  // MMV_CONSTRAINT_CANONICAL_H_
