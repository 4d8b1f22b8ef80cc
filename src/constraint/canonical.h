// Canonical form of constrained atoms.
//
// One encoder writes every term, constant and literal exactly: ints in
// decimal, doubles as their raw bits, strings length-prefixed, each token
// self-delimiting. Nothing goes through Value's text form, so two
// encodings are equal only for structurally equal inputs (2 and 2.0, 0.0
// and -0.0, doubles that print alike all stay apart). Variables are
// renamed by first appearance. The encoding is the atom identity: the
// head, then the literals and not-blocks ordered by their variable-blind
// encodings (each computed once), nested blocks likewise. Two atoms with
// the same encoding are syntactic variants (same literals modulo variable
// renaming and literal order). It keys set-semantics dedup in the fixpoint
// engine, PlanBatch's burst coalescing and DRed's P_OUT set.
// Only the 128-bit hash of an encoding (CanonicalKey) is kept. The mapping
// is conservative: semantically equivalent atoms may encode differently
// (the paper notes p(X,Y) <- X = Y+1 vs p(X,Y) <- Y = X-1), in which case
// they are simply retained as duplicates — still sound.

#ifndef MMV_CONSTRAINT_CANONICAL_H_
#define MMV_CONSTRAINT_CANONICAL_H_

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/interner.h"
#include "constraint/constraint.h"

namespace mmv {

/// \brief A 128-bit hash of a canonical encoding. Collisions are
/// astronomically unlikely — the halves come from two STRUCTURALLY
/// different byte passes (xor-multiply vs add-multiply-rotate) finalized
/// through full-avalanche mixes, so their bits are independent (the naive
/// two-seeds-one-algorithm alternative leaks correlated low-order bits) —
/// which is the contract its users (dedup sets, burst coalescing, DRed's
/// P_OUT set) rely on.
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

/// \brief Canonical key of the constrained atom pred(args) <- c: the hash
/// of its encoding (simplify, sort literals by their
/// variable-blind encodings, rename variables by first appearance).
///
/// The encoding goes into the caller's reusable \p scratch buffer and only
/// the 128-bit hash survives, so a dedup set holds no strings.
///
/// \p assume_simplified skips the internal SimplifyAtom pass; callers may
/// set it when (args, c) already went through SimplifyAtom (the pass is
/// idempotent, so this is purely a cost knob).
CanonicalKey CanonicalAtomKey(Symbol pred, const TermVec& args,
                              const Constraint& c, bool assume_simplified,
                              std::string* scratch);

/// \brief The bytes CanonicalAtomKey hashes, with
/// assume_simplified = false. For readable test diffs.
std::string CanonicalAtomString(Symbol pred, const TermVec& args,
                                const Constraint& c);

}  // namespace mmv

#endif  // MMV_CONSTRAINT_CANONICAL_H_
