// Unit tests for canonical atom strings.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "constraint/canonical.h"

namespace mmv {
namespace {

Term V(VarId v) { return Term::Var(v); }
Term C(int64_t c) { return Term::Const(Value(c)); }

TEST(CanonicalTest, VariableRenamingInvariance) {
  Constraint a;
  a.Add(Primitive::Eq(V(10), C(1)));
  Constraint b;
  b.Add(Primitive::Eq(V(99), C(1)));
  EXPECT_EQ(CanonicalAtomString("p", {V(10)}, a),
            CanonicalAtomString("p", {V(99)}, b));
}

TEST(CanonicalTest, LiteralOrderInvariance) {
  Constraint a;
  a.Add(Primitive::Neq(V(0), C(1)));
  a.Add(Primitive::Cmp(V(0), CmpOp::kLe, C(5)));
  Constraint b;
  b.Add(Primitive::Cmp(V(7), CmpOp::kLe, C(5)));
  b.Add(Primitive::Neq(V(7), C(1)));
  EXPECT_EQ(CanonicalAtomString("p", {V(0)}, a),
            CanonicalAtomString("p", {V(7)}, b));
}

TEST(CanonicalTest, DistinguishesDifferentConstraints) {
  Constraint a;
  a.Add(Primitive::Neq(V(0), C(1)));
  Constraint b;
  b.Add(Primitive::Neq(V(0), C(2)));
  EXPECT_NE(CanonicalAtomString("p", {V(0)}, a),
            CanonicalAtomString("p", {V(0)}, b));
}

TEST(CanonicalTest, DistinguishesPredicates) {
  Constraint c;
  EXPECT_NE(CanonicalAtomString("p", {V(0)}, c),
            CanonicalAtomString("q", {V(0)}, c));
}

TEST(CanonicalTest, SimplificationApplied) {
  // X = Y & Y = 3 canonicalizes like the direct X = 3 head binding.
  Constraint a;
  a.Add(Primitive::Eq(V(0), V(1)));
  a.Add(Primitive::Eq(V(1), C(3)));
  Constraint b;
  b.Add(Primitive::Eq(V(5), C(3)));
  EXPECT_EQ(CanonicalAtomString("p", {V(0)}, a),
            CanonicalAtomString("p", {V(5)}, b));
}

TEST(CanonicalTest, FalseConstraint) {
  Constraint c;
  c.Add(Primitive::Eq(C(1), C(2)));
  EXPECT_EQ(CanonicalAtomString("p", {V(0)}, c), "p/false");
}

TEST(CanonicalTest, HeadVariableIdentityMatters) {
  // p(X, X) differs from p(X, Y) even with the same (empty) constraint.
  Constraint c;
  EXPECT_NE(CanonicalAtomString("p", {V(0), V(0)}, c),
            CanonicalAtomString("p", {V(0), V(1)}, c));
}

TEST(CanonicalTest, NotBlockOrderInvariance) {
  Constraint a;
  NotBlock b1;
  b1.prims.push_back(Primitive::Eq(V(0), C(1)));
  NotBlock b2;
  b2.prims.push_back(Primitive::Eq(V(0), C(2)));
  a.AddNot(b1);
  a.AddNot(b2);

  Constraint b;
  b.AddNot(b2);
  b.AddNot(b1);
  EXPECT_EQ(CanonicalAtomString("p", {V(0)}, a),
            CanonicalAtomString("p", {V(0)}, b));
}

// ---- 128-bit hash quality ------------------------------------------------
//
// The dedup sets and the solver memo treat CanonicalKey equality as atom
// equality, so the two 64-bit halves must behave like independent hashes.
// These tests would have caught the original scheme (two FNV-1a streams
// over one rendering differing only in seed): FNV's odd multiplier makes
// bit 0 of the state a LINEAR function of the input bytes' low bits plus a
// seed parity, so bit 0 of the two halves' deltas agreed for EVERY input
// pair and the effective collision margin was far below 2^-128.

// Keys of a family of distinct canonical atoms: p(V0) <- V0 = i, then
// q(V0, V1) <- V0 = i & V1 = j — near-identical renderings, the regime
// where weak mixing shows.
std::vector<CanonicalKey> KeyFamily(int unary, int binary_side) {
  std::vector<CanonicalKey> keys;
  std::string scratch;
  for (int i = 0; i < unary; ++i) {
    Constraint c;
    c.Add(Primitive::Eq(V(0), C(i)));
    keys.push_back(CanonicalAtomKey("p", {V(0)}, c, false, &scratch));
  }
  for (int i = 0; i < binary_side; ++i) {
    for (int j = 0; j < binary_side; ++j) {
      Constraint c;
      c.Add(Primitive::Eq(V(0), C(i)));
      c.Add(Primitive::Eq(V(1), C(j)));
      keys.push_back(
          CanonicalAtomKey("q", {V(0), V(1)}, c, false, &scratch));
    }
  }
  return keys;
}

TEST(CanonicalKeyTest, NoCollisionsAcrossCorrelatedFamily) {
  std::vector<CanonicalKey> keys = KeyFamily(20000, 100);
  std::unordered_set<CanonicalKey, CanonicalKey::Hasher> seen;
  for (const CanonicalKey& k : keys) {
    EXPECT_TRUE(seen.insert(k).second) << "128-bit collision";
  }
  // The halves must be collision-free on their own too at this sample
  // size (a birthday collision among 30k 64-bit values has probability
  // ~2^-34): a correlated-stream scheme loses exactly this margin first.
  std::unordered_set<uint64_t> lo, hi;
  for (const CanonicalKey& k : keys) {
    EXPECT_TRUE(lo.insert(k.lo).second) << "lo-half collision";
    EXPECT_TRUE(hi.insert(k.hi).second) << "hi-half collision";
  }
}

TEST(CanonicalKeyTest, AvalancheAcrossNeighboringAtoms) {
  // Neighboring atoms (renderings differing in a digit or two) must flip
  // about half of the 128 key bits on average.
  std::vector<CanonicalKey> keys = KeyFamily(5000, 0);
  int64_t total_bits = 0;
  int pairs = 0;
  for (size_t i = 1; i < keys.size(); ++i) {
    total_bits += __builtin_popcountll(keys[i - 1].lo ^ keys[i].lo) +
                  __builtin_popcountll(keys[i - 1].hi ^ keys[i].hi);
    ++pairs;
  }
  double mean = static_cast<double>(total_bits) / pairs;
  EXPECT_GT(mean, 52.0) << "poor avalanche";
  EXPECT_LT(mean, 76.0) << "poor avalanche";
}

TEST(CanonicalKeyTest, HalvesAreNotBitCorrelated) {
  // Regression for the two-seeds-one-algorithm weakness: under it, bit 0
  // of (lo_a ^ lo_b) equaled bit 0 of (hi_a ^ hi_b) for EVERY pair (both
  // were the parity of the differing input bytes' low bits). Independent
  // halves agree on that bit only ~half the time. Check the low bits and
  // a few higher ones.
  std::vector<CanonicalKey> keys = KeyFamily(4000, 0);
  for (int bit : {0, 1, 2, 7, 31}) {
    uint64_t mask = uint64_t{1} << bit;
    int agree = 0, pairs = 0;
    for (size_t i = 1; i < keys.size(); ++i) {
      uint64_t dlo = keys[i - 1].lo ^ keys[i].lo;
      uint64_t dhi = keys[i - 1].hi ^ keys[i].hi;
      agree += (dlo & mask) == (dhi & mask) ? 1 : 0;
      ++pairs;
    }
    double fraction = static_cast<double>(agree) / pairs;
    EXPECT_GT(fraction, 0.40) << "bit " << bit;
    EXPECT_LT(fraction, 0.60) << "bit " << bit;
  }
}

}  // namespace
}  // namespace mmv
