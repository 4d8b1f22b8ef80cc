// Unit tests for the canonical encoder: atom keys and their exactness, and
// the value -> text -> lexer round trip of the constants they encode.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraint/canonical.h"
#include "constraint/dca_call_key.h"
#include "parser/parser.h"

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
  // Every false atom of one predicate encodes alike, whatever its head.
  Constraint c;
  c.Add(Primitive::Eq(C(1), C(2)));
  Constraint d;
  d.AddNot(NotBlock{});
  EXPECT_EQ(CanonicalAtomString("p", {V(0)}, c),
            CanonicalAtomString("p", {V(3), C(4)}, d));
  EXPECT_NE(CanonicalAtomString("p", {V(0)}, c),
            CanonicalAtomString("q", {V(0)}, c));
  EXPECT_NE(CanonicalAtomString("p", {V(0)}, c),
            CanonicalAtomString("p", {V(0)}, Constraint()));
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

TEST(CanonicalTest, NestedBlockOrderInvariance) {
  // not(X = 1 & not(X = 2) & not(X = 3)) with its members in either order.
  auto block = [](bool reversed) {
    NotBlock b;
    NotBlock two, three;
    two.prims.push_back(Primitive::Eq(V(0), C(2)));
    three.prims.push_back(Primitive::Eq(V(0), C(3)));
    b.prims.push_back(Primitive::Eq(V(0), C(1)));
    b.inner = reversed ? std::vector<NotBlock>{three, two}
                       : std::vector<NotBlock>{two, three};
    Constraint c;
    c.Add(Primitive::Neq(V(0), C(9)));
    c.AddNot(b);
    return c;
  };
  EXPECT_EQ(CanonicalAtomString("p", {V(0)}, block(false)),
            CanonicalAtomString("p", {V(0)}, block(true)));
}

// ---- exact constants -----------------------------------------------------

// Constants that any text rendering risks merging: ints and doubles of one
// number, signed zeros, doubles alike at 6 significant digits, subnormals,
// the non-finite doubles, the int64 bounds, strings made of the encoding's own separators and
// digits, and nested lists.
std::vector<Value> TrickyValues() {
  return {
      Value(),
      Value(true),
      Value(false),
      Value(int64_t{2}),
      Value(2.0),
      Value(int64_t{0}),
      Value(0.0),
      Value(-0.0),
      Value(1000000.25),
      Value(1000000.75),
      Value(1000000.0),
      Value(int64_t{1000000}),
      Value(0.1234567),
      Value(0.123457),
      Value(5e-324),
      Value(-5e-324),
      Value(2.2250738585072009e-308),
      Value(std::numeric_limits<double>::max()),
      Value(std::numeric_limits<double>::infinity()),
      Value(-std::numeric_limits<double>::infinity()),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(static_cast<double>(std::numeric_limits<int64_t>::max())),
      Value(int64_t{-1}),
      Value(""),
      Value("2"),
      Value("2.0"),
      Value("i2;"),
      Value("1:a"),
      Value("\"'|;&:"),
      Value("s1:a"),
      Value("]"),
      Value("say \"hi\""),
      Value("it's"),
      Value("a\\b\nc"),
      Value("\\n"),
      Value("\\"),
      Value(ValueList{}),
      Value(ValueList{Value()}),
      Value(ValueList{Value(int64_t{1}), Value("a")}),
      Value(ValueList{Value(1.0), Value("a")}),
      Value(ValueList{Value(ValueList{Value(int64_t{1})}), Value("a")}),
      Value(ValueList{Value(ValueList{Value(int64_t{1}), Value("a")})}),
      Value(ValueList{Value("1:a")}),
      Value(ValueList{Value("1"), Value(":a")}),
  };
}

// A random value: a tricky constant, a fresh random scalar, or a list of
// random values. Random strings mix both quote kinds, backslashes and
// newlines with the letters of the escapes.
Value RandomValue(Rng* rng, const std::vector<Value>& tricky, int depth) {
  switch (rng->Int(0, depth > 1 ? 5 : 6)) {
    case 0:
      return Value(rng->Int(-3, 3));
    case 1:
      return Value(static_cast<double>(rng->Int(-3, 3)) / 2);
    case 2:
      return Value(rng->Ident(static_cast<int>(rng->Int(0, 2))));
    case 3:
    case 4:
      return rng->Pick(tricky);
    case 5: {
      static const std::string kChars = "an \"'\\\n";
      std::string str;
      for (int64_t i = rng->Int(0, 5); i > 0; --i) {
        str.push_back(kChars[static_cast<size_t>(
            rng->Int(0, static_cast<int64_t>(kChars.size()) - 1))]);
      }
      return Value(std::move(str));
    }
    default: {
      ValueList l;
      for (int64_t i = rng->Int(0, 3); i > 0; --i) {
        l.push_back(RandomValue(rng, tricky, depth + 1));
      }
      return Value(std::move(l));
    }
  }
}

TEST(CanonicalKeyTest, ConstantsAreEqualExactlyWhenCallKeysAre) {
  std::vector<Value> pool = TrickyValues();
  Rng rng(20261018);
  for (int i = 0; i < 200; ++i) pool.push_back(RandomValue(&rng, pool, 0));
  std::string scratch;
  std::vector<CanonicalKey> keys;
  std::vector<std::string> encodings;
  for (const Value& v : pool) {
    keys.push_back(CanonicalAtomKey("p", {Term::Const(v)}, Constraint(),
                                    /*assume_simplified=*/true, &scratch));
    encodings.push_back(CanonicalAtomString("p", {Term::Const(v)},
                                            Constraint()));
  }
  for (size_t a = 0; a < pool.size(); ++a) {
    for (size_t b = 0; b < pool.size(); ++b) {
      bool same_call = DcaCallKey{"d", "f", {pool[a]}} ==
                       DcaCallKey{"d", "f", {pool[b]}};
      EXPECT_EQ(keys[a] == keys[b], same_call)
          << pool[a].ToString() << " vs " << pool[b].ToString();
      EXPECT_EQ(encodings[a] == encodings[b], same_call)
          << pool[a].ToString() << " vs " << pool[b].ToString();
    }
  }
}

// ---- value text round trip -----------------------------------------------

// value -> text -> lexer and parser: the same value (equal under the exact
// call-key equality, so 2 vs 2.0 and 0.0 vs -0.0 stay apart) that prints
// as the same text.
TEST(ValueTextTest, PrintedValuesParseBackEqual) {
  std::vector<Value> pool = TrickyValues();
  Rng rng(20261019);
  for (int i = 0; i < 500; ++i) pool.push_back(RandomValue(&rng, pool, 0));
  int checked = 0;
  for (const Value& v : pool) {
    std::string text = v.ToString();
    Program program;
    auto atom = parser::ParseConstrainedAtom("v(" + text + ").", &program);
    ASSERT_TRUE(atom.ok()) << text << ": " << atom.status().ToString();
    ASSERT_EQ(atom->args.size(), 1u) << text;
    ASSERT_TRUE(atom->args[0].is_const()) << text;
    const Value& back = atom->args[0].constant();
    EXPECT_TRUE((DcaCallKey{"d", "f", {back}} == DcaCallKey{"d", "f", {v}}))
        << text << " read back as " << back.ToString();
    EXPECT_EQ(back.ToString(), text);
    ++checked;
  }
  EXPECT_GT(checked, 400);
}

// ---- renaming invariance -------------------------------------------------

Term RandomTerm(Rng* rng, const std::vector<Value>& tricky, VarId vars) {
  if (rng->Chance(0.5)) {
    return V(static_cast<VarId>(rng->Int(0, static_cast<int64_t>(vars) - 1)));
  }
  return Term::Const(RandomValue(rng, tricky, 1));
}

Primitive RandomPrimitive(Rng* rng, const std::vector<Value>& tricky,
                          VarId vars) {
  Term x = V(static_cast<VarId>(rng->Int(0, static_cast<int64_t>(vars) - 1)));
  switch (rng->Int(0, 4)) {
    case 0:
      return Primitive::Eq(x, RandomTerm(rng, tricky, vars));
    case 1:
      return Primitive::Neq(x, RandomTerm(rng, tricky, vars));
    case 2:
      return Primitive::Cmp(x, static_cast<CmpOp>(rng->Int(0, 3)),
                            RandomTerm(rng, tricky, vars));
    default: {
      DomainCall call{rng->Pick(std::vector<std::string>{"arith", "text"}),
                      rng->Pick(std::vector<std::string>{"between", "f"}),
                      {}};
      for (int64_t i = rng->Int(0, 2); i > 0; --i) {
        call.args.push_back(RandomTerm(rng, tricky, vars));
      }
      return rng->Chance(0.5) ? Primitive::In(x, call)
                              : Primitive::NotInCall(x, call);
    }
  }
}

NotBlock RandomBlock(Rng* rng, const std::vector<Value>& tricky, VarId vars,
                     int depth) {
  NotBlock b;
  for (int64_t i = rng->Int(1, 3); i > 0; --i) {
    b.prims.push_back(RandomPrimitive(rng, tricky, vars));
  }
  if (depth < 2) {
    for (int64_t i = rng->Int(0, 2); i > 0; --i) {
      b.inner.push_back(RandomBlock(rng, tricky, vars, depth + 1));
    }
  }
  return b;
}

Term RenameTerm(Term t, const std::vector<VarId>& to) {
  return t.is_var() ? V(to[t.var()]) : t;
}

Primitive RenamePrimitive(Primitive p, const std::vector<VarId>& to) {
  p.lhs = RenameTerm(p.lhs, to);
  if (p.kind == PrimKind::kEq || p.kind == PrimKind::kNeq ||
      p.kind == PrimKind::kCmp) {
    p.rhs = RenameTerm(p.rhs, to);
  }
  for (Term& t : p.call.args) t = RenameTerm(t, to);
  return p;
}

NotBlock RenameBlock(const NotBlock& b, const std::vector<VarId>& to) {
  NotBlock out;
  for (const Primitive& p : b.prims) {
    out.prims.push_back(RenamePrimitive(p, to));
  }
  for (const NotBlock& i : b.inner) out.inner.push_back(RenameBlock(i, to));
  return out;
}

TEST(CanonicalKeyTest, RenamedCopiesKeepTheirKeys) {
  std::vector<Value> tricky = TrickyValues();
  Rng rng(7);
  std::string scratch;
  for (int trial = 0; trial < 300; ++trial) {
    const VarId vars = static_cast<VarId>(rng.Int(1, 5));
    Constraint c;
    for (int64_t i = rng.Int(0, 5); i > 0; --i) {
      c.Add(RandomPrimitive(&rng, tricky, vars));
    }
    for (int64_t i = rng.Int(0, 2); i > 0; --i) {
      c.AddNot(RandomBlock(&rng, tricky, vars, 0));
    }
    TermVec head;
    for (int64_t i = rng.Int(0, 3); i > 0; --i) {
      head.push_back(RandomTerm(&rng, tricky, vars));
    }
    // An injective renaming: a shuffled permutation moved to high ids.
    std::vector<VarId> to(vars);
    for (VarId v = 0; v < vars; ++v) to[v] = 1000 + v;
    for (size_t i = to.size(); i > 1; --i) {
      std::swap(to[i - 1], to[static_cast<size_t>(rng.Int(
                               0, static_cast<int64_t>(i) - 1))]);
    }
    Constraint renamed;
    for (const Primitive& p : c.prims()) {
      renamed.Add(RenamePrimitive(p, to));
    }
    for (const NotBlock& b : c.nots()) renamed.AddNot(RenameBlock(b, to));
    TermVec renamed_head;
    for (const Term& t : head) renamed_head.push_back(RenameTerm(t, to));

    std::string text = c.ToString();
    EXPECT_EQ(CanonicalAtomKey("p", head, c, /*assume_simplified=*/true,
                               &scratch),
              CanonicalAtomKey("p", renamed_head, renamed,
                               /*assume_simplified=*/true, &scratch))
        << text;
    EXPECT_EQ(CanonicalAtomString("p", head, c),
              CanonicalAtomString("p", renamed_head, renamed))
        << text;
  }
}

// ---- 128-bit hash quality ------------------------------------------------
//
// The dedup sets and burst coalescing treat CanonicalKey equality as atom
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
