// The serialization layer under adversarial and randomized input — the
// durability subsystem trusts parser/view_io for both its checkpoint
// bodies (SerializeView/DeserializeView) and its WAL payloads
// (SerializeBurst/ParseBurst), so this file pins down two properties:
//
//  1. Malformed input NEVER crashes or silently skips: every failure is a
//     Status naming the 1-based line (or offset, for support trees) it
//     occurred on — table-driven over the realistic corruption shapes.
//  2. Round-trips are canonically lossless: on randomized programs under
//     both semantics (mixed bursts enriching the views with external
//     facts and post-deletion not-blocks), on deeply nested supports, and
//     across all six standard domains (arith / rel / tuple / text via a
//     combined mediator, faces / spatial / rel via the paper's
//     law-enforcement scenario), serialize-then-deserialize preserves the
//     canonical atom multiset, supports and depths exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "maintenance/batch.h"
#include "parser/view_io.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/law_enforcement.h"

namespace mmv {
namespace {

using testutil::CanonicalState;
using testutil::Instances;
using testutil::ParseOrDie;
using testutil::TestWorld;
using testutil::Unwrap;

// ---- Malformed input ------------------------------------------------------

// Every case is planted as line 3 under two valid-but-skippable lines, so
// the test also proves blank and comment lines COUNT toward the reported
// line number (an off-by-the-skipped-lines report would send the operator
// to the wrong place in a multi-thousand-line checkpoint).
struct MalformedCase {
  const char* name;
  const char* bad_line;
};

class DeserializeViewMalformed
    : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(DeserializeViewMalformed, FailsWithLineNumber) {
  Program p = ParseOrDie("a(X) <- X = 1.");
  const std::string text = std::string("a(X) <- X = 1 @ <1> # 0\n") +
                           "% a comment line\n" + GetParam().bad_line + "\n";
  Result<View> view = parser::DeserializeView(text, &p);
  ASSERT_FALSE(view.ok()) << "accepted malformed input: "
                          << GetParam().bad_line;
  EXPECT_NE(view.status().message().find("line 3:"), std::string::npos)
      << "error lacks the line number: " << view.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DeserializeViewMalformed,
    ::testing::Values(
        MalformedCase{"missing_support", "a(X) <- X = 1 # 0"},
        MalformedCase{"malformed_support", "a(X) <- X = 1 @ <x> # 0"},
        MalformedCase{"unterminated_support", "a(X) <- X = 1 @ <1, <2> # 0"},
        MalformedCase{"support_trailing_junk", "a(X) <- X = 1 @ <1> ? # 0"},
        MalformedCase{"depth_trailing_junk", "a(X) <- X = 1 @ <1> # 3x"},
        MalformedCase{"depth_sign_only", "a(X) <- X = 1 @ <1> # -"},
        MalformedCase{"depth_overflow", "a(X) <- X = 1 @ <1> # 1234567890"},
        MalformedCase{"malformed_atom", "a(X <- X = 1 @ <1> # 0"},
        MalformedCase{"garbage_line", "!!!"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

class ParseBurstMalformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(ParseBurstMalformed, FailsWithLineNumber) {
  Program p = ParseOrDie("a(X) <- X = 1.");
  const std::string text =
      std::string("ins a(X) <- X = 2.\n\n") + GetParam().bad_line + "\n";
  Result<std::vector<parser::ParsedUpdate>> burst =
      parser::ParseBurst(text, &p);
  ASSERT_FALSE(burst.ok()) << "accepted malformed input: "
                           << GetParam().bad_line;
  EXPECT_NE(burst.status().message().find("line 3:"), std::string::npos)
      << "error lacks the line number: " << burst.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseBurstMalformed,
    ::testing::Values(
        MalformedCase{"unknown_verb", "add a(X) <- X = 1."},
        MalformedCase{"missing_verb", "a(X) <- X = 1."},
        MalformedCase{"malformed_atom", "ins a(X <- X = 1."},
        MalformedCase{"empty_atom", "del ."}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

TEST(SupportErrorTest, EveryFailureNamesItsOffset) {
  for (const char* text : {"<", "<a>", "<1> junk", "<1, <2>", "1>"}) {
    Result<Support> s = parser::ParseSupport(text);
    ASSERT_FALSE(s.ok()) << text;
    EXPECT_NE(s.status().message().find("offset"), std::string::npos)
        << "support error lacks its offset: " << s.status().ToString();
  }
}

TEST(MalformedSanity, TheValidPrefixAloneParses) {
  // The scaffolding lines the malformed tables plant their case under are
  // themselves valid — so the failures above are the bad line's fault.
  Program p = ParseOrDie("a(X) <- X = 1.");
  EXPECT_TRUE(
      parser::DeserializeView("a(X) <- X = 1 @ <1> # 0\n% c\n", &p).ok());
  EXPECT_TRUE(parser::ParseBurst("ins a(X) <- X = 2.\n\n", &p).ok());
}

// ---- Randomized round-trips ----------------------------------------------

std::vector<maint::Update> RandomBurst(Rng* rng, Program* program,
                                       const workload::RandomProgramOptions& o,
                                       bool deletions_allowed) {
  int size = static_cast<int>(rng->Int(2, 6));
  std::vector<maint::Update> burst;
  burst.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    maint::UpdateAtom atom;
    if (rng->Chance(0.35)) {
      atom.pred = "d" + std::to_string(rng->Int(0, o.derived_preds - 1));
    } else {
      atom.pred = "base" + std::to_string(rng->Int(0, o.base_preds - 1));
    }
    VarId x = program->factory()->Fresh();
    atom.args = {Term::Var(x)};
    atom.constraint.Add(Primitive::Eq(
        Term::Var(x), Term::Const(Value(rng->Int(0, o.const_pool - 1)))));
    bool is_delete = deletions_allowed && rng->Chance(0.5);
    burst.push_back(is_delete ? maint::Update::Delete(std::move(atom))
                              : maint::Update::Insert(std::move(atom)));
  }
  return burst;
}

// Serialize -> deserialize -> compare the canonical multiset; then repeat
// on the LOADED view, proving serialization is stable under its own
// re-numbering of variables.
void ExpectRoundTrips(const View& view, Program* program) {
  const std::string text = parser::SerializeView(view);
  View loaded = Unwrap(parser::DeserializeView(text, program));
  EXPECT_EQ(CanonicalState(loaded), CanonicalState(view))
      << "first-generation round-trip diverged";
  View second =
      Unwrap(parser::DeserializeView(parser::SerializeView(loaded), program));
  EXPECT_EQ(CanonicalState(second), CanonicalState(view))
      << "second-generation round-trip diverged";
}

void RunRoundTripTrial(uint64_t seed, DupSemantics semantics,
                       bool deletions_allowed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TestWorld w = TestWorld::Make();
  Rng rng(seed);
  workload::RandomProgramOptions opts;
  opts.base_preds = 2;
  opts.derived_preds = 3;
  opts.facts_per_pred = 3;
  opts.rules_per_pred = 2;
  opts.const_pool = 5;
  if (deletions_allowed) opts.interval_fact_prob = 0;
  Program p = workload::MakeRandomProgram(&rng, opts);
  FixpointOptions fp;
  fp.semantics = semantics;
  View view = Unwrap(Materialize(p, w.domains.get(), fp));
  // A couple of bursts enrich the view with external-fact supports
  // (negative clause numbers) and, after deletions, grounded not-blocks —
  // the shapes a recovered checkpoint actually contains.
  int ext_counter = 0;
  for (int b = 0; b < 2; ++b) {
    std::vector<maint::Update> burst =
        RandomBurst(&rng, &p, opts, deletions_allowed);
    Status s = maint::ApplyBatch(p, &view, burst, w.domains.get(), fp,
                                 nullptr, &ext_counter);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ExpectRoundTrips(view, &p);
}

class ViewRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewRoundTrip, MixedBurstUnderDuplicateSemantics) {
  RunRoundTripTrial(GetParam(), DupSemantics::kDuplicate,
                    /*deletions_allowed=*/true);
}

TEST_P(ViewRoundTrip, InsertBurstUnderSetSemantics) {
  RunRoundTripTrial(GetParam() * 7919 + 13, DupSemantics::kSet,
                    /*deletions_allowed=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewRoundTrip,
                         ::testing::Range(uint64_t{1}, uint64_t{31}));

TEST(ViewRoundTripShapes, DeeplyNestedSupports) {
  TestWorld w = TestWorld::Make();
  Program chain = workload::MakeChain(/*depth=*/6, /*width=*/3);
  ExpectRoundTrips(Unwrap(Materialize(chain, w.domains.get())), &chain);
  Program diamond = workload::MakeDiamond(/*depth=*/3, /*width=*/3);
  ExpectRoundTrips(Unwrap(Materialize(diamond, w.domains.get())), &diamond);
}

// ---- Domain coverage ------------------------------------------------------

TEST(ViewRoundTripDomains, ArithRelTupleTextMediator) {
  TestWorld w = TestWorld::Make();
  ASSERT_TRUE(w.catalog->CreateTable(rel::Schema{"t", {"k", "v"}}).ok());
  ASSERT_TRUE(w.catalog->Insert("t", {Value("a"), Value(1)}).ok());
  ASSERT_TRUE(w.catalog->Insert("t", {Value("b"), Value(2)}).ok());
  ASSERT_TRUE(w.handles.text->AddDocument("d1", "alpha beta").ok());
  ASSERT_TRUE(w.handles.text->AddDocument("d2", "beta gamma").ok());
  Program p = ParseOrDie(R"(
    num(X) <- in(X, arith:between(0, 3)) & X != 2.
    key(K) <- in(R, rel:scan("t")) & in(K, tuple:get(R, 0)).
    doc(D) <- in(D, text:match("beta")).
    hit(X, K, D) <- num(X) & key(K) & doc(D).
  )");
  View view = Unwrap(Materialize(p, w.domains.get()));
  ASSERT_FALSE(view.empty());
  auto instances = Instances(view, w.domains.get());
  ExpectRoundTrips(view, &p);
  View loaded = Unwrap(
      parser::DeserializeView(parser::SerializeView(view), &p));
  EXPECT_EQ(Instances(loaded, w.domains.get()), instances);
}

TEST(ViewRoundTripDomains, LawEnforcementFacesSpatialRel) {
  workload::LawEnforcementOptions opts;
  opts.num_people = 5;
  opts.num_photos = 3;
  opts.faces_per_photo = 2;
  opts.seed = 11;
  auto scenario = Unwrap(workload::MakeLawEnforcement(opts));
  View view =
      Unwrap(Materialize(scenario->mediator, scenario->domains.get()));
  ASSERT_FALSE(view.empty());
  auto instances = Instances(view, scenario->domains.get());
  ExpectRoundTrips(view, &scenario->mediator);
  View loaded = Unwrap(parser::DeserializeView(parser::SerializeView(view),
                                               &scenario->mediator));
  EXPECT_EQ(Instances(loaded, scenario->domains.get()), instances);
}

// ---- Burst round-trips (the WAL payload path) -----------------------------

TEST(BurstRoundTrip, RandomBurstsSurviveSerializeParse) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    workload::RandomProgramOptions opts;
    Program p = workload::MakeRandomProgram(&rng, opts);
    std::vector<maint::Update> burst =
        RandomBurst(&rng, &p, opts, /*deletions_allowed=*/true);
    std::vector<parser::ParsedUpdate> parsed;
    for (const maint::Update& u : burst) {
      parser::ParsedUpdate pu;
      pu.is_delete = u.kind == maint::Update::Kind::kDelete;
      pu.atom =
          parser::ParsedAtom{u.atom.pred, u.atom.args, u.atom.constraint};
      parsed.push_back(std::move(pu));
    }
    std::vector<parser::ParsedUpdate> reloaded =
        Unwrap(parser::ParseBurst(parser::SerializeBurst(parsed), &p));
    ASSERT_EQ(reloaded.size(), burst.size());
    for (size_t i = 0; i < burst.size(); ++i) {
      EXPECT_EQ(reloaded[i].is_delete,
                burst[i].kind == maint::Update::Kind::kDelete);
      EXPECT_EQ(CanonicalAtomString(reloaded[i].atom.pred,
                                    reloaded[i].atom.args,
                                    reloaded[i].atom.constraint),
                CanonicalAtomString(burst[i].atom.pred, burst[i].atom.args,
                                    burst[i].atom.constraint));
    }
  }
}

TEST(BurstRoundTrip, BurstsLeaveTheNameTableAlone) {
  Program p = ParseOrDie("path(X, Y) <- e(X, Y).");
  const size_t names = p.names()->size();
  ASSERT_GT(names, 0u);  // programs do record their variable names
  for (int i = 0; i < 1000; ++i) {
    std::vector<parser::ParsedUpdate> burst = Unwrap(parser::ParseBurst(
        "del e(Src, Dst) <- Src = " + std::to_string(i) + " & Dst = 2.\n"
        "ins e(Src, _) <- Src = 3.\n",
        &p));
    ASSERT_EQ(burst.size(), 2u);
  }
  EXPECT_EQ(p.names()->size(), names);
  std::vector<parser::ParsedUpdate> burst =
      Unwrap(parser::ParseBurst("ins e(Src, Dst) <- Src = 3.\n", &p));
  ASSERT_TRUE(burst[0].atom.args[0].is_var());
  VarId id = burst[0].atom.args[0].var();
  EXPECT_EQ(p.names()->NameOf(id), "X" + std::to_string(id));
}

}  // namespace
}  // namespace mmv
