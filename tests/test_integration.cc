// Cross-feature integration tests: serialization x maintenance x external
// updates, combined the way a long-lived deployment would.

#include <gtest/gtest.h>

#include "maintenance/batch.h"
#include "maintenance/external.h"
#include "parser/view_io.h"
#include "query/query.h"
#include "test_util.h"

namespace mmv {
namespace {

using testutil::Instances;
using testutil::MaterializeOrDie;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

TEST(IntegrationTest, TextDomainMediatorLifecycle) {
  TestWorld w = TestWorld::Make();
  ASSERT_TRUE(w.handles.text->AddDocument("d1", "alpha beta").ok());
  ASSERT_TRUE(w.handles.text->AddDocument("d2", "beta gamma").ok());
  Program p = ParseOrDie(R"(
    has_beta(D) <- in(D, text:match("beta")).
    pair(D, E) <- has_beta(D) & has_beta(E) & D != E.
  )");
  View v = MaterializeOrDie(p, w.domains.get());
  EXPECT_EQ(Instances(v, w.domains.get()),
            (std::set<std::string>{"has_beta(\"d1\")", "has_beta(\"d2\")",
                                   "pair(\"d1\", \"d2\")",
                                   "pair(\"d2\", \"d1\")"}));

  // Delete one document flag; the joins collapse.
  maint::UpdateAtom req = ParseUpdate("has_beta(D) <- D = \"d1\".", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &v, req, w.domains.get()).ok());
  EXPECT_EQ(Instances(v, w.domains.get()),
            (std::set<std::string>{"has_beta(\"d2\")"}));
}

TEST(IntegrationTest, SerializeThenExternalUpdateUnderWp) {
  // A W_P view survives serialization AND still tracks external changes
  // at query time after reload.
  TestWorld w = TestWorld::Make();
  ASSERT_TRUE(w.catalog->CreateTable(rel::Schema{"t", {"k"}}).ok());
  ASSERT_TRUE(w.catalog->Insert("t", {Value("a")}).ok());
  Program p = ParseOrDie(R"(keys(K) <- in(R, rel:scan("t")) & in(K, tuple:get(R, 0)).)");

  FixpointOptions wp;
  wp.op = OperatorKind::kWp;
  View view = Unwrap(Materialize(p, w.domains.get(), wp));
  View loaded =
      Unwrap(parser::DeserializeView(parser::SerializeView(view), &p));

  // Mutate the source after the snapshot was taken.
  w.catalog->clock().Advance();
  ASSERT_TRUE(w.catalog->Insert("t", {Value("b")}).ok());

  EXPECT_EQ(Instances(loaded, w.domains.get()),
            (std::set<std::string>{"keys(\"a\")", "keys(\"b\")"}));
}

TEST(IntegrationTest, BatchAfterReloadMatchesBatchBeforeSerialize) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- in(X, arith:between(0, 4)). b(X) <- a(X).");
  View original = MaterializeOrDie(p, w.domains.get());

  std::vector<maint::Update> updates = {
      maint::Update::Delete(ParseUpdate("a(X) <- X = 1.", &p)),
      maint::Update::Insert(ParseUpdate("a(X) <- X = 9.", &p)),
  };

  View direct = original;
  ASSERT_TRUE(
      maint::ApplyBatch(p, &direct, updates, w.domains.get()).ok());

  View reloaded = Unwrap(
      parser::DeserializeView(parser::SerializeView(original), &p));
  ASSERT_TRUE(
      maint::ApplyBatch(p, &reloaded, updates, w.domains.get()).ok());

  EXPECT_EQ(Instances(direct, w.domains.get()),
            Instances(reloaded, w.domains.get()));
}

TEST(IntegrationTest, MaintainedViewSurvivesManyRounds) {
  // Soak: alternate external updates and view updates for several rounds;
  // the W_P view plus StDel must stay consistent with a fresh recompute.
  TestWorld w = TestWorld::Make();
  ASSERT_TRUE(w.catalog->CreateTable(rel::Schema{"src", {"v"}}).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(w.catalog->Insert("src", {Value(i)}).ok());
  }
  Program p = ParseOrDie(R"(
    item(V) <- in(R, rel:scan("src")) & in(V, tuple:get(R, 0)).
    keep(V) <- item(V).
  )");
  FixpointOptions wp;
  wp.op = OperatorKind::kWp;
  View view = Unwrap(Materialize(p, w.domains.get(), wp));

  for (int round = 0; round < 3; ++round) {
    // External change.
    w.catalog->clock().Advance();
    ASSERT_TRUE(
        w.catalog->Insert("src", {Value(100 + round)}).ok());
    // View update: retract one kept value.
    maint::UpdateAtom req = ParseUpdate(
        "keep(V) <- V = " + std::to_string(round) + ".", &p);
    ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());
  }

  // Items reflect the current table; keeps lack the three retracted values.
  auto insts = Instances(view, w.domains.get());
  EXPECT_EQ(insts.count("item(0)"), 1u);
  EXPECT_EQ(insts.count("item(102)"), 1u);
  EXPECT_EQ(insts.count("keep(0)"), 0u);
  EXPECT_EQ(insts.count("keep(1)"), 0u);
  EXPECT_EQ(insts.count("keep(2)"), 0u);
  EXPECT_EQ(insts.count("keep(3)"), 1u);
  EXPECT_EQ(insts.count("keep(102)"), 1u);
}

}  // namespace
}  // namespace mmv
