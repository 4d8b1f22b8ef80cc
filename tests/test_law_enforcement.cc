// Integration tests: the full law-enforcement scenario (paper Section 2.2)
// across all domains, with both kinds of updates.

#include <gtest/gtest.h>

#include <unordered_set>

#include "maintenance/external.h"
#include "maintenance/stdel.h"
#include "query/query.h"
#include "test_util.h"
#include "workload/law_enforcement.h"

namespace mmv {
namespace {

using testutil::Unwrap;
using workload::LawEnforcementOptions;
using workload::LawEnforcementScenario;
using workload::MakeLawEnforcement;

std::set<std::string> SecondArgs(const query::InstanceSet& set,
                                 const std::string& first) {
  std::set<std::string> out;
  for (const query::Instance& i : set.instances) {
    if (i.values.size() == 2 && i.values[0].is_string() &&
        i.values[0].as_string() == first && i.values[1].is_string()) {
      out.insert(i.values[1].as_string());
    }
  }
  return out;
}

class LawEnforcementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LawEnforcementOptions opts;
    opts.num_people = 8;
    opts.num_photos = 5;
    opts.faces_per_photo = 3;
    opts.seed = 17;
    scenario_ = Unwrap(MakeLawEnforcement(opts));
  }
  std::unique_ptr<LawEnforcementScenario> scenario_;
};

TEST_F(LawEnforcementTest, SuspectsMatchGroundTruth) {
  View view = testutil::MaterializeOrDie(scenario_->mediator,
                                         scenario_->domains.get());
  query::EnumerateOptions eopts;
  query::InstanceSet suspects = Unwrap(query::QueryPred(
      view, "suspect",
      {Term::Const(Value(scenario_->target)), Term::Var(0)},
      scenario_->domains.get(), eopts));
  EXPECT_EQ(SecondArgs(suspects, scenario_->target),
            scenario_->expected_suspects);
}

TEST_F(LawEnforcementTest, SeenwithMatchesGroundTruth) {
  View view = testutil::MaterializeOrDie(scenario_->mediator,
                                         scenario_->domains.get());
  query::InstanceSet seen = Unwrap(query::QueryPred(
      view, "seenwith",
      {Term::Const(Value(scenario_->target)), Term::Var(0)},
      scenario_->domains.get()));
  EXPECT_EQ(SecondArgs(seen, scenario_->target),
            scenario_->expected_seenwith);
}

// Under W_P the view keeps every domain call, so the query decides them
// all (Corollary 1). One read runs its Solves and Analyzes on one solver,
// whose call memo evaluates each distinct ground call once.
TEST_F(LawEnforcementTest, WpQueryEvaluatesEachCallOnce) {
  class RecordingEvaluator : public DcaEvaluator {
   public:
    explicit RecordingEvaluator(DcaEvaluator* inner) : inner_(inner) {}
    Result<DcaResult> Evaluate(const std::string& domain,
                               const std::string& function,
                               const std::vector<Value>& args) override {
      ++calls;
      distinct.insert(DcaCallKey{domain, function, args});
      return inner_->Evaluate(domain, function, args);
    }
    int64_t StateEpoch() const override { return inner_->StateEpoch(); }

    int64_t calls = 0;
    std::unordered_set<DcaCallKey, DcaCallKey::Hash> distinct;

   private:
    DcaEvaluator* inner_;
  } eval(scenario_->domains.get());
  FixpointOptions fopts;
  fopts.op = OperatorKind::kWp;
  View view = testutil::MaterializeOrDie(scenario_->mediator, &eval, fopts);
  eval.calls = 0;
  eval.distinct.clear();

  SolveStats stats;
  query::EnumerateOptions eopts;
  eopts.solve_stats = &stats;
  query::InstanceSet seen = Unwrap(query::QueryPred(
      view, "seenwith",
      {Term::Const(Value(scenario_->target)), Term::Var(0)}, &eval, eopts));
  EXPECT_EQ(SecondArgs(seen, scenario_->target),
            scenario_->expected_seenwith);
  EXPECT_GT(eval.calls, 0);
  EXPECT_EQ(eval.calls, static_cast<int64_t>(eval.distinct.size()));
  EXPECT_EQ(stats.dca_evaluations, eval.calls);
  EXPECT_GT(stats.solve_calls, 0);
}

TEST_F(LawEnforcementTest, WpViewTracksSurveillanceExtension) {
  // The Section 4 story: extend the surveillance data; the W_P view needs
  // no maintenance yet answers with the enlarged pool of suspects.
  maint::MaintainedView wp = Unwrap(maint::MaintainedView::Create(
      &scenario_->mediator, scenario_->domains.get(),
      maint::MaintenancePolicy::kWpSyntactic));

  query::InstanceSet before = Unwrap(query::QueryPred(
      wp.view(), "seenwith",
      {Term::Const(Value(scenario_->target)), Term::Var(0)},
      scenario_->domains.get()));

  // Find someone not yet seen with the target and photograph them together.
  std::string newcomer;
  for (const std::string& p : scenario_->people) {
    if (p != scenario_->target && !scenario_->expected_seenwith.count(p)) {
      newcomer = p;
      break;
    }
  }
  if (newcomer.empty()) GTEST_SKIP() << "everyone already seen with target";
  int newcomer_id = -1;
  for (size_t i = 0; i < scenario_->people.size(); ++i) {
    if (scenario_->people[i] == newcomer) newcomer_id = static_cast<int>(i);
  }
  scenario_->catalog->clock().Advance();
  ASSERT_TRUE(scenario_->handles.facextract
                  ->AddSurveillanceFace("surveillance", "newphoto", 0)
                  .ok());
  ASSERT_TRUE(scenario_->handles.facextract
                  ->AddSurveillanceFace("surveillance", "newphoto",
                                        newcomer_id)
                  .ok());
  ASSERT_TRUE(wp.OnExternalChange().ok());
  EXPECT_EQ(wp.recompute_count(), 0);

  query::InstanceSet after = Unwrap(query::QueryPred(
      wp.view(), "seenwith",
      {Term::Const(Value(scenario_->target)), Term::Var(0)},
      scenario_->domains.get()));
  std::set<std::string> names = SecondArgs(after, scenario_->target);
  EXPECT_EQ(names.count(newcomer), 1u);
  EXPECT_EQ(names.size(), SecondArgs(before, scenario_->target).size() + 1);
}

TEST_F(LawEnforcementTest, ViewUpdateDeletionOfSeenwith) {
  // Example 3: external evidence exonerates someone; delete the seenwith
  // atom instance — without touching the sources.
  if (scenario_->expected_seenwith.empty()) {
    GTEST_SKIP() << "nobody seen with target";
  }
  std::string victim = *scenario_->expected_seenwith.begin();

  View view = testutil::MaterializeOrDie(scenario_->mediator,
                                         scenario_->domains.get());
  maint::UpdateAtom request;
  request.pred = "seenwith";
  VarId x = scenario_->mediator.factory()->Fresh();
  VarId y = scenario_->mediator.factory()->Fresh();
  request.args = {Term::Var(x), Term::Var(y)};
  request.constraint.Add(
      Primitive::Eq(Term::Var(x), Term::Const(Value(scenario_->target))));
  request.constraint.Add(
      Primitive::Eq(Term::Var(y), Term::Const(Value(victim))));

  ASSERT_TRUE(maint::DeleteStDel(scenario_->mediator, &view, request,
                                 scenario_->domains.get())
                  .ok());

  query::InstanceSet seen = Unwrap(query::QueryPred(
      view, "seenwith",
      {Term::Const(Value(scenario_->target)), Term::Var(0)},
      scenario_->domains.get()));
  std::set<std::string> names = SecondArgs(seen, scenario_->target);
  EXPECT_EQ(names.count(victim), 0u);

  // The consequences are gone too.
  query::InstanceSet sus = Unwrap(query::QueryPred(
      view, "suspect",
      {Term::Const(Value(scenario_->target)), Term::Var(0)},
      scenario_->domains.get()));
  EXPECT_EQ(SecondArgs(sus, scenario_->target).count(victim), 0u);

  // The surveillance source itself is untouched.
  const rel::Table* sv = Unwrap(
      static_cast<const rel::Catalog&>(*scenario_->catalog)
          .GetTable("faces_surveillance"));
  EXPECT_GT(sv->size(), 0u);
}

TEST(LawEnforcementScaleTest, DeterministicAcrossSeeds) {
  LawEnforcementOptions opts;
  opts.num_people = 6;
  opts.num_photos = 3;
  opts.seed = 99;
  auto s1 = Unwrap(MakeLawEnforcement(opts));
  auto s2 = Unwrap(MakeLawEnforcement(opts));
  EXPECT_EQ(s1->expected_suspects, s2->expected_suspects);
  EXPECT_EQ(s1->expected_seenwith, s2->expected_seenwith);
}

}  // namespace
}  // namespace mmv
