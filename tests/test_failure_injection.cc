// Failure-injection tests: every layer must surface evaluator failures as
// Status errors (never crash, never silently produce wrong views).

#include <gtest/gtest.h>

#include "maintenance/batch.h"
#include "maintenance/dred_constrained.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::MaterializeOrDie;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

// Fails every evaluation after the first `budget` calls.
class FlakyEvaluator : public DcaEvaluator {
 public:
  FlakyEvaluator(DcaEvaluator* inner, int budget)
      : inner_(inner), budget_(budget) {}

  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override {
    if (budget_-- <= 0) {
      return Status::Internal("injected failure");
    }
    return inner_->Evaluate(domain, function, args);
  }

 private:
  DcaEvaluator* inner_;
  int budget_;
};

class FailureInjectionTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { world_ = TestWorld::Make(); }
  TestWorld world_;
};

TEST_P(FailureInjectionTest, MaterializeSurfacesErrors) {
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 5)).
    b(X) <- a(X) & in(X, arith:between(0, 3)).
    c(X) <- b(X).
  )");
  FlakyEvaluator flaky(world_.domains.get(), GetParam());
  Result<View> v = Materialize(p, &flaky);
  if (!v.ok()) {
    EXPECT_EQ(v.status().code(), StatusCode::kInternal);
  }
  // With a generous budget it must succeed.
  FlakyEvaluator generous(world_.domains.get(), 1000000);
  EXPECT_TRUE(Materialize(p, &generous).ok());
}

TEST_P(FailureInjectionTest, StDelSurfacesErrors) {
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 5)).
    b(X) <- a(X).
  )");
  View view = MaterializeOrDie(p, world_.domains.get());
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 2.", &p);

  FlakyEvaluator flaky(world_.domains.get(), GetParam());
  View copy = view;
  Status s = maint::DeleteStDel(p, &copy, req, &flaky);
  if (!s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kInternal);
  }
}

TEST_P(FailureInjectionTest, DRedSurfacesErrors) {
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 5)).
    b(X) <- a(X).
  )");
  FixpointOptions opts;
  opts.semantics = DupSemantics::kSet;
  View view = Unwrap(Materialize(p, world_.domains.get(), opts));
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 2.", &p);

  FlakyEvaluator flaky(world_.domains.get(), GetParam());
  Result<View> out = maint::DeleteDRed(p, view, req, &flaky, opts);
  if (!out.ok()) {
    EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  }
}

TEST_P(FailureInjectionTest, EnumerateSurfacesErrors) {
  Program p = ParseOrDie("a(X) <- in(X, arith:between(0, 5)).");
  View view = MaterializeOrDie(p, world_.domains.get());
  FlakyEvaluator flaky(world_.domains.get(), GetParam());
  Result<query::InstanceSet> set = query::EnumerateView(view, &flaky);
  if (!set.ok()) {
    EXPECT_EQ(set.status().code(), StatusCode::kInternal);
  }
}

// Budgets straddling every phase boundary of the small workloads above.
INSTANTIATE_TEST_SUITE_P(Budgets, FailureInjectionTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21));

TEST(CallCacheTest, HistoricalCallsAreMemoized) {
  TestWorld w = TestWorld::Make();
  ASSERT_TRUE(w.catalog->CreateTable(rel::Schema{"t", {"k"}}).ok());
  ASSERT_TRUE(w.catalog->Insert("t", {Value("a")}).ok());
  w.catalog->clock().Advance();  // tick 0 is now historical

  w.domains->EnableCallCache(true);
  w.domains->ResetCallCount();
  for (int i = 0; i < 5; ++i) {
    auto r = w.domains->EvaluateAt("rel", "scan", {Value("t")}, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->values.size(), 1u);
  }
  EXPECT_EQ(w.domains->call_count(), 1);  // one live evaluation
  EXPECT_EQ(w.domains->cache_hits(), 4);
}

// The cache keys a call by its exact arguments: 1000000.25 and 1000000.75
// print alike ("1e+06") at the default stream precision, and 2 and 2.0
// are equal Values, yet each is its own call and reaches the domain.
TEST(CallCacheTest, DistinctDoubleArgumentsReachTheDomain) {
  TestWorld w = TestWorld::Make();
  w.catalog->clock().Advance();  // tick 0 is now historical
  w.domains->EnableCallCache(true);
  w.domains->ResetCallCount();
  auto times_two = [&](Value x) {
    return Unwrap(w.domains->EvaluateAt("arith", "times", {x, Value(2)}, 0));
  };
  EXPECT_EQ(times_two(Value(1000000.25)).values,
            std::vector<Value>{Value(2000000.5)});
  EXPECT_EQ(times_two(Value(1000000.75)).values,
            std::vector<Value>{Value(2000001.5)});
  EXPECT_EQ(w.domains->call_count(), 2);
  EXPECT_TRUE(times_two(Value(int64_t{2})).values.at(0).is_int());
  EXPECT_TRUE(times_two(Value(2.0)).values.at(0).is_double());
  EXPECT_EQ(w.domains->call_count(), 4);
  EXPECT_EQ(w.domains->cache_hits(), 0);
  times_two(Value(1000000.75));  // a repeated call is served from the cache
  EXPECT_EQ(w.domains->call_count(), 4);
  EXPECT_EQ(w.domains->cache_hits(), 1);
}

TEST(CallCacheTest, CurrentTickNeverCached) {
  TestWorld w = TestWorld::Make();
  ASSERT_TRUE(w.catalog->CreateTable(rel::Schema{"t", {"k"}}).ok());
  w.domains->EnableCallCache(true);

  ASSERT_TRUE(w.catalog->Insert("t", {Value("a")}).ok());
  auto r1 = w.domains->Evaluate("rel", "scan", {Value("t")});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->values.size(), 1u);

  // Mutate within the same tick: the next evaluation must see it.
  ASSERT_TRUE(w.catalog->Insert("t", {Value("b")}).ok());
  auto r2 = w.domains->Evaluate("rel", "scan", {Value("t")});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->values.size(), 2u);
  EXPECT_EQ(w.domains->cache_hits(), 0);
}

TEST(CallCacheTest, DisableClearsCache) {
  TestWorld w = TestWorld::Make();
  ASSERT_TRUE(w.catalog->CreateTable(rel::Schema{"t", {"k"}}).ok());
  ASSERT_TRUE(w.catalog->Insert("t", {Value("a")}).ok());
  w.catalog->clock().Advance();
  w.domains->EnableCallCache(true);
  ASSERT_TRUE(w.domains->EvaluateAt("rel", "scan", {Value("t")}, 0).ok());
  w.domains->EnableCallCache(false);
  w.domains->ResetCallCount();
  ASSERT_TRUE(w.domains->EvaluateAt("rel", "scan", {Value("t")}, 0).ok());
  EXPECT_EQ(w.domains->call_count(), 1);  // evaluated live again
}

}  // namespace
}  // namespace mmv
