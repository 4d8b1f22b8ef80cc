// Unit tests for Section 4: maintenance under external domain changes
// (MaintainedView under the T_P and W_P policies).

#include <gtest/gtest.h>

#include "maintenance/external.h"
#include "test_util.h"

namespace mmv {
namespace {

using testutil::InstancesOf;
using testutil::ParseOrDie;
using testutil::TestWorld;
using testutil::Unwrap;

class ExternalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = TestWorld::Make();
    ASSERT_TRUE(world_.catalog
                    ->CreateTable(rel::Schema{"emp", {"name", "dept"}})
                    .ok());
    ASSERT_TRUE(
        world_.catalog->Insert("emp", {Value("ann"), Value("db")}).ok());
    ASSERT_TRUE(
        world_.catalog->Insert("emp", {Value("bob"), Value("os")}).ok());
    program_ = ParseOrDie(R"(
      dbpeople(N) <-
        in(R, rel:select_eq("emp", "dept", "db")) &
        in(N, tuple:get(R, 0)).
    )");
  }

  void MutateEmp() {
    world_.catalog->clock().Advance();
    ASSERT_TRUE(
        world_.catalog->Insert("emp", {Value("cat"), Value("db")}).ok());
    ASSERT_TRUE(
        world_.catalog->Delete("emp", {Value("ann"), Value("db")}).ok());
  }

  TestWorld world_;
  Program program_;
};

TEST_F(ExternalTest, TpPolicyRecomputes) {
  maint::MaintainedView mv = Unwrap(maint::MaintainedView::Create(
      &program_, world_.domains.get(),
      maint::MaintenancePolicy::kTpRecompute));
  EXPECT_EQ(InstancesOf(mv.view(), "dbpeople", world_.domains.get()),
            (std::set<std::string>{"dbpeople(\"ann\")"}));

  MutateEmp();
  ASSERT_TRUE(mv.OnExternalChange().ok());
  EXPECT_EQ(mv.recompute_count(), 1);
  EXPECT_GT(mv.maintenance_derivations(), 0);
  EXPECT_EQ(InstancesOf(mv.view(), "dbpeople", world_.domains.get()),
            (std::set<std::string>{"dbpeople(\"cat\")"}));
}

TEST_F(ExternalTest, WpPolicyIsZeroMaintenance) {
  maint::MaintainedView mv = Unwrap(maint::MaintainedView::Create(
      &program_, world_.domains.get(),
      maint::MaintenancePolicy::kWpSyntactic));
  std::string before = mv.view().ToString();
  EXPECT_EQ(InstancesOf(mv.view(), "dbpeople", world_.domains.get()),
            (std::set<std::string>{"dbpeople(\"ann\")"}));

  MutateEmp();
  ASSERT_TRUE(mv.OnExternalChange().ok());
  // Theorem 4: no syntactic change, no derivations spent.
  EXPECT_EQ(mv.view().ToString(), before);
  EXPECT_EQ(mv.recompute_count(), 0);
  EXPECT_EQ(mv.maintenance_derivations(), 0);
  // Corollary 1: query-time instances reflect the new state.
  EXPECT_EQ(InstancesOf(mv.view(), "dbpeople", world_.domains.get()),
            (std::set<std::string>{"dbpeople(\"cat\")"}));
}

TEST_F(ExternalTest, PoliciesAgreeAtEveryTick) {
  maint::MaintainedView tp = Unwrap(maint::MaintainedView::Create(
      &program_, world_.domains.get(),
      maint::MaintenancePolicy::kTpRecompute));
  maint::MaintainedView wp = Unwrap(maint::MaintainedView::Create(
      &program_, world_.domains.get(),
      maint::MaintenancePolicy::kWpSyntactic));

  for (int round = 0; round < 3; ++round) {
    world_.catalog->clock().Advance();
    ASSERT_TRUE(world_.catalog
                    ->Insert("emp", {Value("p" + std::to_string(round)),
                                     Value("db")})
                    .ok());
    ASSERT_TRUE(tp.OnExternalChange().ok());
    ASSERT_TRUE(wp.OnExternalChange().ok());
    EXPECT_EQ(InstancesOf(tp.view(), "dbpeople", world_.domains.get()),
              InstancesOf(wp.view(), "dbpeople", world_.domains.get()))
        << "round " << round;
  }
  EXPECT_EQ(tp.recompute_count(), 3);
  EXPECT_EQ(wp.recompute_count(), 0);
}

TEST_F(ExternalTest, DeltaDrivesRemAddSets) {
  int64_t t0 = world_.catalog->clock().now();
  MutateEmp();
  int64_t t1 = world_.catalog->clock().now();
  dom::FunctionDelta d = Unwrap(world_.domains->Delta(
      "rel", "select_eq", {Value("emp"), Value("dept"), Value("db")}, t0,
      t1));
  // ADD = {cat row}, REM = {ann row} (the paper's eqs. 6, 7).
  ASSERT_EQ(d.added.size(), 1u);
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.added[0].as_list()[0], Value("cat"));
  EXPECT_EQ(d.removed[0].as_list()[0], Value("ann"));
}

}  // namespace
}  // namespace mmv
