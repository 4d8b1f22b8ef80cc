// Unit tests for the batch-maintenance pipeline: the coalescing planner,
// the segmented multi-atom passes, per-phase counters, external-support
// numbering, and the duplicate-freeness check.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "core/snapshot.h"
#include "durability/durable_log.h"
#include "durability/fs.h"
#include "maintenance/batch.h"
#include "plan/plan_cache.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::Instances;
using testutil::MaterializeOrDie;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

// ---------------------------------------------------------------------------
// Coalescing planner.

maint::Update Ins(const std::string& text, Program* p) {
  return maint::Update::Insert(ParseUpdate(text, p));
}
maint::Update Del(const std::string& text, Program* p) {
  return maint::Update::Delete(ParseUpdate(text, p));
}

TEST(PlanBatchTest, MergesDuplicateInserts) {
  Program p = ParseOrDie("a(X) <- X = 0.");
  maint::BatchPlan plan = maint::PlanBatch(
      p, {Ins("a(X) <- X = 1.", &p), Ins("a(Y) <- Y = 1.", &p),
          Ins("a(X) <- X = 1.", &p)});
  ASSERT_EQ(plan.ops.size(), 1u);  // variable renaming folds into one key
  EXPECT_EQ(plan.coalesced_away, 2u);
  EXPECT_EQ(plan.ops[0].kind, maint::Update::Kind::kInsert);
}

TEST(PlanBatchTest, MergesDuplicateDeletes) {
  Program p = ParseOrDie("a(X) <- X = 0.");
  maint::BatchPlan plan = maint::PlanBatch(
      p, {Del("a(X) <- X = 1.", &p), Del("a(X) <- X = 1.", &p)});
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, maint::Update::Kind::kDelete);
}

TEST(PlanBatchTest, DropsDeleteBeforeReinsert) {
  // delete k; insert k  ==  insert k (re-asserting wins).
  Program p = ParseOrDie("a(X) <- X = 0.");
  maint::BatchPlan plan = maint::PlanBatch(
      p, {Del("a(X) <- X = 1.", &p), Ins("a(X) <- X = 1.", &p)});
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, maint::Update::Kind::kInsert);
}

TEST(PlanBatchTest, DropsInsertBeforeDelete) {
  // insert k; delete k  ==  delete k (the delete wipes the insert).
  Program p = ParseOrDie("a(X) <- X = 0.");
  maint::BatchPlan plan = maint::PlanBatch(
      p, {Ins("a(X) <- X = 1.", &p), Del("a(X) <- X = 1.", &p)});
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, maint::Update::Kind::kDelete);
}

TEST(PlanBatchTest, CancellationChainKeepsLastAssertion) {
  Program p = ParseOrDie("a(X) <- X = 0.");
  maint::BatchPlan plan = maint::PlanBatch(p, {Ins("a(X) <- X = 1.", &p),
                                            Del("a(X) <- X = 1.", &p),
                                            Ins("a(X) <- X = 1.", &p)});
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, maint::Update::Kind::kInsert);
  EXPECT_EQ(plan.coalesced_away, 2u);
}

TEST(PlanBatchTest, InterveningDeleteBlocksInsertRules) {
  // A delete of ANY predicate can strip derived coverage, so neither the
  // duplicate-insert merge nor the delete-reinsert drop may fire across it.
  Program p = ParseOrDie("a(X) <- X = 0.");
  maint::BatchPlan dup = maint::PlanBatch(p, {Ins("a(X) <- X = 1.", &p),
                                           Del("q(X) <- X = 7.", &p),
                                           Ins("a(X) <- X = 1.", &p)});
  EXPECT_EQ(dup.ops.size(), 3u);
  maint::BatchPlan pair = maint::PlanBatch(p, {Del("a(X) <- X = 1.", &p),
                                            Del("q(X) <- X = 7.", &p),
                                            Ins("a(X) <- X = 1.", &p)});
  EXPECT_EQ(pair.ops.size(), 3u);
}

TEST(PlanBatchTest, InterveningInsertBlocksDeleteRules) {
  // An insert of ANY predicate can re-derive deleted instances (and its Add
  // set can depend on the coverage an earlier insert provided).
  Program p = ParseOrDie("a(X) <- X = 0.");
  maint::BatchPlan dup = maint::PlanBatch(p, {Del("a(X) <- X = 1.", &p),
                                           Ins("q(X) <- X = 7.", &p),
                                           Del("a(X) <- X = 1.", &p)});
  EXPECT_EQ(dup.ops.size(), 3u);
  maint::BatchPlan pair = maint::PlanBatch(p, {Ins("a(X) <- X = 1.", &p),
                                            Ins("q(X) <- X = 7.", &p),
                                            Del("a(X) <- X = 1.", &p)});
  EXPECT_EQ(pair.ops.size(), 3u);
}

TEST(PlanBatchTest, DeleteReinsertAcrossOtherInsertsStillDrops) {
  Program p = ParseOrDie("a(X) <- X = 0.");
  maint::BatchPlan plan = maint::PlanBatch(p, {Del("a(X) <- X = 1.", &p),
                                            Ins("b(X) <- X = 2.", &p),
                                            Ins("a(X) <- X = 1.", &p)});
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_EQ(plan.ops[0].kind, maint::Update::Kind::kInsert);  // b
  EXPECT_EQ(plan.ops[1].kind, maint::Update::Kind::kInsert);  // a
}

TEST(PlanBatchTest, DerivedPredicateBlocksDeleteReinsertDrop) {
  // For a DERIVED k, delete-then-reinsert is NOT a plain re-assertion:
  // sequential execution swaps derived coverage for an independent external
  // support, which a later ancestor deletion can observe. The pair must
  // survive planning.
  Program p = ParseOrDie("r(X) <- X = 1. k(X) <- r(X).");
  maint::BatchPlan plan = maint::PlanBatch(
      p, {Del("k(X) <- X = 1.", &p), Ins("k(X) <- X = 1.", &p)});
  EXPECT_EQ(plan.ops.size(), 2u);
}

TEST(PlanBatchTest, BodyParticipantBlocksDeleteReinsertDrop) {
  // Re-inserting a rule BODY predicate re-derives its descendants, undoing
  // any earlier deletion of derived atoms above it — the pair must execute.
  Program p = ParseOrDie("b(X) <- X = 1. d(X) <- b(X).");
  maint::BatchPlan plan = maint::PlanBatch(
      p, {Del("b(X) <- X = 1.", &p), Ins("b(X) <- X = 1.", &p)});
  EXPECT_EQ(plan.ops.size(), 2u);
}

// ---------------------------------------------------------------------------
// Support-structure regressions: instance-equal intermediate states are NOT
// interchangeable, because later deletions propagate along supports. Both
// bursts end with a deletion that observes whether the re-asserted derived
// atom gained an independent external support.

TEST(PlanBatchTest, DoublesThatPrintAlikeAreDistinctKeys) {
  // 1000000.25 and 1000000.75 print alike at 6 significant digits; a
  // coalescing key built from that text would fold the second insert into
  // the first and leave one r instance of two.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("q(X) <- X = 0.");
  std::vector<maint::Update> burst = {Ins("r(X) <- X = 1000000.25.", &p),
                                      Ins("r(X) <- X = 1000000.75.", &p)};
  maint::BatchPlan plan = maint::PlanBatch(p, burst);
  EXPECT_EQ(plan.ops.size(), 2u);
  EXPECT_EQ(plan.coalesced_away, 0u);

  View batch_view = MaterializeOrDie(p, w.domains.get());
  View seq_view = batch_view;
  ASSERT_TRUE(maint::ApplyBatch(p, &batch_view, burst, w.domains.get()).ok());
  ASSERT_TRUE(maint::ApplyUpdatesSequential(p, &seq_view, burst,
                                            w.domains.get())
                  .ok());
  EXPECT_EQ(batch_view.AtomsFor("r").size(), 2u);
  EXPECT_EQ(Instances(batch_view, w.domains.get()),
            Instances(seq_view, w.domains.get()));
  EXPECT_EQ(testutil::InstancesOf(batch_view, "r", w.domains.get()),
            (std::set<std::string>{"r(1000000.25)", "r(1000000.75)"}));
}

TEST(BatchTest, ReinsertOfDerivedAtomSurvivesAncestorDeletion) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("r(X) <- X = 1. k(X) <- r(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  std::vector<maint::Update> burst = {Del("k(X) <- X = 1.", &p),
                                      Ins("k(X) <- X = 1.", &p),
                                      Del("r(X) <- X = 1.", &p)};
  View seq = view;
  ASSERT_TRUE(maint::ApplyBatch(p, &view, burst, w.domains.get()).ok());
  ASSERT_TRUE(
      maint::ApplyUpdatesSequential(p, &seq, burst, w.domains.get()).ok());
  // The re-asserted k(1) is external now; deleting r must not take it away.
  EXPECT_EQ(Instances(view, w.domains.get()),
            (std::set<std::string>{"k(1)"}));
  EXPECT_EQ(Instances(view, w.domains.get()),
            Instances(seq, w.domains.get()));
}

TEST(BatchTest, ReinsertOfBodyPredicateRederivesDeletedDescendants) {
  // Sequentially, re-inserting b(1) runs a continuation that re-derives
  // d(1) even though the burst deleted it first — so the planner must not
  // cancel the b pair, and ApplyBatch must match.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("b(X) <- X = 1. d(X) <- b(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  std::vector<maint::Update> burst = {Del("d(X) <- X = 1.", &p),
                                      Del("b(X) <- X = 1.", &p),
                                      Ins("b(X) <- X = 1.", &p)};
  View seq = view;
  ASSERT_TRUE(maint::ApplyBatch(p, &view, burst, w.domains.get()).ok());
  ASSERT_TRUE(
      maint::ApplyUpdatesSequential(p, &seq, burst, w.domains.get()).ok());
  EXPECT_EQ(Instances(view, w.domains.get()),
            (std::set<std::string>{"b(1)", "d(1)"}));
  EXPECT_EQ(Instances(view, w.domains.get()),
            Instances(seq, w.domains.get()));
}

TEST(BatchTest, InsertCoveredByEarlierInsertsConsequencesAddsNoExternal) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("k(X) <- r(X).");
  View view = MaterializeOrDie(p, w.domains.get());  // empty
  std::vector<maint::Update> burst = {Ins("r(X) <- X = 1.", &p),
                                      Ins("k(X) <- X = 1.", &p),
                                      Del("r(X) <- X = 1.", &p)};
  View seq = view;
  ASSERT_TRUE(maint::ApplyBatch(p, &view, burst, w.domains.get()).ok());
  ASSERT_TRUE(
      maint::ApplyUpdatesSequential(p, &seq, burst, w.domains.get()).ok());
  // ins k(1) was already covered by the k(1) derived from the freshly
  // inserted r(1), so it adds no external and del r clears everything.
  EXPECT_TRUE(Instances(view, w.domains.get()).empty());
  EXPECT_TRUE(Instances(seq, w.domains.get()).empty());
}

// ---------------------------------------------------------------------------
// Pipeline execution.

TEST(BatchTest, MixedBatchAppliesInRequestOrder) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());

  std::vector<maint::Update> updates;
  updates.push_back(Ins("a(X) <- X = 2.", &p));
  updates.push_back(Del("a(X) <- X = 1.", &p));
  updates.push_back(Ins("a(X) <- X = 3.", &p));

  maint::BatchStats stats;
  ASSERT_TRUE(maint::ApplyBatch(p, &view, updates, w.domains.get(), {},
                                &stats)
                  .ok());
  EXPECT_EQ(Instances(view, w.domains.get()),
            (std::set<std::string>{"a(2)", "a(3)", "b(2)", "b(3)"}));
  EXPECT_EQ(stats.input_updates, 3u);
  EXPECT_EQ(stats.coalesced_away, 0u);
  EXPECT_EQ(stats.deletions_applied, 1u);
  EXPECT_EQ(stats.insertions_applied, 2u);
  // Distinct-kind neighbours stay distinct runs: I | D | I.
  EXPECT_EQ(stats.delete_passes, 1u);
  EXPECT_EQ(stats.insert_passes, 2u);
  EXPECT_GT(stats.insertion_pass_atoms, 0u);
}

TEST(BatchTest, OrderMatters) {
  // delete x then insert x  !=  insert x then delete x.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1.");

  View v1 = MaterializeOrDie(p, w.domains.get());
  ASSERT_TRUE(maint::ApplyBatch(p, &v1,
                                {Del("a(X) <- X = 1.", &p),
                                 Ins("a(X) <- X = 1.", &p)},
                                w.domains.get())
                  .ok());
  EXPECT_EQ(Instances(v1, w.domains.get()),
            (std::set<std::string>{"a(1)"}));

  View v2 = MaterializeOrDie(p, w.domains.get());
  ASSERT_TRUE(maint::ApplyBatch(p, &v2,
                                {Ins("a(X) <- X = 1.", &p),
                                 Del("a(X) <- X = 1.", &p)},
                                w.domains.get())
                  .ok());
  EXPECT_TRUE(Instances(v2, w.domains.get()).empty());
}

TEST(BatchTest, BatchMatchesSequentialSingles) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(4, 6);
  View batch_view = MaterializeOrDie(p, w.domains.get());
  View seq_view = batch_view;

  std::vector<maint::Update> updates;
  for (int k = 0; k < 3; ++k) {
    updates.push_back(Del("p0(X) <- X = " + std::to_string(k) + ".", &p));
  }
  maint::BatchStats batch_stats;
  ASSERT_TRUE(maint::ApplyBatch(p, &batch_view, updates, w.domains.get(), {},
                                &batch_stats)
                  .ok());
  ASSERT_TRUE(maint::ApplyUpdatesSequential(p, &seq_view, updates,
                                            w.domains.get())
                  .ok());
  EXPECT_EQ(Instances(batch_view, w.domains.get()),
            Instances(seq_view, w.domains.get()));
  // The three deletions collapsed into ONE propagation pass.
  EXPECT_EQ(batch_stats.delete_passes, 1u);
  EXPECT_EQ(batch_stats.deletions_applied, 3u);
}

TEST(BatchTest, PerPhaseCountersOnChain) {
  // MakeChain(depth, width): deleting one fact replaces one atom per level
  // — one step-2 subtraction plus `depth` step-3 propagations — and the
  // re-insert of a fresh fact adds depth+1 atoms in one continuation.
  const int depth = 5;
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(depth, 4);
  View view = MaterializeOrDie(p, w.domains.get());

  std::vector<maint::Update> updates = {
      Del("p0(X) <- X = 0.", &p),
      Del("p0(X) <- X = 0.", &p),  // duplicate: coalesced away
      Ins("p0(X) <- X = 99.", &p),
      Ins("p0(X) <- X = 99.", &p),  // duplicate: coalesced away
  };
  maint::BatchStats stats;
  ASSERT_TRUE(maint::ApplyBatch(p, &view, updates, w.domains.get(), {},
                                &stats)
                  .ok());

  EXPECT_EQ(stats.input_updates, 4u);
  EXPECT_EQ(stats.coalesced_away, 2u);
  EXPECT_EQ(stats.delete_passes, 1u);
  EXPECT_EQ(stats.insert_passes, 1u);
  EXPECT_EQ(stats.deletions_applied, 1u);
  EXPECT_EQ(stats.insertions_applied, 1u);
  EXPECT_EQ(stats.del_elements, 1u);
  EXPECT_EQ(stats.replacements, static_cast<size_t>(depth + 1));
  EXPECT_EQ(stats.step3_replacements, static_cast<size_t>(depth));
  EXPECT_EQ(stats.removed_unsolvable, static_cast<size_t>(depth + 1));
  EXPECT_EQ(stats.add_atoms, 1u);
  EXPECT_EQ(stats.insertion_pass_atoms, static_cast<size_t>(depth + 1));

  // The sequential baseline reports the same phase totals for this burst
  // (the coalesced-away updates are no-ops there, not errors).
  View seq = MaterializeOrDie(p, w.domains.get());
  maint::BatchStats seq_stats;
  ASSERT_TRUE(maint::ApplyUpdatesSequential(p, &seq, updates, w.domains.get(),
                                            {}, &seq_stats)
                  .ok());
  EXPECT_EQ(Instances(view, w.domains.get()),
            Instances(seq, w.domains.get()));
  EXPECT_EQ(seq_stats.replacements, stats.replacements);
  EXPECT_EQ(seq_stats.insertion_pass_atoms, stats.insertion_pass_atoms);
}

TEST(BatchTest, SequentialReportsEveryPassCounter) {
  // The bench_batch mixed chain burst: K/2 deletions of chain facts, then
  // K/2 inserts of fresh ones. ApplyUpdatesSequential must report, for
  // every counter of the shared pass list and every fast-path screen, the
  // sum of what its single-update passes report when run by hand.
  const int k = 8, width = 40;
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(4, width);
  std::vector<maint::Update> burst;
  for (int i = 0; i < k / 2; ++i) {
    burst.push_back(Del("p0(X) <- X = " + std::to_string(i) + ".", &p));
  }
  for (int i = 0; i < k / 2; ++i) {
    burst.push_back(
        Ins("p0(X) <- X = " + std::to_string(width + i) + ".", &p));
  }
  const View base = MaterializeOrDie(p, w.domains.get());
  // Each side gets a plan cache that outlives its passes: an engine run
  // fetches every rule's plan once, so plans are reused across passes.
  plan::PlanCache seq_plans, hand_plans;
  FixpointOptions opts;
  opts.plan_cache = &seq_plans;

  View seq_view = base;
  int seq_ext = 0;
  maint::BatchStats seq;
  ASSERT_TRUE(maint::ApplyUpdatesSequential(p, &seq_view, burst,
                                            w.domains.get(), opts, &seq,
                                            &seq_ext)
                  .ok());

  opts.plan_cache = &hand_plans;
  View by_hand = base;
  int ext = 0;
  FixpointStats passes;  // the shared pass list, summed over the passes
  SolveStats screens;    // every pass solver's counters, summed
  for (const maint::Update& u : burst) {
    if (u.kind == maint::Update::Kind::kDelete) {
      maint::StDelStats s;
      ASSERT_TRUE(maint::DeleteStDel(p, &by_hand, u.atom, w.domains.get(),
                                     opts.solver, &s)
                      .ok());
      passes.plan_cache_hits += s.plan_cache_hits;  // StDel's one pass row
      screens += s.solver;
    } else {
      maint::InsertStats s;
      ASSERT_TRUE(maint::InsertAtom(p, &by_hand, u.atom, w.domains.get(),
                                    opts, &s, &ext)
                      .ok());
      passes += s.unfold;
      screens += s.solver;
      screens += s.unfold.solver;
    }
  }
  EXPECT_EQ(Instances(seq_view, w.domains.get()),
            Instances(by_hand, w.domains.get()));
#define MMV_EXPECT_SUMMED(type, name, cls, doc) \
  EXPECT_EQ(seq.name, passes.name) << #name;
  MMV_PASS_COUNTERS(MMV_EXPECT_SUMMED)
#undef MMV_EXPECT_SUMMED
#define MMV_EXPECT_SUMMED(type, name, cls, doc) \
  EXPECT_EQ(seq.name, screens.name) << #name;
  MMV_SAT_COUNTERS(MMV_EXPECT_SUMMED)
#undef MMV_EXPECT_SUMMED
  // Not vacuous: the passes do reuse compiled plans.
  EXPECT_GT(passes.plan_cache_hits, 0);
}

// ---------------------------------------------------------------------------
// External-support numbering.

// Collects every negative clause number found anywhere in the view's
// support trees (external-fact leaves, nested or not).
std::multiset<int> ExternalSupportNumbers(const View& view) {
  std::multiset<int> out;
  std::function<void(const Support&)> walk = [&](const Support& s) {
    if (s.IsExternal()) out.insert(s.clause());
    for (const Support& c : s.children()) walk(c);
  };
  for (const ViewAtom& a : view.atoms()) walk(a.support);
  return out;
}

TEST(BatchTest, ExternalSupportCounterPersists) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  int counter = 0;
  ASSERT_TRUE(maint::ApplyBatch(p, &view, {Ins("a(X) <- X = 1.", &p)},
                                w.domains.get(), {}, nullptr, &counter)
                  .ok());
  ASSERT_TRUE(maint::ApplyBatch(p, &view, {Ins("a(X) <- X = 2.", &p)},
                                w.domains.get(), {}, nullptr, &counter)
                  .ok());
  // All external supports distinct.
  std::set<std::string> supports;
  for (const ViewAtom& a : view.atoms()) {
    if (a.pred == "a") supports.insert(a.support.ToString());
  }
  EXPECT_EQ(supports.size(), 2u);
}

TEST(BatchTest, ExtCounterMonotoneAndCollisionFreeAcrossBatches) {
  // Regression: consecutive batches on the same duplicate-semantics view
  // must keep handing out strictly decreasing external numbers, and no two
  // external leaves anywhere in the support forest may collide.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("b(X) <- a(X). c(X) <- b(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  int counter = 0;
  int previous = 0;
  for (int batch = 0; batch < 4; ++batch) {
    std::vector<maint::Update> burst = {
        Ins("a(X) <- X = " + std::to_string(10 * batch) + ".", &p),
        Ins("a(X) <- X = " + std::to_string(10 * batch + 1) + ".", &p),
    };
    ASSERT_TRUE(maint::ApplyBatch(p, &view, burst, w.domains.get(), {},
                                  nullptr, &counter)
                    .ok());
    EXPECT_LT(counter, previous) << "counter must strictly decrease";
    previous = counter;
  }
  // Each insert produced one external leaf, copied into the supports of
  // its b/c consequences; the distinct external NUMBERS must be exactly 8.
  std::multiset<int> numbers = ExternalSupportNumbers(view);
  std::set<int> distinct(numbers.begin(), numbers.end());
  EXPECT_EQ(distinct.size(), 8u);
  // And the a-atoms themselves never share a number.
  std::multiset<int> roots;
  for (const ViewAtom& a : view.atoms()) {
    if (a.pred == "a") roots.insert(a.support.clause());
  }
  EXPECT_EQ(roots.size(), std::set<int>(roots.begin(), roots.end()).size());
}

TEST(BatchTest, FreshCounterSeedsBelowNestedExternals) {
  // Regression for the counter-seeding scan: an external leaf may survive
  // only NESTED inside a derived support (its own atom re-keyed or gone).
  // Seeding from root clause numbers alone would re-issue -5 here.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("b(X) <- a(X).");
  View view;
  {
    ViewAtom derived;
    derived.pred = "b";
    VarId x = p.factory()->Fresh();
    derived.args = {Term::Var(x)};
    derived.constraint.Add(
        Primitive::Eq(Term::Var(x), Term::Const(Value(int64_t{7}))));
    derived.support = Support(1, {Support(-5)});
    view.Add(std::move(derived));
  }
  ASSERT_TRUE(maint::ApplyBatch(p, &view, {Ins("a(X) <- X = 1.", &p)},
                                w.domains.get())
                  .ok());
  for (const ViewAtom& a : view.atoms()) {
    if (a.pred == "a") {
      EXPECT_LT(a.support.clause(), -5);
    }
  }
}

// Regression: an insertion continuation cut short by max_atoms used to be
// swallowed — ApplyBatch returned OK, committed the burst to the log and
// published an epoch holding a fraction of the closure. The truncation
// must fail the batch before the commit point instead.
TEST(BatchTest, TruncatedInsertionFailsBeforeCommitAndPublication) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    e(X, Y) <- X = 0 & Y = 1.
    e(X, Y) <- X = 1 & Y = 2.
    tc(X, Y) <- true || e(X, Y).
    tc(X, Z) <- true || tc(X, Y), e(Y, Z).
  )");
  View live = MaterializeOrDie(p, w.domains.get());
  ASSERT_EQ(live.size(), 5u);  // 2 edges + their 3-pair closure

  SnapshotStore store;
  store.Publish(live);  // epoch 1
  durability::MemFs fs;
  std::unique_ptr<durability::DurableLog> log = Unwrap(
      durability::DurableLog::Create(&fs, "state", p, live, store.epoch(),
                                     /*ext_counter=*/0));
  const int64_t records_before = log->wal_records();
  const uint64_t wal_bytes_before = log->wal_end_offset();

  // A 6-edge chain extending 2 -> 8: the full closure has 44 atoms, far
  // over the 7-atom budget.
  std::vector<maint::Update> burst;
  for (int i = 2; i < 8; ++i) {
    burst.push_back(Ins("e(X, Y) <- X = " + std::to_string(i) +
                            " & Y = " + std::to_string(i + 1) + ".",
                        &p));
  }
  FixpointOptions opts;
  opts.max_atoms = 7;
  maint::BatchStats stats;
  Status s = maint::ApplyBatch(p, &live, burst, w.domains.get(), opts,
                               &stats, log->ext_counter(), &store,
                               log.get());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_EQ(stats.epochs_published, 0);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(log->wal_records(), records_before);
  EXPECT_EQ(log->wal_end_offset(), wal_bytes_before);
  EXPECT_EQ(log->epoch(), 1u);

  // The one-at-a-time oracle reports the same truncation.
  View seq = MaterializeOrDie(p, w.domains.get());
  EXPECT_EQ(maint::ApplyUpdatesSequential(p, &seq, burst, w.domains.get(),
                                          opts)
                .code(),
            StatusCode::kResourceExhausted);

  // With room for the closure the same burst applies and publishes.
  View roomy = MaterializeOrDie(p, w.domains.get());
  ASSERT_TRUE(
      maint::ApplyBatch(p, &roomy, burst, w.domains.get(), {}, &stats).ok());
  EXPECT_EQ(roomy.size(), 44u);
}

// ---------------------------------------------------------------------------
// Duplicate-freeness (Algorithm 1 applicability).

TEST(DuplicateFreeTest, ChainsAreDuplicateFree) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(3, 4);
  View view = MaterializeOrDie(p, w.domains.get());
  EXPECT_TRUE(Unwrap(maint::IsDuplicateFree(view, w.domains.get())));
}

TEST(DuplicateFreeTest, DiamondsAreNot) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeDiamond(1, 2);
  View view = MaterializeOrDie(p, w.domains.get());
  // Every m atom has two derivations denoting the same instance.
  EXPECT_FALSE(Unwrap(maint::IsDuplicateFree(view, w.domains.get())));
}

TEST(DuplicateFreeTest, OverlappingIntervalsAreNot) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 5)).
    a(X) <- in(X, arith:between(4, 9)).
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  EXPECT_FALSE(Unwrap(maint::IsDuplicateFree(view, w.domains.get())));
}

TEST(DuplicateFreeTest, DisjointIntervalsAre) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 5)).
    a(X) <- in(X, arith:between(6, 9)).
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  EXPECT_TRUE(Unwrap(maint::IsDuplicateFree(view, w.domains.get())));
}

TEST(DuplicateFreeTest, EmptyViewIsDuplicateFree) {
  TestWorld w = TestWorld::Make();
  View empty;
  EXPECT_TRUE(Unwrap(maint::IsDuplicateFree(empty, w.domains.get())));
}

}  // namespace
}  // namespace mmv
