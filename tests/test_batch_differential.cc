// Differential oracle for the batch-maintenance pipeline: on randomized
// programs and randomized update bursts, three independent evaluation paths
// must agree at the instance level —
//
//   1. ApplyBatch            (coalescing planner + multi-atom passes)
//   2. ApplyUpdatesSequential (the paper's one-update-at-a-time regime)
//   3. declarative recompute  (fold the burst into program rewrites —
//      RewriteForDeletion / AppendFact — and rematerialize from scratch)
//
// Views are compared by canonicalized instance sets: constrained atoms have
// many syntactic forms (and the pipeline legitimately produces different
// supports and negation blocks than the sequential replay), but the
// denoted instances are the semantics the paper's theorems speak about.
//
// Duplicate-semantics trials run mixed delete/insert bursts; set-semantics
// trials run insertion-only bursts (StDel requires duplicate semantics —
// supports are only unique derivation identities there, Lemma 1).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "constraint/canonical.h"
#include "core/snapshot.h"
#include "maintenance/batch.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::Instances;
using testutil::TestWorld;
using testutil::Unwrap;

// A burst over the generated program's base AND derived predicates. Values
// are drawn from a deliberately tiny pool so canonical-key collisions —
// duplicate inserts, delete+re-insert pairs, re-deletions — are common and
// the planner's coalescing rules are exercised, not just its pass-through.
// Derived-predicate updates matter: an update's observable effect can then
// depend on DERIVED coverage and on support structure, the regime where
// naive coalescing/deferral is unsound (see the regression tests in
// test_batch.cc).
std::vector<maint::Update> RandomBurst(Rng* rng, Program* program,
                                       const workload::RandomProgramOptions& o,
                                       bool deletions_allowed) {
  int size = static_cast<int>(rng->Int(2, 8));
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

struct DifferentialOutcome {
  maint::BatchStats batch_stats;
  std::string trace;  // program + burst, for failure messages
};

// The fold-to-rewrites oracle models operational maintenance EXCEPT when a
// derived predicate's deletion precedes an insert: rewrite (4) guards the
// derived clauses permanently, while StDel only edits the view state — a
// later insertion's seminaive continuation legitimately re-derives the
// deleted instances. Both ApplyBatch and ApplyUpdatesSequential implement
// the operational reading (and must agree on EVERY burst); the declarative
// comparison is asserted only where the two readings coincide.
bool FoldOracleApplies(const Program& program,
                       const std::vector<maint::Update>& burst) {
  bool saw_derived_delete = false;
  for (const maint::Update& u : burst) {
    if (u.kind == maint::Update::Kind::kDelete) {
      for (size_t i : program.ClausesFor(u.atom.pred)) {
        if (!program.clauses()[i].IsFact()) {
          saw_derived_delete = true;
          break;
        }
      }
    } else if (saw_derived_delete) {
      return false;
    }
  }
  return true;
}

// Runs one seeded trial and asserts the three-way agreement.
DifferentialOutcome RunTrial(uint64_t seed, DupSemantics semantics,
                             bool deletions_allowed) {
  TestWorld w = TestWorld::Make();
  Rng rng(seed);
  workload::RandomProgramOptions opts;
  opts.base_preds = 2;
  opts.derived_preds = 3;
  opts.facts_per_pred = 3;
  opts.rules_per_pred = 2;
  opts.const_pool = 5;
  if (deletions_allowed) {
    // Ground facts keep deletion subtraction exactly enumerable, matching
    // the single-update property suite's delete/insert round-trip regime.
    opts.interval_fact_prob = 0;
  }
  Program p = workload::MakeRandomProgram(&rng, opts);
  std::vector<maint::Update> burst =
      RandomBurst(&rng, &p, opts, deletions_allowed);

  FixpointOptions fp;
  fp.semantics = semantics;
  View initial = Unwrap(Materialize(p, w.domains.get(), fp));

  // The BATCH pipeline honors $MMV_THREADS (the TSan CI job exports 8, a
  // typo fails the suite loudly) while the sequential replay and the
  // fold-recompute oracle stay single-threaded — so under MMV_THREADS>1
  // this differential also crosses the thread-count boundary on every
  // random burst.
  FixpointOptions batch_fp = fp;
  {
    Result<int> env_threads = ThreadsFromEnv();
    EXPECT_TRUE(env_threads.ok()) << env_threads.status().ToString();
    if (env_threads.ok()) batch_fp.num_threads = *env_threads;
  }

  DifferentialOutcome out;
  out.trace = "seed " + std::to_string(seed) + "\nprogram:\n" + p.ToString() +
              "burst:\n";
  for (const maint::Update& u : burst) {
    out.trace += (u.kind == maint::Update::Kind::kDelete ? "  del " : "  ins ") +
                 u.atom.ToString(p.names()) + "\n";
  }

  // The batch runs against a SnapshotStore: a reader pinned to the
  // pre-batch epoch must read byte-identically after the batch mutated the
  // live view, and the published post-batch epoch must match the live
  // result — the snapshot layer's consistency contract crossed with every
  // random burst of this suite.
  SnapshotStore snapshots;
  snapshots.Publish(initial);  // epoch 1
  SnapshotHandle pre_pin = snapshots.Pin();
  auto initial_instances = Instances(initial, w.domains.get());

  View batch_view = initial;
  int batch_counter = 0;
  Status s = maint::ApplyBatch(p, &batch_view, burst, w.domains.get(),
                               batch_fp, &out.batch_stats, &batch_counter,
                               &snapshots);
  EXPECT_TRUE(s.ok()) << s.ToString() << "\n" << out.trace;
  EXPECT_EQ(out.batch_stats.epochs_published, 1) << out.trace;
  EXPECT_EQ(pre_pin->epoch, 1u);
  EXPECT_EQ(Instances(pre_pin, w.domains.get()), initial_instances)
      << "pre-batch snapshot changed under maintenance\n"
      << out.trace;

  // The $MMV_SOLVER_FASTPATH sweep: the same batch with the solver fast
  // path off (slow-path oracle, no rejection memo) must produce the
  // byte-identical maintained view — canonical atoms AND support multiset,
  // not just instances — and identical work-product counters. Only the
  // strategy counters may differ; with the screen off they are zero.
  {
    auto canonical_atoms = [](const View& v) {
      std::multiset<std::string> out;
      for (const ViewAtom& a : v.atoms()) {
        out.insert(CanonicalAtomString(a.pred, a.args, a.constraint));
      }
      return out;
    };
    auto supports = [](const View& v) {
      std::multiset<std::string> out;
      for (const ViewAtom& a : v.atoms()) out.insert(a.support.ToString());
      return out;
    };
    FixpointOptions off_fp = batch_fp;
    off_fp.solver.fastpath = false;
    SnapshotStore off_snapshots;
    View off_initial = Unwrap(Materialize(p, w.domains.get(), off_fp));
    off_snapshots.Publish(off_initial);
    View off_view = off_initial;
    maint::BatchStats off_stats;
    int off_counter = 0;
    Status off_s =
        maint::ApplyBatch(p, &off_view, burst, w.domains.get(), off_fp,
                          &off_stats, &off_counter, &off_snapshots);
    EXPECT_TRUE(off_s.ok()) << off_s.ToString() << "\n" << out.trace;
    EXPECT_EQ(canonical_atoms(batch_view), canonical_atoms(off_view))
        << "fastpath on/off diverged\n"
        << out.trace;
    EXPECT_EQ(supports(batch_view), supports(off_view))
        << "fastpath on/off support multisets diverged\n"
        << out.trace;
    EXPECT_EQ(out.batch_stats.input_updates, off_stats.input_updates);
    EXPECT_EQ(out.batch_stats.coalesced_away, off_stats.coalesced_away);
    EXPECT_EQ(out.batch_stats.delete_passes, off_stats.delete_passes);
    EXPECT_EQ(out.batch_stats.insert_passes, off_stats.insert_passes);
    EXPECT_EQ(out.batch_stats.epochs_published, off_stats.epochs_published);
    EXPECT_EQ(off_stats.sat_prechecks, 0) << out.trace;
    EXPECT_EQ(off_stats.sat_rejects, 0) << out.trace;
    // No cross-batch memo is left to hit or flush; these rows stay in
    // BatchStats only for the benchmark report and must read 0.
    for (const maint::BatchStats* st : {&out.batch_stats, &off_stats}) {
      EXPECT_EQ(st->reject_cache_hits, 0) << out.trace;
      EXPECT_EQ(st->solve_epoch_flushes, 0) << out.trace;
      EXPECT_EQ(st->reject_epoch_flushes, 0) << out.trace;
    }
  }

  View seq_view = initial;
  int seq_counter = 0;
  s = maint::ApplyUpdatesSequential(p, &seq_view, burst, w.domains.get(), fp,
                                    nullptr, &seq_counter);
  EXPECT_TRUE(s.ok()) << s.ToString() << "\n" << out.trace;

  auto batch_instances = Instances(batch_view, w.domains.get());
  auto seq_instances = Instances(seq_view, w.domains.get());
  EXPECT_EQ(batch_instances, seq_instances)
      << "pipeline diverged from sequential replay\n"
      << out.trace;
  // The published post-batch epoch equals the sequential-oracle result.
  SnapshotHandle post_pin = snapshots.Pin();
  EXPECT_EQ(post_pin->epoch, 2u);
  EXPECT_EQ(Instances(post_pin, w.domains.get()), seq_instances)
      << "published epoch diverged from the sequential oracle\n"
      << out.trace;
  if (FoldOracleApplies(p, burst)) {
    View oracle = testutil::FoldRecompute(p, burst, w.domains.get(), fp);
    auto oracle_instances = Instances(oracle, w.domains.get());
    EXPECT_EQ(seq_instances, oracle_instances)
        << "sequential replay diverged from declarative recompute\n"
        << out.trace;
  }
  return out;
}

class BatchDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchDifferential, MixedBurstUnderDuplicateSemantics) {
  RunTrial(GetParam(), DupSemantics::kDuplicate, /*deletions_allowed=*/true);
}

TEST_P(BatchDifferential, InsertBurstUnderSetSemantics) {
  RunTrial(GetParam() * 7919 + 13, DupSemantics::kSet,
           /*deletions_allowed=*/false);
}

TEST_P(BatchDifferential, InsertBurstUnderDuplicateSemantics) {
  RunTrial(GetParam() * 104729 + 7, DupSemantics::kDuplicate,
           /*deletions_allowed=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{201}));

TEST(BatchDifferentialAggregate, CoalescerFiresAcrossTheSeedRange) {
  // The randomized bursts above must actually exercise coalescing, not just
  // pass updates through: over a sample of seeds, the planner removes a
  // healthy number of updates.
  size_t coalesced = 0, inputs = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    DifferentialOutcome out =
        RunTrial(seed, DupSemantics::kDuplicate, /*deletions_allowed=*/true);
    coalesced += out.batch_stats.coalesced_away;
    inputs += out.batch_stats.input_updates;
  }
  EXPECT_GT(coalesced, 0u);
  EXPECT_GT(inputs, coalesced);
}

}  // namespace
}  // namespace mmv
