// Unit tests for the parallel fixpoint machinery: the thread-pool
// primitive, pivot-window partitioning, and the fan-out engine's
// determinism on hand-built programs (the broad randomized differential
// sweep lives in test_join_differential.cc).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "constraint/canonical.h"
#include "core/thread_pool.h"
#include "maintenance/batch.h"
#include "plan/partition.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::ParseOrDie;
using testutil::TestWorld;
using testutil::Unwrap;

// ---- thread pool ----------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryItemExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ThreadPool::Global().ParallelFor(hits.size(), 8,
                                   [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadAndEmptyBatchesRunInline) {
  int calls = 0;
  ThreadPool::Global().ParallelFor(0, 8, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ThreadPool::Global().ParallelFor(5, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, NestedParallelForFallsBackInline) {
  std::atomic<int> inner_total{0};
  ThreadPool::Global().ParallelFor(4, 4, [&](size_t) {
    ThreadPool::Global().ParallelFor(3, 4,
                                     [&](size_t) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 12);
}

TEST(ThreadPoolTest, ReentrantSubmissionRunsInnerItemsOnCallingThread) {
  // The degrade-inline contract, pinned precisely: a ParallelFor issued
  // from inside a pool worker must not re-enter the pool's batch state —
  // every inner item runs on the thread that submitted it. Slices and
  // StDel shards rely on this to nest arbitrary library code that may
  // itself call ParallelFor.
  std::atomic<int> mismatches{0};
  ThreadPool::Global().ParallelFor(4, 4, [&](size_t) {
    std::thread::id outer = std::this_thread::get_id();
    ThreadPool::Global().ParallelFor(8, 4, [&](size_t) {
      if (std::this_thread::get_id() != outer) mismatches++;
    });
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- pivot-window partitioning --------------------------------------------

TEST(PartitionTest, RangesAreContiguousDisjointAndComplete) {
  // The shard ranges must cover [0, items) exactly once, in order: a
  // boundary that split or duplicated a pivot bucket entry would break
  // the merge's sequential-append replay.
  for (size_t items : {size_t{0}, size_t{1}, size_t{5}, size_t{63},
                       size_t{64}, size_t{127}, size_t{128}, size_t{129},
                       size_t{300}, size_t{1000}}) {
    for (int parts : {1, 2, 3, 7, 8, 16}) {
      size_t expect_begin = 0;
      for (int s = 0; s < parts; ++s) {
        auto [begin, end] = plan::PartitionRange(items, parts, s);
        EXPECT_EQ(begin, expect_begin)
            << items << " items, " << parts << " parts, shard " << s;
        EXPECT_LE(begin, end);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, items) << items << " items, " << parts
                                     << " parts";
    }
  }
}

TEST(PartitionTest, CountForRespectsFloorAndCap) {
  // Below twice the per-shard floor a window is not worth splitting; above
  // it the count is items/floor capped at the thread budget. The decision
  // depends only on (window size, threads) — never on scheduling — so the
  // schedule shape itself is deterministic.
  EXPECT_EQ(plan::PartitionCountFor(0, 8), 1);
  EXPECT_EQ(plan::PartitionCountFor(2 * plan::kMinPartitionItems - 1, 8), 1);
  EXPECT_EQ(plan::PartitionCountFor(2 * plan::kMinPartitionItems, 8), 2);
  EXPECT_EQ(plan::PartitionCountFor(16 * plan::kMinPartitionItems, 8), 8);
  EXPECT_EQ(plan::PartitionCountFor(16 * plan::kMinPartitionItems, 1), 1);
}

// ---- parallel engine on hand-built programs -------------------------------

std::multiset<std::string> Canon(const View& v) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : v.atoms()) {
    out.insert(CanonicalAtomString(a.pred, a.args, a.constraint));
  }
  return out;
}

std::multiset<std::string> Sups(const View& v) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : v.atoms()) out.insert(a.support.ToString());
  return out;
}

TEST(ParallelFanOutTest, GuardedMultiChainMatchesSequentialByteForByte) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedMultiChain(/*chains=*/4, /*depth=*/4,
                                              /*width=*/5);
  FixpointOptions opts;
  FixpointStats seq;
  View sequential = Unwrap(Materialize(p, w.domains.get(), opts, &seq));
  for (int threads : {2, 3, 8}) {
    opts.num_threads = threads;
    FixpointStats par;
    View parallel = Unwrap(Materialize(p, w.domains.get(), opts, &par));
    EXPECT_EQ(Canon(sequential), Canon(parallel)) << threads << " threads";
    EXPECT_EQ(Sups(sequential), Sups(parallel)) << threads << " threads";
    EXPECT_EQ(seq.atoms_created, par.atoms_created);
    EXPECT_EQ(seq.duplicates_suppressed, par.duplicates_suppressed);
    EXPECT_EQ(seq.derivations_attempted, par.derivations_attempted);
    EXPECT_EQ(seq.iterations, par.iterations);
    // The atom ORDER is part of the parallel merge contract (clause index,
    // then enumeration order — the sequential append order), not just the
    // multiset: assert it positionally via supports.
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(sequential.atoms()[i].support.ToString(),
                parallel.atoms()[i].support.ToString())
          << "position " << i;
    }
    // Run-to-run determinism is STRONGER than sequential equivalence:
    // two parallel runs at the same thread count must agree on the whole
    // rendered view, fresh-variable numbering included (the merge assigns
    // real ids in replay order, never in scheduling order).
    View again = Unwrap(Materialize(p, w.domains.get(), opts));
    EXPECT_EQ(parallel.ToString(), again.ToString()) << threads << " threads";
  }
}

// Transitive closure over \p edges with a DCA guard on the recursive
// clause — in(S, arith:plus(X,Y)) — so every recursive derivation pays a
// real domain evaluation. One recursive predicate means ONE SCC: any
// fan-out comes from sharding the recursive clause's delta window.
Program MakeGuardedTc(const std::vector<std::pair<int, int>>& edges) {
  Program p;
  for (const auto& [from, to] : edges) {
    Clause c;
    c.head_pred = "e";
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(from))));
    c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(to))));
    p.AddClause(std::move(c));
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_pred = "path";
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.body.push_back(BodyAtom{"e", {Term::Var(x), Term::Var(y)}});
    p.AddClause(std::move(c));
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh(),
          z = p.factory()->Fresh(), s = p.factory()->Fresh();
    c.head_pred = "path";
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.body.push_back(BodyAtom{"e", {Term::Var(x), Term::Var(z)}});
    c.body.push_back(BodyAtom{"path", {Term::Var(z), Term::Var(y)}});
    DomainCall call;
    call.domain = "arith";
    call.function = "plus";
    call.args = {Term::Var(x), Term::Var(y)};
    c.constraint.Add(Primitive::In(Term::Var(s), std::move(call)));
    p.AddClause(std::move(c));
  }
  return p;
}

// Byte-identity for both semantics on a single-SCC recursive chain: many
// small rounds where the per-(clause, pivot) slices carry all of the
// parallelism (the windows stay below the partition threshold).
TEST(ParallelFanOutTest, SingleSccGuardedTcMatchesSequentialByteForByte) {
  TestWorld w = TestWorld::Make();
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < 20; ++i) edges.push_back({i, i + 1});
  Program p = MakeGuardedTc(edges);
  for (DupSemantics semantics :
       {DupSemantics::kDuplicate, DupSemantics::kSet}) {
    FixpointOptions opts;
    opts.semantics = semantics;
    FixpointStats seq;
    View sequential = Unwrap(Materialize(p, w.domains.get(), opts, &seq));
    for (int threads : {2, 8}) {
      opts.num_threads = threads;
      FixpointStats par;
      View parallel = Unwrap(Materialize(p, w.domains.get(), opts, &par));
      EXPECT_EQ(Canon(sequential), Canon(parallel)) << threads << " threads";
      EXPECT_EQ(Sups(sequential), Sups(parallel)) << threads << " threads";
      EXPECT_EQ(seq.atoms_created, par.atoms_created);
      EXPECT_EQ(seq.duplicates_suppressed, par.duplicates_suppressed);
      EXPECT_EQ(seq.derivations_attempted, par.derivations_attempted);
      EXPECT_EQ(seq.iterations, par.iterations);
      ASSERT_EQ(sequential.size(), parallel.size());
      for (size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(sequential.atoms()[i].support.ToString(),
                  parallel.atoms()[i].support.ToString())
            << "position " << i;
      }
    }
  }
}

// A single-SCC star whose fact window (300 spokes into the hub) clears the
// partition threshold: at 2 and 8 threads the recursive clause's pivot
// bucket is actually SPLIT into shards — partitions_run proves it ran that
// way — and the guarded derivations hit the shared evaluator from several
// workers at once (the TSan job's quarry). The merged view must still be
// byte-identical to the sequential run, supports and positions included.
TEST(ParallelFanOutTest, ShardedSingleSccStarMatchesSequentialByteForByte) {
  TestWorld w = TestWorld::Make();
  std::vector<std::pair<int, int>> edges;
  for (int j = 2; j <= 301; ++j) edges.push_back({j, 0});
  edges.push_back({0, 1});  // every spoke reaches 1 through the hub
  Program p = MakeGuardedTc(edges);
  FixpointOptions opts;
  FixpointStats seq;
  View sequential = Unwrap(Materialize(p, w.domains.get(), opts, &seq));
  EXPECT_EQ(seq.partitions_run, 0);  // the sequential engine never shards
  for (int threads : {2, 8}) {
    opts.num_threads = threads;
    FixpointStats par;
    View parallel = Unwrap(Materialize(p, w.domains.get(), opts, &par));
    EXPECT_GT(par.partitions_run, 0) << threads << " threads";
    EXPECT_EQ(Canon(sequential), Canon(parallel)) << threads << " threads";
    EXPECT_EQ(Sups(sequential), Sups(parallel)) << threads << " threads";
    EXPECT_EQ(seq.atoms_created, par.atoms_created);
    EXPECT_EQ(seq.duplicates_suppressed, par.duplicates_suppressed);
    EXPECT_EQ(seq.derivations_attempted, par.derivations_attempted);
    EXPECT_EQ(seq.iterations, par.iterations);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(sequential.atoms()[i].support.ToString(),
                parallel.atoms()[i].support.ToString())
          << "position " << i;
    }
    View again = Unwrap(Materialize(p, w.domains.get(), opts));
    EXPECT_EQ(parallel.ToString(), again.ToString()) << threads << " threads";
  }
}

// Regression: the staging budget counts PRE-dedup atoms, so a capped
// parallel pass may stop before derivations the sequential engine (which
// caps on the deduped view size) would still reach. Such runs must report
// truncated=true — silently returning an incomplete view as complete is
// the one way the parallel engine could lie.
TEST(ParallelFanOutTest, StagingBudgetCutoffIsFlaggedTruncated) {
  TestWorld w = TestWorld::Make();
  std::ostringstream os;
  for (int i = 0; i < 10; ++i) os << "a(X) <- X = " << i << ".\n";
  for (int i = 0; i < 3; ++i) os << "t(X) <- X = " << 100 + i << ".\n";
  os << "e(X) <- true || a(X), t(Y).\n";
  Program p = ParseOrDie(os.str());
  FixpointOptions opts;
  opts.semantics = DupSemantics::kSet;
  opts.num_threads = 4;
  // 13 facts + a 12-atom per-slice staging budget. The clause's two pivot
  // slices make the round fan out; the a-pivot slice enumerates 30
  // (a, t) pairs projecting to 10 canonical e atoms, stages 12 raw
  // derivations (4 uniques + 8 canonical duplicates under kSet), caps,
  // and never reaches the rest — while the MERGED view lands at 17 < 25,
  // so only the capped-sink flag can report the cutoff (the view-size
  // cap never fires).
  opts.max_atoms = 25;
  FixpointStats stats;
  View v = Unwrap(Materialize(p, w.domains.get(), opts, &stats));
  EXPECT_TRUE(stats.truncated);
  EXPECT_LT(v.size(), 25u);
}

TEST(ParallelFanOutTest, NaiveJoinModeIgnoresThreadCount) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedChain(3, 4);
  FixpointOptions opts;
  opts.join_mode = JoinMode::kNaive;
  opts.num_threads = 8;  // must silently run the sequential oracle
  FixpointStats stats;
  View v = Unwrap(Materialize(p, w.domains.get(), opts, &stats));
  EXPECT_EQ(stats.index_probes, 0);
  opts.join_mode = JoinMode::kIndexed;
  opts.num_threads = 1;
  View s = Unwrap(Materialize(p, w.domains.get(), opts));
  EXPECT_EQ(Canon(s), Canon(v));
}

// A burst of deletions through ApplyBatch leaves the canonically
// identical view (and identical propagation counters) whatever
// num_threads says. Delete passes run StDel on the engine thread, so
// nothing is sharded at 8 threads either.
TEST(ParallelFanOutTest, ParallelStepThreeMatchesSequential) {
  TestWorld w = TestWorld::Make();
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    Program p = workload::MakeGuardedMultiChain(
        /*chains=*/3, /*depth=*/static_cast<int>(rng.Int(2, 5)),
        /*width=*/static_cast<int>(rng.Int(3, 6)));
    std::vector<maint::Update> burst;
    for (int i = 0; i < 4; ++i) {
      maint::UpdateAtom req;
      req.pred = "c" + std::to_string(rng.Int(0, 2)) + "_p0";
      VarId x = p.factory()->Fresh();
      req.args = {Term::Var(x)};
      req.constraint.Add(Primitive::Eq(
          Term::Var(x), Term::Const(Value(rng.Int(0, 5)))));
      burst.push_back(maint::Update{maint::Update::Kind::kDelete,
                                    std::move(req)});
    }
    auto run = [&](int threads, maint::BatchStats* stats) {
      FixpointOptions opts;
      opts.num_threads = threads;
      View v = Unwrap(Materialize(p, w.domains.get(), opts));
      Status s = maint::ApplyBatch(p, &v, burst, w.domains.get(), opts,
                                   stats);
      EXPECT_TRUE(s.ok()) << s.ToString();
      return v;
    };
    maint::BatchStats seq_stats, par_stats;
    View sequential = run(1, &seq_stats);
    View parallel = run(8, &par_stats);
    EXPECT_EQ(Canon(sequential), Canon(parallel)) << "seed " << seed;
    EXPECT_EQ(Sups(sequential), Sups(parallel)) << "seed " << seed;
    EXPECT_EQ(seq_stats.replacements, par_stats.replacements);
    EXPECT_EQ(seq_stats.step3_replacements, par_stats.step3_replacements);
    EXPECT_EQ(seq_stats.removed_unsolvable, par_stats.removed_unsolvable);
    EXPECT_EQ(par_stats.partitions_run, 0) << "seed " << seed;
    if (::testing::Test::HasFailure()) return;
  }
}

// A stateful evaluator that does not vouch for concurrent reads: a plain,
// unsynchronized call counter in front of the real domains. Parallel
// passes call evaluators unserialized, so this one must keep every pass
// on the engine thread whatever num_threads says (a racing increment
// would also be TSan's to report).
class CountingEvaluator : public DcaEvaluator {
 public:
  explicit CountingEvaluator(DcaEvaluator* inner) : inner_(inner) {}

  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override {
    ++calls_;
    return inner_->Evaluate(domain, function, args);
  }
  int64_t StateEpoch() const override { return inner_->StateEpoch(); }

  int64_t calls() const { return calls_; }

 private:
  DcaEvaluator* inner_;
  int64_t calls_ = 0;
};

// Fan-out requires a read-safe evaluator. With one that is not, the
// star's sharded fixpoint rounds and its insertion continuation run on
// one thread at num_threads = 8 (as does the hub-edge deletion, whose
// StDel pass always does): nothing is partitioned, no worker touches the
// evaluator, and atoms, supports, work-product counters — and the
// evaluator's own call count — equal the 1-thread run.
TEST(ParallelFanOutTest, NonReadSafeEvaluatorRunsOnOneThread) {
  TestWorld w = TestWorld::Make();
  std::vector<std::pair<int, int>> edges;
  for (int j = 2; j <= 301; ++j) edges.push_back({j, 0});
  edges.push_back({0, 1});
  Program p = MakeGuardedTc(edges);
  auto edge = [&p](int from, int to) {
    maint::UpdateAtom req;
    req.pred = "e";
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    req.args = {Term::Var(x), Term::Var(y)};
    req.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(from))));
    req.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(to))));
    return req;
  };
  const std::vector<maint::UpdateAtom> inserts = {edge(1, 400)};
  const std::vector<maint::Update> deletes = {
      maint::Update::Delete(edge(0, 1))};

  struct Run {
    View view;
    FixpointStats materialize;
    maint::InsertStats insert;
    maint::BatchStats batch;
    int64_t calls = 0;
  };
  auto run = [&](int threads) {
    CountingEvaluator eval(w.domains.get());
    EXPECT_FALSE(eval.ConcurrentReadSafe());
    FixpointOptions opts;
    opts.num_threads = threads;
    Run r;
    r.view = Unwrap(Materialize(p, &eval, opts, &r.materialize));
    int ext = 0;
    Status s = maint::InsertBatch(p, &r.view, inserts, &eval, opts,
                                  &r.insert, &ext);
    EXPECT_TRUE(s.ok()) << s.ToString();
    s = maint::ApplyBatch(p, &r.view, deletes, &eval, opts, &r.batch, &ext);
    EXPECT_TRUE(s.ok()) << s.ToString();
    r.calls = eval.calls();
    return r;
  };
  Run seq = run(1);
  Run par = run(8);

  EXPECT_EQ(Canon(seq.view), Canon(par.view));
  EXPECT_EQ(Sups(seq.view), Sups(par.view));
  EXPECT_EQ(seq.materialize.atoms_created, par.materialize.atoms_created);
  EXPECT_EQ(seq.materialize.duplicates_suppressed,
            par.materialize.duplicates_suppressed);
  EXPECT_EQ(seq.materialize.derivations_attempted,
            par.materialize.derivations_attempted);
  EXPECT_EQ(seq.materialize.index_probes, par.materialize.index_probes);
  EXPECT_EQ(seq.materialize.iterations, par.materialize.iterations);
  EXPECT_EQ(seq.insert.add_atoms, par.insert.add_atoms);
  EXPECT_EQ(seq.insert.atoms_added, par.insert.atoms_added);
  EXPECT_EQ(seq.insert.unfold.derivations_attempted,
            par.insert.unfold.derivations_attempted);
  EXPECT_EQ(seq.insert.unfold.index_probes, par.insert.unfold.index_probes);
  EXPECT_EQ(seq.batch.del_elements, par.batch.del_elements);
  EXPECT_EQ(seq.batch.replacements, par.batch.replacements);
  EXPECT_EQ(seq.batch.step3_replacements, par.batch.step3_replacements);
  EXPECT_EQ(seq.batch.removed_unsolvable, par.batch.removed_unsolvable);
  EXPECT_GT(seq.batch.step3_replacements, 1u);  // a real parent sweep
  EXPECT_EQ(seq.calls, par.calls);

  // Nothing fanned out: no shards, no worker-side evaluator use.
  EXPECT_EQ(par.materialize.partitions_run, 0);
  EXPECT_EQ(par.materialize.evaluator_clones, 0);
  EXPECT_EQ(par.insert.unfold.partitions_run, 0);
  EXPECT_EQ(par.insert.unfold.evaluator_clones, 0);
  EXPECT_EQ(par.batch.partitions_run, 0);
  EXPECT_EQ(par.batch.evaluator_clones, 0);
}

// ---- option plumbing ------------------------------------------------------

TEST(ParallelFanOutTest, ParseThreadsFailsLoudly) {
  EXPECT_EQ(*ParseThreads("1"), 1);
  EXPECT_EQ(*ParseThreads("8"), 8);
  EXPECT_EQ(*ParseThreads("4096"), 4096);
  for (const char* bad : {"", "0", "-1", "two", "8x", "99999", "1.5", "+8",
                          "99999999999999999999"}) {
    Result<int> r = ParseThreads(bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().message().find("unknown thread count"),
              std::string::npos);
  }
}

TEST(ParallelFanOutTest, ThreadsFromEnvDefaultsToSequential) {
  if (std::getenv("MMV_THREADS") == nullptr) {
    EXPECT_EQ(*ThreadsFromEnv(), 1);
  } else {
    EXPECT_TRUE(ThreadsFromEnv().ok());  // CI exports a valid count
  }
}

}  // namespace
}  // namespace mmv
