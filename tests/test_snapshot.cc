// The epoch-pinned snapshot read layer (core/snapshot.h): unit tests for
// SnapshotStore publication/pinning, the ApplyBatch publication point, and
// the reader-vs-writer race the layer exists for — a reader thread pinning
// and enumerating snapshots WHILE maintenance bursts apply on the live
// view. The race test runs under the TSan CI job with MMV_THREADS=8, so
// the reader crosses both the batch pipeline and its parallel fan-out.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/snapshot.h"
#include "durability/durable_log.h"
#include "durability/fs.h"
#include "maintenance/batch.h"
#include "parser/view_io.h"
#include "query/query.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::Instances;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

TEST(SnapshotStoreTest, StartsAtEmptyEpochZero) {
  SnapshotStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.epochs_published(), 0);
  SnapshotHandle h = store.Pin();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->epoch, 0u);
  ASSERT_NE(h->image, nullptr);
  EXPECT_TRUE(h->image->empty());
}

TEST(SnapshotStoreTest, PublishBumpsEpochAndIsolatesOlderPins) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1.");
  View live = testutil::MaterializeOrDie(p, w.domains.get());

  SnapshotStore store;
  EXPECT_EQ(store.Publish(live), 1u);
  SnapshotHandle pinned = store.Pin();
  EXPECT_EQ(pinned->epoch, 1u);
  size_t pinned_size = pinned->image->size();

  // Mutate the live view and publish again: the old pin must not move.
  live.RemoveIf([](const ViewAtom&) { return true; });
  EXPECT_EQ(store.Publish(live), 2u);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned->image->size(), pinned_size);
  EXPECT_EQ(store.Pin()->image->size(), 0u);

  // A snapshot is an immutable image: its per-pred segments answer reads
  // on their own, with no reference back to the live view.
  EXPECT_EQ(pinned->image->AtomsFor("a").size(), pinned_size);
}

TEST(SnapshotStoreTest, ApplyBatchPublishesOneEpochPerCleanBurst) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("base(X) <- X = 0. d(X) <- base(X).");
  View live = testutil::MaterializeOrDie(p, w.domains.get());

  SnapshotStore store;
  store.Publish(live);  // epoch 1 = the initial materialization

  std::vector<maint::Update> burst;
  burst.push_back(maint::Update::Insert(ParseUpdate("base(X) <- X = 1.", &p)));
  burst.push_back(maint::Update::Insert(ParseUpdate("base(X) <- X = 2.", &p)));
  maint::BatchStats stats;
  ASSERT_TRUE(maint::ApplyBatch(p, &live, burst, w.domains.get(), {}, &stats,
                                nullptr, &store)
                  .ok());
  EXPECT_EQ(stats.epochs_published, 1);  // one epoch per batch, not per pass
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(Instances(store.Pin(), w.domains.get()),
            Instances(live, w.domains.get()));

  // Without a store attached nothing is published.
  maint::BatchStats stats2;
  ASSERT_TRUE(maint::ApplyBatch(p, &live, burst, w.domains.get(), {}, &stats2)
                  .ok());
  EXPECT_EQ(stats2.epochs_published, 0);
  EXPECT_EQ(store.epoch(), 2u);
}

TEST(SnapshotStoreTest, FailedBatchPublishesNothing) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("base(X) <- X = 0. d(X) <- base(X).");
  View live = testutil::MaterializeOrDie(p, w.domains.get());
  SnapshotStore store;
  store.Publish(live);  // epoch 1

  // A constraint over an unregistered domain makes the insertion
  // continuation's solvability check fail, so the batch errors out after
  // the view was already touched — readers must keep the pre-batch epoch.
  std::vector<maint::Update> burst;
  burst.push_back(
      maint::Update::Insert(ParseUpdate("base(X) <- in(X, nosuch:f(1)).", &p)));
  maint::BatchStats stats;
  Status s = maint::ApplyBatch(p, &live, burst, w.domains.get(), {}, &stats,
                               nullptr, &store);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(stats.epochs_published, 0);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.Pin()->epoch, 1u);
}

TEST(SnapshotQueryTest, SnapshotHandleOverloadsMatchLiveReads) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    e(X, Y) <- X = 1 & Y = 2.
    e(X, Y) <- X = 1 & Y = 3.
  )");
  View live = testutil::MaterializeOrDie(p, w.domains.get());
  SnapshotStore store;
  store.Publish(live);
  SnapshotHandle h = store.Pin();

  query::InstanceSet via_handle =
      Unwrap(query::EnumerateView(h, w.domains.get()));
  query::InstanceSet via_view =
      Unwrap(query::EnumerateView(live, w.domains.get()));
  EXPECT_EQ(via_handle, via_view);

  query::InstanceSet q = Unwrap(query::QueryPred(
      h, "e", {Term::Const(Value(1)), Term::Var(0)}, w.domains.get()));
  EXPECT_EQ(q.instances.size(), 2u);
  EXPECT_TRUE(Unwrap(query::Ask(h, "e", {Value(1), Value(2)},
                                w.domains.get())));
  EXPECT_FALSE(Unwrap(query::Ask(h, "e", {Value(9), Value(9)},
                                 w.domains.get())));
}

// The image serialization the checkpoint writer uses must be byte-for-byte
// the view serialization — both on a fresh extraction and on the
// incremental share-most-segments path a batch leaves behind.
TEST(SnapshotImageTest, SerializeImageMatchesSerializeViewByteForByte) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeMultiChain(/*chains=*/3, /*depth=*/3,
                                       /*width=*/8);
  View live = testutil::MaterializeOrDie(p, w.domains.get());
  EXPECT_EQ(parser::SerializeImage(*live.ExtractImage()),
            parser::SerializeView(live));

  std::vector<maint::Update> burst;
  burst.push_back(maint::Update::Delete(ParseUpdate("c0_p0(X) <- X = 0.", &p)));
  burst.push_back(maint::Update::Insert(ParseUpdate("c1_p0(X) <- X = 99.", &p)));
  ASSERT_TRUE(
      maint::ApplyBatch(p, &live, burst, w.domains.get(), {}, nullptr).ok());
  EXPECT_EQ(parser::SerializeImage(*live.ExtractImage()),
            parser::SerializeView(live));
}

// The structural-sharing contract, witnessed by pointer identity: a slow
// reader pins epoch E while later batches touch only chain 0 and the
// durable log checkpoints + garbage-collects underneath. Every read at E
// stays byte-identical, and the segments of the UNTOUCHED chains are the
// very same objects in every later epoch's image — publication copied
// only the delta.
// View copies share copy-on-write image state instead of duplicating the
// dirty bookkeeping: copying a DIRTY view first refreshes the source's
// image cache, and both sides then extract the SAME shared segments —
// pointer identity, not content equality. (The regression this pins: an
// implicitly copied dirty set made source and copy re-materialize the same
// dirty segments independently, forking every downstream consumer.)
TEST(SnapshotSharing, CopiedViewSharesImageStateWithSource) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeMultiChain(/*chains=*/2, /*depth=*/2,
                                       /*width=*/4);
  View source = testutil::MaterializeOrDie(p, w.domains.get());
  source.ExtractImage();  // warm the cache

  // Dirty one predicate, then copy while the dirty set is non-empty.
  size_t idx = source.AtomsFor("c0_p0").front();
  source.MutableAtom(idx);  // conservatively dirties c0_p0

  View copy = source;
  SnapshotImageHandle from_source = source.ExtractImage();
  SnapshotImageHandle from_copy = copy.ExtractImage();
  ASSERT_EQ(from_source->segments.size(), from_copy->segments.size());
  for (const auto& [pred, seg] : from_source->segments) {
    // Same shared_ptr: the copy re-derived nothing, clean or dirty.
    EXPECT_EQ(seg, from_copy->SegmentFor(pred))
        << "copied view forked segment " << pred.name();
  }
  EXPECT_EQ(parser::SerializeImage(*from_source),
            parser::SerializeImage(*from_copy));

  // Copy ASSIGNMENT shares the same way.
  View assigned;
  assigned = source;
  SnapshotImageHandle from_assigned = assigned.ExtractImage();
  for (const auto& [pred, seg] : from_source->segments) {
    EXPECT_EQ(seg, from_assigned->SegmentFor(pred));
  }

  // Independence after the copy: mutating the source re-materializes only
  // ITS segment; the copy keeps sharing the rest and never sees the edit.
  source.MutableAtom(idx);
  SnapshotImageHandle source_after = source.ExtractImage();
  SnapshotImageHandle copy_after = copy.ExtractImage();
  EXPECT_EQ(copy_after->SegmentFor("c0_p0"), from_copy->SegmentFor("c0_p0"));
  for (const auto& [pred, seg] : copy_after->segments) {
    if (!(pred == Symbol("c0_p0"))) {
      EXPECT_EQ(seg, source_after->SegmentFor(pred));
    }
  }
}

TEST(SnapshotSharing, SlowReaderSharesUntouchedSegmentsAcrossEpochs) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeMultiChain(/*chains=*/3, /*depth=*/3,
                                       /*width=*/8);
  View live = testutil::MaterializeOrDie(p, w.domains.get());

  SnapshotStore store;
  store.Publish(live);  // epoch 1
  durability::MemFs fs;
  durability::DurabilityOptions opts;
  opts.checkpoint_every_records = 1;  // checkpoint + GC every burst
  opts.keep_checkpoints = 2;
  std::unique_ptr<durability::DurableLog> log =
      Unwrap(durability::DurableLog::Create(&fs, "state", p, live,
                                            store.epoch(), 0, opts));

  SnapshotHandle slow = store.Pin();
  ASSERT_EQ(slow->epoch, 1u);
  const std::string frozen = parser::SerializeImage(*slow->image);

  // Predicates the bursts never touch: every derived level of chains 1-2.
  std::vector<Symbol> untouched;
  for (int c = 1; c <= 2; ++c) {
    for (int l = 0; l < 3; ++l) {
      untouched.push_back(
          Symbol("c" + std::to_string(c) + "_p" + std::to_string(l)));
    }
  }

  SnapshotHandle prev = slow;
  for (int k = 0; k < 6; ++k) {
    std::vector<maint::Update> burst;
    const bool deleting = k % 2 == 0;
    for (int i = 0; i < 4; ++i) {
      maint::UpdateAtom atom =
          ParseUpdate("c0_p0(X) <- X = " + std::to_string(i) + ".", &p);
      burst.push_back(deleting ? maint::Update::Delete(std::move(atom))
                               : maint::Update::Insert(std::move(atom)));
    }
    maint::BatchStats stats;
    ASSERT_TRUE(maint::ApplyBatch(p, &live, burst, w.domains.get(), {},
                                  &stats, log->ext_counter(), &store,
                                  log.get())
                    .ok());
    EXPECT_GT(stats.snapshot_nodes_shared, 0);
    SnapshotHandle now = store.Pin();
    EXPECT_EQ(now->epoch, 2u + k);
    for (Symbol pred : untouched) {
      // Same shared_ptr, not just equal contents: the segment was never
      // copied — the slow reader and the newest epoch read one object.
      EXPECT_EQ(now->image->SegmentFor(pred), slow->image->SegmentFor(pred))
          << "epoch " << now->epoch << " copied untouched segment "
          << pred.name();
      EXPECT_NE(now->image->SegmentFor(pred), nullptr);
    }
    // The touched predicate was rewritten: later epochs must NOT alias
    // the slow reader's segment.
    EXPECT_NE(now->image->SegmentFor("c0_p0"),
              slow->image->SegmentFor("c0_p0"));
    // The slow pin is untouched by publication, checkpointing and GC.
    EXPECT_EQ(parser::SerializeImage(*slow->image), frozen);
    prev = now;
  }
  EXPECT_GT(log->checkpoints_written(), 1);
  EXPECT_EQ(Instances(prev, w.domains.get()), Instances(live, w.domains.get()));
}

// The tentpole differential: a reader thread continuously pins the latest
// epoch and enumerates it while the writer applies a sequence of K-update
// bursts through ApplyBatch (honoring $MMV_THREADS, so the TSan job runs
// the batch's parallel fan-out underneath the reader). Every read the
// reader takes — whatever instant it raced — must be byte-identical to the
// sequential-oracle view of the epoch it pinned, and the final epoch must
// equal ApplyUpdatesSequential's result.
//
// The reader is a plain std::thread rather than a ThreadPool item: the
// engine's ParallelFor batches never nest, so occupying the pool with a
// long-running reader would silently degrade the writer's fan-out to
// inline execution — the exact concurrency this test exists to cross.
TEST(SnapshotConcurrency, ReaderPinsStableEpochsDuringBatches) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeMultiChain(/*chains=*/4, /*depth=*/4,
                                       /*width=*/12);

  FixpointOptions fp;
  {
    Result<int> env_threads = ThreadsFromEnv();
    ASSERT_TRUE(env_threads.ok()) << env_threads.status().ToString();
    fp.num_threads = *env_threads;
  }
  View initial = Unwrap(Materialize(p, w.domains.get(), fp));

  // Bursts: clear chain 0's base facts, re-insert them, then mixed
  // delete+insert — each burst is one published epoch.
  std::vector<std::vector<maint::Update>> bursts;
  {
    std::vector<maint::Update> del, ins, mixed;
    for (int i = 0; i < 12; ++i) {
      del.push_back(maint::Update::Delete(
          ParseUpdate("c0_p0(X) <- X = " + std::to_string(i) + ".", &p)));
      ins.push_back(maint::Update::Insert(
          ParseUpdate("c0_p0(X) <- X = " + std::to_string(i) + ".", &p)));
    }
    for (int i = 0; i < 6; ++i) {
      mixed.push_back(maint::Update::Delete(
          ParseUpdate("c1_p0(X) <- X = " + std::to_string(i) + ".", &p)));
      mixed.push_back(maint::Update::Insert(
          ParseUpdate("c2_p0(X) <- X = " + std::to_string(100 + i) + ".",
                      &p)));
    }
    bursts.push_back(std::move(del));
    bursts.push_back(std::move(ins));
    bursts.push_back(std::move(mixed));
  }

  // Per-epoch oracle: epoch 0 is the empty store, epoch 1 the initial
  // view, epoch 1+k the sequential replay of the first k bursts.
  std::vector<std::set<std::string>> expected;
  expected.push_back({});  // epoch 0
  {
    View oracle = initial;
    int counter = 0;
    expected.push_back(Instances(oracle, w.domains.get()));  // epoch 1
    for (const auto& burst : bursts) {
      ASSERT_TRUE(maint::ApplyUpdatesSequential(p, &oracle, burst,
                                                w.domains.get(), {}, nullptr,
                                                &counter)
                      .ok());
      expected.push_back(Instances(oracle, w.domains.get()));
    }
  }

  SnapshotStore store;
  store.Publish(initial);  // epoch 1

  // The reader shares the evaluator with the writer: the standard domains
  // are ConcurrentCallSafe, so DomainManager is ConcurrentReadSafe — the
  // production serving configuration.
  std::atomic<bool> stop{false};
  std::vector<std::pair<uint64_t, std::set<std::string>>> observed;
  std::atomic<bool> reader_failed{false};
  std::thread reader([&] {
    // do-while: at least one read happens even if the OS schedules this
    // thread only after the writer has finished every burst — the
    // observed-reads assertion below must not depend on the schedule.
    do {
      SnapshotHandle h = store.Pin();
      Result<query::InstanceSet> r =
          query::EnumerateView(h, w.domains.get());
      if (!r.ok()) {
        reader_failed.store(true);
        return;
      }
      std::set<std::string> strings;
      for (const query::Instance& i : r->instances) {
        strings.insert(i.ToString());
      }
      observed.emplace_back(h->epoch, std::move(strings));
    } while (!stop.load(std::memory_order_acquire));
  });

  View live = initial;
  int counter = 0;
  for (const auto& burst : bursts) {
    ASSERT_TRUE(maint::ApplyBatch(p, &live, burst, w.domains.get(), fp,
                                  nullptr, &counter, &store)
                    .ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_FALSE(reader_failed.load());

  // Every read, whenever it raced, saw exactly its pinned epoch's
  // sequential-oracle instances.
  ASSERT_FALSE(observed.empty());
  for (const auto& [epoch, strings] : observed) {
    ASSERT_LT(epoch, expected.size());
    EXPECT_EQ(strings, expected[epoch])
        << "snapshot read at epoch " << epoch
        << " diverged from the sequential oracle";
  }

  // The post-batch epoch equals the sequential-oracle result.
  SnapshotHandle final_pin = store.Pin();
  EXPECT_EQ(final_pin->epoch, 1 + bursts.size());
  EXPECT_EQ(Instances(final_pin, w.domains.get()), expected.back());
  EXPECT_EQ(Instances(live, w.domains.get()), expected.back());
}

}  // namespace
}  // namespace mmv
