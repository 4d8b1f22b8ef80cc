// Crash-recovery differential under fault injection: the durability
// layer's end-to-end contract is that a process killed at an ARBITRARY
// point of its write stream recovers to exactly the state the committed
// prefix of bursts produced — canonical atoms, support multisets, external
// counters and snapshot epoch all byte-identical to an uninterrupted run.
//
// The oracle: a golden run over the same randomized program and bursts
// records the canonical state at EVERY epoch prefix (and the
// total mutating-write count W of the workload). A fault run then replays
// the workload on a FaultFs that crashes after a chosen write in
// [create_writes, W] — optionally tearing the crashing write so only a
// prefix of its bytes persists — and recovery runs against the underlying
// MemFs, exactly like a restarted process against the disk image. If
// `ok` bursts applied cleanly before the crash, the recovered epoch R must
// be 1 + ok (the failed burst left no committed record) or 1 + ok + 1 (the
// crash hit the checkpoint AFTER the record committed), and the recovered
// state must equal the golden state at R. Applying the remaining
// bursts on the recovered timeline must then land on the golden FINAL
// state — crash, recover, continue is indistinguishable from never
// crashing.
//
// On top of the randomized matrix (both duplicate and set semantics):
// a deterministic sweep over EVERY crash point of one workload (torn and
// untorn), and bit-flip trials — interior WAL record, final WAL record,
// newest checkpoint — asserting corruption is either rejected loudly or
// (where it mimics a legal torn tail) recovers a valid golden prefix,
// never silent garbage.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/snapshot.h"
#include "durability/checkpoint.h"
#include "durability/durable_log.h"
#include "durability/fs.h"
#include "durability/wal.h"
#include "maintenance/batch.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using durability::DurabilityOptions;
using durability::DurableLog;
using durability::FaultFs;
using durability::FaultPlan;
using durability::Fs;
using durability::MemFs;
using durability::RecoveryInfo;
using testutil::CanonicalState;
using testutil::TestWorld;
using testutil::Unwrap;

// Aggregate regime counters across the whole suite: the final test asserts
// every interesting fault regime actually occurred (a matrix that only
// ever exercises clean runs proves nothing).
int64_t g_clean_runs = 0;        // crash point beyond the workload
int64_t g_crashed_runs = 0;      // a burst failed mid-workload
int64_t g_torn_tails = 0;        // recovery truncated a torn WAL tail
int64_t g_checkpoint_crashes = 0;  // R == 1 + ok + 1 (crash after commit)
int64_t g_fallbacks = 0;         // recovery skipped an invalid checkpoint
int64_t g_delta_composes = 0;    // recovery composed a full+delta chain

// One randomized workload: program, its initial materialization and a
// sequence of update bursts (same burst-shape idiom as the batch
// differential suite — tiny constant pool, base AND derived predicates).
struct Scenario {
  TestWorld world = TestWorld::Make();
  Program program;
  FixpointOptions fp;
  std::vector<std::vector<maint::Update>> bursts;
  View initial;
};

std::vector<maint::Update> RandomBurst(Rng* rng, Program* program,
                                       const workload::RandomProgramOptions& o,
                                       bool deletions_allowed) {
  int size = static_cast<int>(rng->Int(1, 5));
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

Scenario MakeScenario(uint64_t seed, DupSemantics semantics,
                      bool deletions_allowed) {
  Scenario sc;
  Rng rng(seed);
  workload::RandomProgramOptions opts;
  opts.base_preds = 2;
  opts.derived_preds = 3;
  opts.facts_per_pred = 3;
  opts.rules_per_pred = 2;
  opts.const_pool = 5;
  if (deletions_allowed) opts.interval_fact_prob = 0;
  sc.program = workload::MakeRandomProgram(&rng, opts);
  sc.fp.semantics = semantics;
  int bursts = static_cast<int>(rng.Int(3, 6));
  for (int i = 0; i < bursts; ++i) {
    sc.bursts.push_back(
        RandomBurst(&rng, &sc.program, opts, deletions_allowed));
  }
  sc.initial = Unwrap(Materialize(sc.program, sc.world.domains.get(), sc.fp));
  return sc;
}

// Golden canonical states, indexed by epoch: state[1] is the initial
// materialization, state[1 + k] the state after the k-th burst.
struct Golden {
  std::vector<std::multiset<std::string>> state;
  std::vector<int> ext;
  int64_t writes_after_create = 0;
  int64_t total_writes = 0;
};

// Runs the whole workload with durability on \p fs (no faults expected)
// and records the per-epoch canonical states.
Golden BuildState(Scenario* sc, Fs* fs, const DurabilityOptions& opts,
                  FaultFs* counter = nullptr) {
  Golden g;
  SnapshotStore store;
  store.Publish(sc->initial);  // epoch 1
  std::unique_ptr<DurableLog> log = Unwrap(DurableLog::Create(
      fs, "state", sc->program, sc->initial, /*initial_epoch=*/1,
      /*ext_counter=*/0, opts));
  if (counter != nullptr) g.writes_after_create = counter->writes_done();
  g.state.resize(sc->bursts.size() + 2);
  g.ext.resize(sc->bursts.size() + 2);
  g.state[1] = CanonicalState(sc->initial);
  g.ext[1] = 0;
  View view = sc->initial;
  for (size_t k = 0; k < sc->bursts.size(); ++k) {
    Status s = maint::ApplyBatch(sc->program, &view, sc->bursts[k],
                                 sc->world.domains.get(), sc->fp, nullptr,
                                 log->ext_counter(), &store, log.get());
    EXPECT_TRUE(s.ok()) << "golden burst " << k << ": " << s.ToString();
    g.state[2 + k] = CanonicalState(view);
    g.ext[2 + k] = *log->ext_counter();
  }
  if (counter != nullptr) g.total_writes = counter->writes_done();
  return g;
}

Golden RunGolden(Scenario* sc, const DurabilityOptions& opts) {
  MemFs mem;
  FaultFs fs(&mem, FaultPlan{});  // crash_after_writes = -1: dry run
  return BuildState(sc, &fs, opts, &fs);
}

// One crash trial: run the workload under the fault plan, recover from
// the surviving disk image, check the recovered epoch and state
// against the golden prefixes, then finish the workload on the recovered
// timeline and check it reaches the golden FINAL state.
void RunCrashTrial(Scenario* sc, const Golden& g,
                   const DurabilityOptions& opts, int64_t crash_after,
                   bool tear, uint64_t tear_keep_bytes) {
  SCOPED_TRACE("crash_after=" + std::to_string(crash_after) +
               (tear ? " torn(keep=" + std::to_string(tear_keep_bytes) + ")"
                     : " untorn"));
  MemFs mem;
  FaultPlan plan;
  plan.crash_after_writes = crash_after;
  plan.tear_crashing_write = tear;
  plan.tear_keep_bytes = tear_keep_bytes;
  FaultFs fs(&mem, plan);

  SnapshotStore store;
  store.Publish(sc->initial);
  std::unique_ptr<DurableLog> log = Unwrap(DurableLog::Create(
      &fs, "state", sc->program, sc->initial, 1, 0, opts));

  View view = sc->initial;
  size_t committed_ok = 0;
  bool failed = false;
  for (const std::vector<maint::Update>& burst : sc->bursts) {
    Status s = maint::ApplyBatch(sc->program, &view, burst,
                                 sc->world.domains.get(), sc->fp, nullptr,
                                 log->ext_counter(), &store, log.get());
    if (!s.ok()) {
      failed = true;
      break;
    }
    ++committed_ok;
  }
  if (failed) {
    EXPECT_TRUE(fs.crashed()) << "a burst failed without a simulated crash";
    ++g_crashed_runs;
  } else {
    ++g_clean_runs;
  }

  // The restarted process: recovery runs against the underlying MemFs.
  SnapshotStore rec_store;
  RecoveryInfo info;
  std::unique_ptr<DurableLog> rec = Unwrap(DurableLog::Recover(
      &mem, "state", &sc->program, sc->world.domains.get(), sc->fp,
      &rec_store, &info, opts));
  const uint64_t r = info.recovered_epoch;
  ASSERT_GE(r, 1 + committed_ok) << "a committed burst was lost";
  ASSERT_LE(r, 1 + committed_ok + (failed ? 1 : 0))
      << "recovery invented a burst that never committed";
  if (failed && r == 2 + committed_ok) ++g_checkpoint_crashes;
  if (info.torn_tail_bytes > 0) ++g_torn_tails;
  if (info.checkpoints_skipped > 0) ++g_fallbacks;
  if (info.delta_checkpoints_composed > 0) ++g_delta_composes;

  View recovered = rec->TakeRecoveredView();
  EXPECT_EQ(CanonicalState(recovered), g.state[r])
      << "recovered state diverged from the golden prefix at epoch " << r;
  EXPECT_EQ(*rec->ext_counter(), g.ext[r]);
  EXPECT_EQ(rec_store.epoch(), r);
  EXPECT_EQ(rec->epoch(), r);

  // Crash, recover, continue == never crashed: the remaining bursts land
  // on the golden final state, epochs included.
  for (size_t k = r - 1; k < sc->bursts.size(); ++k) {
    Status s = maint::ApplyBatch(sc->program, &recovered, sc->bursts[k],
                                 sc->world.domains.get(), sc->fp, nullptr,
                                 rec->ext_counter(), &rec_store, rec.get());
    ASSERT_TRUE(s.ok()) << "post-recovery burst " << k << ": " << s.ToString();
  }
  const size_t final_epoch = sc->bursts.size() + 1;
  EXPECT_EQ(CanonicalState(recovered), g.state[final_epoch])
      << "recovered timeline diverged from the uninterrupted run";
  EXPECT_EQ(*rec->ext_counter(), g.ext[final_epoch]);
  EXPECT_EQ(rec_store.epoch(), final_epoch);
}

void RunRandomTrial(uint64_t seed, DupSemantics semantics,
                    bool deletions_allowed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Scenario sc = MakeScenario(seed, semantics, deletions_allowed);
  Rng rng(seed * 0x9E3779B9u + 71);  // fault-parameter stream
  DurabilityOptions opts;
  opts.checkpoint_every_records = static_cast<uint64_t>(rng.Int(0, 3));
  // 1 = every checkpoint full (the pre-delta regime); up to 4 stacks
  // three delta frames on each full image, so crash points land inside
  // mixed full+delta chains too.
  opts.full_checkpoint_interval = static_cast<uint64_t>(rng.Int(1, 4));
  Golden g = RunGolden(&sc, opts);
  // Crash anywhere from "right after Create" to "never" (crash point ==
  // total_writes means the workload finishes untouched).
  int64_t crash_after =
      rng.Int(g.writes_after_create, g.total_writes);
  bool tear = rng.Chance(0.5);
  uint64_t keep = static_cast<uint64_t>(rng.Int(0, 48));
  RunCrashTrial(&sc, g, opts, crash_after, tear, keep);
}

class RecoveryFault : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryFault, MixedBurstUnderDuplicateSemantics) {
  RunRandomTrial(GetParam(), DupSemantics::kDuplicate,
                 /*deletions_allowed=*/true);
}

TEST_P(RecoveryFault, InsertBurstUnderSetSemantics) {
  RunRandomTrial(GetParam() * 7919 + 13, DupSemantics::kSet,
                 /*deletions_allowed=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFault,
                         ::testing::Range(uint64_t{1}, uint64_t{61}));

// Every crash point of one workload, torn and untorn: 2 * (W + 1 -
// create_writes) full recoveries. This is the exhaustive complement to the
// sampled randomized matrix — and it guarantees the aggregate counters
// below see checkpoint-window crashes and torn tails deterministically.
TEST(RecoveryFaultSweep, EveryCrashPointRecovers) {
  Scenario sc = MakeScenario(3, DupSemantics::kDuplicate,
                             /*deletions_allowed=*/true);
  DurabilityOptions opts;
  opts.checkpoint_every_records = 2;
  Golden g = RunGolden(&sc, opts);
  ASSERT_GT(g.total_writes, g.writes_after_create);
  for (int64_t c = g.writes_after_create; c <= g.total_writes; ++c) {
    RunCrashTrial(&sc, g, opts, c, /*tear=*/false, 0);
    RunCrashTrial(&sc, g, opts, c, /*tear=*/true, /*tear_keep_bytes=*/3);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- Bit-flip trials ------------------------------------------------------

// Frame boundaries of a scanned segment: frame i spans
// [offsets[i], offsets[i+1]).
std::vector<size_t> FrameOffsets(const durability::WalScan& scan) {
  std::vector<size_t> offsets = {0};
  for (const durability::WalRecord& r : scan.records) {
    // 8-byte header + 8-byte seq + payload.
    offsets.push_back(offsets.back() + 16 + r.payload.size());
  }
  return offsets;
}

// Flipping any byte of an INTERIOR record (one with committed records
// after it) must never yield a state beyond the corrupted record: the CRC
// catches body damage loudly; a length-field flip can at worst mimic a
// torn tail, recovering the valid golden PREFIX before the flip.
TEST(RecoveryBitFlip, InteriorWalRecordFlip) {
  Scenario sc = MakeScenario(5, DupSemantics::kDuplicate, true);
  DurabilityOptions opts;  // cadence off: one segment holds every record
  MemFs mem;
  Golden g = BuildState(&sc, &mem, opts);
  const std::string seg = "state/" + durability::WalSegmentFileName(1);
  const std::string orig = Unwrap(mem.ReadFile(seg));
  durability::WalScan scan =
      Unwrap(durability::ScanWalSegment(orig, "seg", true));
  ASSERT_GE(scan.records.size(), 3u);
  std::vector<size_t> offsets = FrameOffsets(scan);

  // The second record: it produced epoch 3, and records follow it.
  for (size_t off = offsets[1]; off < offsets[2]; ++off) {
    SCOPED_TRACE("flip at segment offset " + std::to_string(off));
    ASSERT_TRUE(mem.Corrupt(seg, off, 0x20).ok());
    RecoveryInfo info;
    Result<std::unique_ptr<DurableLog>> rec = DurableLog::Recover(
        &mem, "state", &sc.program, sc.world.domains.get(), sc.fp, nullptr,
        &info, opts);
    if (off - offsets[1] >= 4) {
      // Body or CRC damage on a complete frame: always loud.
      EXPECT_FALSE(rec.ok());
    }
    if (rec.ok()) {
      // A length-field flip that mimicked a torn tail: the recovered
      // state must be a valid golden prefix BELOW the flipped record.
      EXPECT_LE(info.recovered_epoch, 2u);
      EXPECT_EQ(CanonicalState((*rec)->TakeRecoveredView()),
                g.state[info.recovered_epoch]);
    }
    ASSERT_TRUE(mem.WriteFile(seg, orig).ok());  // undo flip + truncation
  }
}

// Flipping any byte of the FINAL record is either loud (CRC) or exactly a
// lost final burst (length-field flips are indistinguishable from tears) —
// never a corrupted state.
TEST(RecoveryBitFlip, FinalWalRecordFlip) {
  Scenario sc = MakeScenario(6, DupSemantics::kDuplicate, true);
  DurabilityOptions opts;
  MemFs mem;
  Golden g = BuildState(&sc, &mem, opts);
  const uint64_t full = sc.bursts.size() + 1;
  const std::string seg = "state/" + durability::WalSegmentFileName(1);
  const std::string orig = Unwrap(mem.ReadFile(seg));
  durability::WalScan scan =
      Unwrap(durability::ScanWalSegment(orig, "seg", true));
  std::vector<size_t> offsets = FrameOffsets(scan);
  const size_t last = scan.records.size() - 1;

  for (size_t off = offsets[last]; off < offsets[last + 1]; ++off) {
    SCOPED_TRACE("flip at segment offset " + std::to_string(off));
    ASSERT_TRUE(mem.Corrupt(seg, off, 0x20).ok());
    RecoveryInfo info;
    Result<std::unique_ptr<DurableLog>> rec = DurableLog::Recover(
        &mem, "state", &sc.program, sc.world.domains.get(), sc.fp, nullptr,
        &info, opts);
    if (rec.ok()) {
      EXPECT_EQ(info.recovered_epoch, full - 1);
      EXPECT_EQ(CanonicalState((*rec)->TakeRecoveredView()),
                g.state[full - 1]);
    }
    ASSERT_TRUE(mem.WriteFile(seg, orig).ok());
  }
}

// Flipping any byte of the newest CHECKPOINT must not lose anything at
// all: the previous retained checkpoint plus the bridging WAL segments
// reproduce the full final state.
TEST(RecoveryBitFlip, NewestCheckpointFlipFallsBackWithoutLoss) {
  Scenario sc = MakeScenario(7, DupSemantics::kDuplicate, true);
  DurabilityOptions opts;
  opts.checkpoint_every_records = 2;
  opts.full_checkpoint_interval = 1;  // every cadence fires a full image
  MemFs mem;
  Golden g = BuildState(&sc, &mem, opts);
  const uint64_t full = sc.bursts.size() + 1;

  uint64_t newest = 0;
  for (const std::string& name : Unwrap(mem.List("state"))) {
    if (Result<uint64_t> e = durability::ParseCheckpointFileName(name);
        e.ok() && *e > newest) {
      newest = *e;
    }
  }
  ASSERT_GT(newest, 1u) << "workload never hit the checkpoint cadence";
  const std::string ckpt = "state/" + durability::CheckpointFileName(newest);
  const std::string orig = Unwrap(mem.ReadFile(ckpt));

  for (size_t off = 0; off < orig.size(); off += 5) {
    SCOPED_TRACE("flip at checkpoint offset " + std::to_string(off));
    ASSERT_TRUE(mem.Corrupt(ckpt, off, 0x04).ok());
    SnapshotStore rec_store;
    RecoveryInfo info;
    std::unique_ptr<DurableLog> rec = Unwrap(DurableLog::Recover(
        &mem, "state", &sc.program, sc.world.domains.get(), sc.fp,
        &rec_store, &info, opts));
    EXPECT_GE(info.checkpoints_skipped, 1);
    EXPECT_LT(info.checkpoint_epoch, newest);
    EXPECT_EQ(info.recovered_epoch, full);
    EXPECT_EQ(CanonicalState(rec->TakeRecoveredView()), g.state[full]);
    EXPECT_EQ(rec_store.epoch(), full);
    ASSERT_TRUE(mem.WriteFile(ckpt, orig).ok());
  }
}

// Flipping any byte of ANY delta checkpoint must not lose anything
// either: every chain head that composes through the corrupt frame is
// abandoned, recovery lands on an older intact head (ultimately the full
// image at the chain's bottom) and the WAL bridges the rest. Exercises
// the all-delta newest chain the cadence below produces: initial full at
// epoch 1, then delta frames only.
TEST(RecoveryBitFlip, DeltaChainFlipFallsBackWithoutLoss) {
  Scenario sc = MakeScenario(7, DupSemantics::kDuplicate, true);
  DurabilityOptions opts;
  opts.checkpoint_every_records = 2;
  opts.full_checkpoint_interval = 4;  // cadence writes deltas only here
  MemFs mem;
  Golden g = BuildState(&sc, &mem, opts);
  const uint64_t full = sc.bursts.size() + 1;

  std::vector<uint64_t> delta_epochs;
  for (const std::string& name : Unwrap(mem.List("state"))) {
    if (Result<uint64_t> e = durability::ParseDeltaCheckpointFileName(name);
        e.ok()) {
      delta_epochs.push_back(*e);
    }
  }
  ASSERT_FALSE(delta_epochs.empty())
      << "workload never wrote a delta checkpoint";

  for (uint64_t epoch : delta_epochs) {
    const std::string dckpt =
        "state/" + durability::DeltaCheckpointFileName(epoch);
    const std::string orig = Unwrap(mem.ReadFile(dckpt));
    for (size_t off = 0; off < orig.size(); off += 5) {
      SCOPED_TRACE("flip at offset " + std::to_string(off) + " of " +
                   dckpt);
      ASSERT_TRUE(mem.Corrupt(dckpt, off, 0x04).ok());
      SnapshotStore rec_store;
      RecoveryInfo info;
      std::unique_ptr<DurableLog> rec = Unwrap(DurableLog::Recover(
          &mem, "state", &sc.program, sc.world.domains.get(), sc.fp,
          &rec_store, &info, opts));
      EXPECT_GE(info.checkpoints_skipped, 1);
      EXPECT_LT(info.checkpoint_epoch, epoch);
      EXPECT_EQ(info.recovered_epoch, full);
      EXPECT_EQ(CanonicalState(rec->TakeRecoveredView()), g.state[full]);
      EXPECT_EQ(rec_store.epoch(), full);
      ASSERT_TRUE(mem.WriteFile(dckpt, orig).ok());
    }
  }
}

// Declared last: by the time this runs, the sweep and the randomized
// matrix have finished, and every fault regime must have fired at least
// once — otherwise the suite is quietly weaker than it claims.
TEST(RecoveryFaultAggregate, EveryFaultRegimeOccurred) {
  EXPECT_GT(g_clean_runs, 0) << "no trial ran to completion";
  EXPECT_GT(g_crashed_runs, 0) << "no trial ever crashed";
  EXPECT_GT(g_torn_tails, 0) << "no trial recovered across a torn tail";
  EXPECT_GT(g_checkpoint_crashes, 0)
      << "no crash landed inside a checkpoint after the WAL commit";
  EXPECT_GT(g_delta_composes, 0)
      << "no trial recovered through a mixed full+delta checkpoint chain";
}

}  // namespace
}  // namespace mmv
