// Unit tests for the durability subsystem: CRC32C, the Fs seam (MemFs +
// FaultFs), WAL framing/scanning, the checkpoint codec and the DurableLog
// lifecycle (create / log / commit / abort / checkpoint / retention /
// recover). The randomized crash-recovery matrix lives in
// test_recovery_fault.cc; this file pins down each layer's contract in
// isolation.

#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/snapshot.h"
#include "durability/checkpoint.h"
#include "durability/durable_log.h"
#include "durability/fs.h"
#include "durability/wal.h"
#include "maintenance/batch.h"
#include "parser/view_io.h"
#include "test_util.h"

namespace mmv {
namespace {

using durability::CheckpointMeta;
using durability::DurabilityOptions;
using durability::DurableLog;
using durability::FaultFs;
using durability::FaultPlan;
using durability::MemFs;
using durability::RecoveryInfo;
using durability::SyncPolicy;
using durability::Wal;
using durability::WalScan;
using testutil::CanonicalState;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

// ---- CRC32C ---------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The Castagnoli check value from RFC 3720 / the canonical test suites.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendComposes) {
  std::string all = "hello, durability";
  uint32_t whole = Crc32c(all);
  uint32_t split = Crc32cExtend(Crc32c(all.substr(0, 7)), all.substr(7));
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, ProgramFingerprintSeesExactDoubles) {
  // Recovery checks a checkpoint against Crc32c(program.ToString()); at 6
  // significant digits both programs would print "X = 1e+06".
  Program a = ParseOrDie("p(X) <- X = 1000000.25.");
  Program b = ParseOrDie("p(X) <- X = 1000000.75.");
  EXPECT_NE(Crc32c(a.ToString()), Crc32c(b.ToString()));
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data = "the quick brown fox";
  uint32_t clean = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(Crc32c(flipped), clean);
    }
  }
}

// ---- MemFs ----------------------------------------------------------------

TEST(MemFsTest, WriteReadAppendTruncate) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("d/a", "abc").ok());
  ASSERT_TRUE(fs.Append("d/a", "def").ok());
  EXPECT_EQ(Unwrap(fs.ReadFile("d/a")), "abcdef");
  ASSERT_TRUE(fs.Truncate("d/a", 2).ok());
  EXPECT_EQ(Unwrap(fs.ReadFile("d/a")), "ab");
  EXPECT_FALSE(fs.Truncate("d/a", 100).ok());  // beyond size
  EXPECT_FALSE(fs.ReadFile("d/missing").ok());
  EXPECT_TRUE(Unwrap(fs.Exists("d/a")));
  EXPECT_FALSE(Unwrap(fs.Exists("d/missing")));
}

TEST(MemFsTest, ListNamesSorted) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("dir/b", "").ok());
  ASSERT_TRUE(fs.WriteFile("dir/a", "").ok());
  ASSERT_TRUE(fs.WriteFile("dir/sub/c", "").ok());  // not DIRECTLY inside
  ASSERT_TRUE(fs.WriteFile("other/z", "").ok());
  EXPECT_EQ(Unwrap(fs.List("dir")), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(Unwrap(fs.List("nothing")).empty());
}

TEST(MemFsTest, RenameReplacesAndRemoveIsIdempotent) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("a", "new").ok());
  ASSERT_TRUE(fs.WriteFile("b", "old").ok());
  ASSERT_TRUE(fs.Rename("a", "b").ok());
  EXPECT_EQ(Unwrap(fs.ReadFile("b")), "new");
  EXPECT_FALSE(Unwrap(fs.Exists("a")));
  EXPECT_FALSE(fs.Rename("missing", "x").ok());
  EXPECT_TRUE(fs.Remove("b").ok());
  EXPECT_TRUE(fs.Remove("b").ok());  // already gone: still OK
}

TEST(MemFsTest, CorruptFlipsOneByte) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("f", "abc").ok());
  ASSERT_TRUE(fs.Corrupt("f", 1, 0x01).ok());
  EXPECT_EQ(Unwrap(fs.ReadFile("f")), "acc");  // 'b' ^ 0x01 == 'c'
  EXPECT_FALSE(fs.Corrupt("f", 3, 0x01).ok());  // out of range
}

// ---- FaultFs --------------------------------------------------------------

TEST(FaultFsTest, CrashAfterNWritesFreezesState) {
  MemFs base;
  FaultPlan plan;
  plan.crash_after_writes = 2;
  FaultFs fs(&base, plan);
  ASSERT_TRUE(fs.WriteFile("a", "1").ok());
  ASSERT_TRUE(fs.WriteFile("b", "2").ok());
  EXPECT_FALSE(fs.crashed());
  // The crashing operation fails and is NOT applied.
  EXPECT_FALSE(fs.WriteFile("c", "3").ok());
  EXPECT_TRUE(fs.crashed());
  EXPECT_FALSE(Unwrap(base.Exists("c")));
  // Every later mutation fails; reads pass through.
  EXPECT_FALSE(fs.Append("a", "x").ok());
  EXPECT_FALSE(fs.Remove("a").ok());
  EXPECT_FALSE(fs.Rename("a", "z").ok());
  EXPECT_FALSE(fs.Sync("a").ok());
  EXPECT_EQ(Unwrap(fs.ReadFile("a")), "1");
  EXPECT_EQ(fs.writes_done(), 2);
}

TEST(FaultFsTest, TornCrashingWritePersistsPrefix) {
  MemFs base;
  FaultPlan plan;
  plan.crash_after_writes = 0;
  plan.tear_crashing_write = true;
  plan.tear_keep_bytes = 3;
  FaultFs fs(&base, plan);
  EXPECT_FALSE(fs.Append("wal", "abcdefgh").ok());
  EXPECT_EQ(Unwrap(base.ReadFile("wal")), "abc");
}

TEST(FaultFsTest, DryRunCountsWrites) {
  MemFs base;
  FaultFs fs(&base, FaultPlan{});  // crash_after_writes = -1: never
  ASSERT_TRUE(fs.WriteFile("a", "1").ok());
  ASSERT_TRUE(fs.Append("a", "2").ok());
  ASSERT_TRUE(fs.Remove("a").ok());
  EXPECT_EQ(fs.writes_done(), 3);
  EXPECT_FALSE(fs.crashed());
}

// ---- WAL framing and scanning --------------------------------------------

TEST(WalScanTest, RoundTripsRecords) {
  std::string data = durability::EncodeWalRecord(5, "first") +
                     durability::EncodeWalRecord(6, "second");
  WalScan scan = Unwrap(
      durability::ScanWalSegment(data, "seg", /*tolerate_torn_tail=*/false));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].seq, 5u);
  EXPECT_EQ(scan.records[0].payload, "first");
  EXPECT_EQ(scan.records[1].seq, 6u);
  EXPECT_EQ(scan.records[1].payload, "second");
  EXPECT_EQ(scan.valid_bytes, data.size());
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST(WalScanTest, TornTailToleratedOnlyInFinalSegment) {
  std::string full = durability::EncodeWalRecord(1, "payload");
  for (size_t cut = 1; cut < full.size(); ++cut) {
    std::string torn = durability::EncodeWalRecord(0, "ok") +
                       full.substr(0, full.size() - cut);
    WalScan scan = Unwrap(
        durability::ScanWalSegment(torn, "seg", /*tolerate_torn_tail=*/true));
    ASSERT_EQ(scan.records.size(), 1u) << "cut " << cut;
    EXPECT_EQ(scan.torn_bytes, full.size() - cut) << "cut " << cut;
    // The same bytes in a NON-final segment are corruption.
    EXPECT_FALSE(durability::ScanWalSegment(torn, "seg", false).ok());
  }
}

TEST(WalScanTest, ChecksumMismatchOnCompleteFrameIsLoudEvenAtTheEnd) {
  std::string data = durability::EncodeWalRecord(1, "payload");
  data[data.size() - 1] ^= 0x40;  // flip a payload bit, frame stays complete
  Status s =
      durability::ScanWalSegment(data, "seg", /*tolerate_torn_tail=*/true)
          .status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("checksum mismatch"), std::string::npos);
}

TEST(WalScanTest, NonIncreasingSeqIsCorruption) {
  std::string data = durability::EncodeWalRecord(3, "a") +
                     durability::EncodeWalRecord(3, "b");
  EXPECT_FALSE(durability::ScanWalSegment(data, "seg", true).ok());
}

TEST(WalScanTest, ImpossibleLengthIsCorruption) {
  std::string data(8, '\0');  // len = 0 < the 8 seq bytes every body holds
  EXPECT_FALSE(durability::ScanWalSegment(data, "seg", true).ok());
}

TEST(WalHandleTest, AppendCommitAbortCycle) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("w", "").ok());
  Wal wal(&fs, "w", SyncPolicy::kEveryBatch, 0, 0);

  ASSERT_TRUE(wal.Append(1, "keep").ok());
  // Double-append without resolving the pending record is a misuse.
  EXPECT_FALSE(wal.Append(2, "oops").ok());
  uint64_t bytes = 0;
  bool synced = false;
  ASSERT_TRUE(wal.Commit(&bytes, &synced).ok());
  EXPECT_GT(bytes, 0u);
  EXPECT_TRUE(synced);  // kEveryBatch

  ASSERT_TRUE(wal.Append(2, "drop").ok());
  ASSERT_TRUE(wal.Abort().ok());

  WalScan scan =
      Unwrap(durability::ScanWalSegment(Unwrap(fs.ReadFile("w")), "w", true));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "keep");
  EXPECT_EQ(wal.records(), 1);
  EXPECT_EQ(wal.syncs(), 1);
}

TEST(WalHandleTest, SyncPolicies) {
  MemFs fs;
  {
    Wal wal(&fs, "none", SyncPolicy::kNone, 0, 0);
    for (uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(wal.Append(i, "x").ok());
      ASSERT_TRUE(wal.Commit(nullptr, nullptr).ok());
    }
    EXPECT_EQ(wal.syncs(), 0);
  }
  {
    // kEveryBytes: the threshold spans two records here, so 4 commits
    // produce 2 syncs.
    uint64_t record = durability::EncodeWalRecord(1, "x").size();
    Wal wal(&fs, "bytes", SyncPolicy::kEveryBytes, 2 * record, 0);
    for (uint64_t i = 1; i <= 4; ++i) {
      ASSERT_TRUE(wal.Append(i, "x").ok());
      ASSERT_TRUE(wal.Commit(nullptr, nullptr).ok());
    }
    EXPECT_EQ(wal.syncs(), 2);
  }
}

// ---- Checkpoint codec -----------------------------------------------------

// One frame of each kind: a full frame (no parent, the delta against the
// empty image) and a delta frame over it. Every codec case runs over both.
struct SampleFrame {
  std::string name;
  CheckpointMeta meta;
  std::string body;
};

std::vector<SampleFrame> SampleFrames() {
  CheckpointMeta full;
  full.epoch = 42;
  full.ext_counter = -7;
  full.program_crc = 0xDEADBEEF;
  full.wal_offset = 12345;
  full.atoms = 1;
  CheckpointMeta delta = full;
  delta.epoch = 43;
  delta.parent = 42;
  return {{durability::CheckpointFileName(42), full,
           "seg a 1\na(X0) <- X0 = 1 @ <1> # 0\norder keep 0\n"
           "order run a 1\n"},
          {durability::DeltaCheckpointFileName(43), delta,
           "order keep 1\n"}};
}

// Recomputes the checksum line of a frame whose text was edited, exactly
// as EncodeCheckpoint computes it: CRC32C of every other byte.
std::string Reseal(const std::string& file) {
  const size_t at = file.find("checksum ");
  const std::string rest = file.substr(file.find('\n', at) + 1);
  const uint32_t crc = Crc32cExtend(Crc32c(file.substr(0, at)), rest);
  return file.substr(0, at) + StrFormat("checksum %08x\n", crc) + rest;
}

// Replaces the one header line that starts with \p key.
std::string WithHeaderLine(const std::string& file, const std::string& key,
                           const std::string& line) {
  const size_t at = file.find("\n" + key + " ") + 1;
  return file.substr(0, at) + line + file.substr(file.find('\n', at));
}

TEST(CheckpointCodecTest, RoundTrip) {
  for (const SampleFrame& f : SampleFrames()) {
    std::string file = durability::EncodeCheckpoint(f.meta, f.body);
    std::string body;
    CheckpointMeta meta =
        Unwrap(durability::DecodeCheckpoint(f.name, file, &body));
    EXPECT_EQ(meta.epoch, f.meta.epoch) << f.name;
    EXPECT_EQ(meta.parent, f.meta.parent) << f.name;
    EXPECT_EQ(meta.ext_counter, -7) << f.name;
    EXPECT_EQ(meta.program_crc, 0xDEADBEEFu) << f.name;
    EXPECT_EQ(meta.wal_offset, 12345u) << f.name;
    EXPECT_EQ(meta.atoms, 1u) << f.name;
    EXPECT_EQ(body, f.body) << f.name;
    EXPECT_EQ(Reseal(file), file) << f.name;
  }
}

TEST(CheckpointCodecTest, AnySingleBitFlipIsDetected) {
  for (const SampleFrame& f : SampleFrames()) {
    std::string file = durability::EncodeCheckpoint(f.meta, f.body);
    std::string body;
    for (size_t i = 0; i < file.size(); ++i) {
      std::string flipped = file;
      flipped[i] = static_cast<char>(flipped[i] ^ 0x08);
      EXPECT_FALSE(durability::DecodeCheckpoint(f.name, flipped, &body).ok())
          << f.name << ": flip at byte " << i << " went undetected";
    }
  }
}

TEST(CheckpointCodecTest, EveryTruncationIsDetected) {
  for (const SampleFrame& f : SampleFrames()) {
    std::string file = durability::EncodeCheckpoint(f.meta, f.body);
    std::string body;
    for (size_t keep = 0; keep < file.size(); ++keep) {
      EXPECT_FALSE(
          durability::DecodeCheckpoint(f.name, file.substr(0, keep), &body)
              .ok())
          << f.name << ": truncation to " << keep
          << " bytes went undetected";
    }
  }
}

TEST(CheckpointCodecTest, HeaderMustAgreeWithTheFileName) {
  const std::vector<SampleFrame> frames = SampleFrames();
  const std::string full = durability::EncodeCheckpoint(frames[0].meta, "");
  const std::string delta = durability::EncodeCheckpoint(frames[1].meta, "");
  std::string body;
  // Kind: a "ckpt-" frame names no parent, a "dckpt-" frame names one.
  EXPECT_FALSE(durability::DecodeCheckpoint(
                   durability::DeltaCheckpointFileName(42), full, &body)
                   .ok());
  EXPECT_FALSE(durability::DecodeCheckpoint(
                   durability::CheckpointFileName(43), delta, &body)
                   .ok());
  // Epoch: the header's epoch is the name's.
  EXPECT_FALSE(durability::DecodeCheckpoint(
                   durability::CheckpointFileName(41), full, &body)
                   .ok());
  EXPECT_FALSE(durability::DecodeCheckpoint("notes.txt", full, &body).ok());
  // A parent must be older than its child.
  CheckpointMeta forward = frames[1].meta;
  forward.parent = 43;
  EXPECT_FALSE(durability::DecodeCheckpoint(
                   frames[1].name,
                   durability::EncodeCheckpoint(forward, ""), &body)
                   .ok());
}

TEST(CheckpointCodecTest, DecimalFieldsRejectOverflow) {
  CheckpointMeta meta;
  meta.epoch = 1;
  const std::string name = durability::CheckpointFileName(1);
  const std::string file = durability::EncodeCheckpoint(meta, "");
  std::string body;
  ASSERT_TRUE(durability::DecodeCheckpoint(name, file, &body).ok());
  // 2^64 + 1 used to wrap to epoch 1 and match the name.
  EXPECT_FALSE(durability::DecodeCheckpoint(
                   name,
                   Reseal(WithHeaderLine(file, "epoch",
                                         "epoch 18446744073709551617")),
                   &body)
                   .ok());
  EXPECT_FALSE(durability::DecodeCheckpoint(
                   name,
                   Reseal(WithHeaderLine(file, "ext_counter",
                                         "ext_counter -2147483649")),
                   &body)
                   .ok());
  EXPECT_FALSE(durability::DecodeCheckpoint(
                   name,
                   Reseal(WithHeaderLine(file, "ext_counter",
                                         "ext_counter 2147483648")),
                   &body)
                   .ok());
  CheckpointMeta low = Unwrap(durability::DecodeCheckpoint(
      name,
      Reseal(WithHeaderLine(file, "ext_counter", "ext_counter -2147483648")),
      &body));
  EXPECT_EQ(low.ext_counter, INT_MIN);
  // File names parse through the same checked decimal parser.
  EXPECT_FALSE(durability::ParseCheckpointFileName(
                   "ckpt-18446744073709551617.mmv")
                   .ok());
}

TEST(CheckpointCodecTest, FileNamesRoundTripAndRejectForeignNames) {
  EXPECT_EQ(Unwrap(durability::ParseCheckpointFileName(
                durability::CheckpointFileName(37))),
            37u);
  EXPECT_EQ(Unwrap(durability::ParseDeltaCheckpointFileName(
                durability::DeltaCheckpointFileName(37))),
            37u);
  EXPECT_EQ(Unwrap(durability::ParseWalSegmentFileName(
                durability::WalSegmentFileName(0))),
            0u);
  // Zero padding keeps lexicographic order == numeric order.
  EXPECT_LT(durability::CheckpointFileName(9),
            durability::CheckpointFileName(10));
  EXPECT_FALSE(durability::ParseCheckpointFileName("ckpt-1.mmv.tmp").ok());
  EXPECT_FALSE(durability::ParseCheckpointFileName("wal-1.log").ok());
  EXPECT_FALSE(durability::ParseWalSegmentFileName("notes.txt").ok());
  // "dckpt-" names never parse as "ckpt-" names and vice versa.
  EXPECT_FALSE(durability::ParseCheckpointFileName(
                   durability::DeltaCheckpointFileName(37))
                   .ok());
  EXPECT_FALSE(durability::ParseDeltaCheckpointFileName(
                   durability::CheckpointFileName(37))
                   .ok());
}

// ---- DurableLog lifecycle -------------------------------------------------

// One small mediator world for the lifecycle tests: a base predicate
// feeding a derived one, duplicate semantics, MemFs storage.
struct LogWorld {
  TestWorld world = TestWorld::Make();
  Program program = ParseOrDie("a(X) <- X = 1. b(X) <- a(X).");
  FixpointOptions fp;
  MemFs fs;
  SnapshotStore snapshots;
  View view;
  std::unique_ptr<DurableLog> log;

  void Start(DurabilityOptions opts = {}) {
    fp.semantics = DupSemantics::kDuplicate;
    view = Unwrap(Materialize(program, world.domains.get(), fp));
    snapshots.Publish(view);  // epoch 1
    log = Unwrap(DurableLog::Create(&fs, "state", program, view,
                                    snapshots.epoch(), 0, opts));
  }

  Status Apply(const std::string& atom_text, bool is_delete,
               maint::BatchStats* stats = nullptr) {
    maint::UpdateAtom atom = ParseUpdate(atom_text, &program);
    std::vector<maint::Update> burst = {
        is_delete ? maint::Update::Delete(std::move(atom))
                  : maint::Update::Insert(std::move(atom))};
    return maint::ApplyBatch(program, &view, burst, world.domains.get(), fp,
                             stats, log->ext_counter(), &snapshots,
                             log.get());
  }
};

TEST(DurableLogTest, CreateWritesInitialCheckpointAndRefusesReuse) {
  LogWorld w;
  w.Start();
  EXPECT_TRUE(
      Unwrap(w.fs.Exists("state/" + durability::CheckpointFileName(1))));
  EXPECT_TRUE(
      Unwrap(w.fs.Exists("state/" + durability::WalSegmentFileName(1))));
  // Re-initializing over live durability state must refuse.
  Status again = DurableLog::Create(&w.fs, "state", w.program, w.view, 1, 0)
                     .status();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST(DurableLogTest, CommitAndRecoverRoundTrip) {
  LogWorld w;
  w.Start();
  maint::BatchStats stats;
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/false, &stats).ok());
  EXPECT_EQ(stats.wal_records, 1);
  EXPECT_GT(stats.wal_bytes, 0);
  EXPECT_EQ(stats.wal_syncs, 1);  // default kEveryBatch
  ASSERT_TRUE(w.Apply("a(X) <- X = 1.", /*is_delete=*/true).ok());
  EXPECT_EQ(w.snapshots.epoch(), 3u);
  EXPECT_EQ(w.log->epoch(), 3u);

  SnapshotStore recovered_snapshots;
  RecoveryInfo info;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp,
      &recovered_snapshots, &info));
  EXPECT_EQ(info.checkpoint_epoch, 1u);
  EXPECT_EQ(info.recovered_epoch, 3u);
  EXPECT_EQ(info.replayed_bursts, 2);
  EXPECT_EQ(info.torn_tail_bytes, 0u);
  EXPECT_EQ(recovered_snapshots.epoch(), 3u);
  EXPECT_EQ(CanonicalState(recovered->TakeRecoveredView()),
            CanonicalState(w.view));
  EXPECT_EQ(*recovered->ext_counter(), *w.log->ext_counter());
}

TEST(DurableLogTest, AbortedBurstLeavesNoRecord) {
  LogWorld w;
  w.Start();
  // Drive the BurstLog protocol directly: a logged-then-aborted burst (the
  // ApplyBatch failure path) must vanish from the segment.
  maint::UpdateAtom atom = ParseUpdate("a(X) <- X = 9.", &w.program);
  std::vector<maint::Update> burst = {maint::Update::Insert(atom)};
  ASSERT_TRUE(w.log->LogBurst(burst).ok());
  w.log->AbortBurst();
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/false).ok());

  RecoveryInfo info;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
      &info));
  EXPECT_EQ(info.replayed_bursts, 1);  // only the committed burst
  EXPECT_EQ(CanonicalState(recovered->TakeRecoveredView()),
            CanonicalState(w.view));
}

TEST(DurableLogTest, CheckpointCadenceRollsSegmentsAndCollectsGarbage) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 1;  // checkpoint after every burst
  opts.keep_checkpoints = 2;
  opts.full_checkpoint_interval = 1;  // all-full: exact file set asserted
  w.Start(opts);
  maint::BatchStats stats;
  for (int i = 2; i <= 6; ++i) {
    ASSERT_TRUE(w.Apply("a(X) <- X = " + std::to_string(i) + ".",
                        /*is_delete=*/false, &stats)
                    .ok());
    EXPECT_EQ(stats.checkpoints_written, 1);
  }
  // 1 initial + 5 cadence checkpoints written, 2 retained (epochs 5, 6)
  // with their segments; everything older collected.
  EXPECT_EQ(w.log->checkpoints_written(), 6);
  std::vector<std::string> names = Unwrap(w.fs.List("state"));
  EXPECT_EQ(names, (std::vector<std::string>{
                       durability::CheckpointFileName(5),
                       durability::CheckpointFileName(6),
                       durability::WalSegmentFileName(5),
                       durability::WalSegmentFileName(6)}));

  RecoveryInfo info;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
      &info));
  EXPECT_EQ(info.checkpoint_epoch, 6u);
  EXPECT_EQ(info.recovered_epoch, 6u);
  EXPECT_EQ(info.replayed_bursts, 0);  // the checkpoint already holds all
  EXPECT_EQ(CanonicalState(recovered->TakeRecoveredView()),
            CanonicalState(w.view));
}

TEST(DurableLogTest, DeltaCadenceWritesFullEveryNthCheckpoint) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 1;  // checkpoint after every burst
  opts.full_checkpoint_interval = 4;
  w.Start(opts);
  // Create wrote the full image at epoch 1; the next three cadence
  // checkpoints are deltas, the fourth (epoch 5) is full again.
  for (int i = 2; i <= 6; ++i) {
    maint::BatchStats stats;
    ASSERT_TRUE(w.Apply("a(X) <- X = " + std::to_string(i) + ".",
                        /*is_delete=*/false, &stats)
                    .ok());
    EXPECT_EQ(stats.checkpoints_written, 1);
    const bool wrote_full = i == 5;
    EXPECT_EQ(stats.checkpoint_delta_bytes > 0, !wrote_full)
        << "epoch " << i;
  }
  EXPECT_EQ(w.log->checkpoints_written(), 6);
  EXPECT_EQ(w.log->delta_checkpoints_written(), 4);  // epochs 2, 3, 4, 6
  std::vector<std::string> names = Unwrap(w.fs.List("state"));
  EXPECT_EQ(names, (std::vector<std::string>{
                       durability::CheckpointFileName(1),
                       durability::CheckpointFileName(5),
                       durability::DeltaCheckpointFileName(2),
                       durability::DeltaCheckpointFileName(3),
                       durability::DeltaCheckpointFileName(4),
                       durability::DeltaCheckpointFileName(6),
                       durability::WalSegmentFileName(1),
                       durability::WalSegmentFileName(2),
                       durability::WalSegmentFileName(3),
                       durability::WalSegmentFileName(4),
                       durability::WalSegmentFileName(5),
                       durability::WalSegmentFileName(6)}));

  RecoveryInfo info;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
      &info));
  EXPECT_EQ(info.checkpoint_epoch, 6u);       // the delta head at epoch 6
  EXPECT_EQ(info.full_checkpoint_epoch, 5u);  // composed over the full
  EXPECT_EQ(info.delta_checkpoints_composed, 1);
  EXPECT_GT(info.checkpoint_delta_bytes, 0);
  EXPECT_EQ(info.recovered_epoch, 6u);
  EXPECT_EQ(info.replayed_bursts, 0);
  EXPECT_EQ(CanonicalState(recovered->TakeRecoveredView()),
            CanonicalState(w.view));
}

TEST(DurableLogTest, RecoveryComposesAWholeDeltaChain) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 1;
  opts.full_checkpoint_interval = 4;
  w.Start(opts);
  // Stop at epoch 4: the newest chain is d4 -> d3 -> d2 -> ckpt1, the
  // longest this cadence produces — recovery composes all three deltas
  // over the full image with nothing left for WAL replay. Mixed shapes:
  // an insert, a delete of an initial atom, another insert.
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/false).ok());
  ASSERT_TRUE(w.Apply("a(X) <- X = 1.", /*is_delete=*/true).ok());
  ASSERT_TRUE(w.Apply("a(X) <- X = 3.", /*is_delete=*/false).ok());
  RecoveryInfo info;
  SnapshotStore rec_store;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, &rec_store,
      &info));
  EXPECT_EQ(info.checkpoint_epoch, 4u);
  EXPECT_EQ(info.full_checkpoint_epoch, 1u);
  EXPECT_EQ(info.delta_checkpoints_composed, 3);
  EXPECT_EQ(info.replayed_bursts, 0);
  EXPECT_EQ(rec_store.epoch(), 4u);
  View rec_view = recovered->TakeRecoveredView();
  EXPECT_EQ(CanonicalState(rec_view), CanonicalState(w.view));
  // Byte-identity, not just state equality: the composed order must equal
  // the live view's enumeration order exactly.
  EXPECT_EQ(parser::SerializeView(rec_view), parser::SerializeView(w.view));
}

// Regression for the delta frame's changed-predicate diff: a burst whose
// net effect is NOTHING (inserts canceled by deletes in the same batch)
// re-materializes the touched segments — pointer inequality alone would
// serialize every one of them into the delta frame. Comparing the
// segments' bytes proves them unchanged, so the frame carries only order
// bookkeeping: no seg sections, no removed lines.
TEST(DurableLogTest, FullyCancelingBurstEmitsNearEmptyDeltaFrame) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 1;
  opts.full_checkpoint_interval = 100;  // cadence checkpoints are deltas
  w.Start(opts);
  std::vector<maint::Update> burst;
  for (const char* t : {"a(X) <- X = 10.", "a(X) <- X = 11."}) {
    burst.push_back(maint::Update::Insert(ParseUpdate(t, &w.program)));
  }
  for (const char* t : {"a(X) <- X = 10.", "a(X) <- X = 11."}) {
    burst.push_back(maint::Update::Delete(ParseUpdate(t, &w.program)));
  }
  maint::BatchStats stats;
  Status s = maint::ApplyBatch(w.program, &w.view, burst,
                               w.world.domains.get(), w.fp, &stats,
                               w.log->ext_counter(), &w.snapshots,
                               w.log.get());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(stats.checkpoints_written, 1);
  const std::string name = durability::DeltaCheckpointFileName(2);
  std::string file = Unwrap(w.fs.ReadFile("state/" + name));
  std::string body;
  Unwrap(durability::DecodeCheckpoint(name, file, &body));
  EXPECT_EQ(body.find("seg "), std::string::npos)
      << "unchanged-content segment serialized into the delta frame:\n"
      << body;
  EXPECT_EQ(body.find("removed "), std::string::npos) << body;
  // The near-empty frame still recovers the exact view.
  RecoveryInfo info;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
      &info));
  EXPECT_EQ(info.delta_checkpoints_composed, 1);
  EXPECT_EQ(parser::SerializeView(recovered->TakeRecoveredView()),
            parser::SerializeView(w.view));
}

// The longest chain the streaming composer sees in these suites: four
// deltas over one full image, replayed parent-first with each frame's
// bytes released before the next (recovery peak stays O(view), not
// O(view + all frames)). Mixed shapes again, ending on a delete so the
// final frame rewrites the order.
TEST(DurableLogTest, RecoveryComposesAFourDeltaChain) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 1;
  opts.full_checkpoint_interval = 5;  // fulls at 1 and 6; deltas at 2-5
  w.Start(opts);
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/false).ok());
  ASSERT_TRUE(w.Apply("a(X) <- X = 1.", /*is_delete=*/true).ok());
  ASSERT_TRUE(w.Apply("a(X) <- X = 3.", /*is_delete=*/false).ok());
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/true).ok());
  RecoveryInfo info;
  SnapshotStore rec_store;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, &rec_store,
      &info));
  EXPECT_EQ(info.checkpoint_epoch, 5u);
  EXPECT_EQ(info.full_checkpoint_epoch, 1u);
  EXPECT_EQ(info.delta_checkpoints_composed, 4);
  EXPECT_EQ(info.replayed_bursts, 0);
  EXPECT_EQ(rec_store.epoch(), 5u);
  View rec_view = recovered->TakeRecoveredView();
  EXPECT_EQ(CanonicalState(rec_view), CanonicalState(w.view));
  EXPECT_EQ(parser::SerializeView(rec_view), parser::SerializeView(w.view));
}

TEST(DurableLogTest, RetentionFloorsAtTheOldestRetainedFullImage) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 1;
  opts.full_checkpoint_interval = 4;
  opts.keep_checkpoints = 2;
  w.Start(opts);
  // Run to epoch 9: fulls at 1, 5, 9. The GC at epoch 9 floors at full 5,
  // dropping ckpt-1, the deltas at 2-4 (their chains bottomed at the
  // collected full) and the segments below 5 — while d6-d8, whose chains
  // bottom at the RETAINED full 5, survive.
  for (int i = 2; i <= 9; ++i) {
    ASSERT_TRUE(w.Apply("a(X) <- X = " + std::to_string(i) + ".",
                        /*is_delete=*/false)
                    .ok());
  }
  std::vector<std::string> names = Unwrap(w.fs.List("state"));
  EXPECT_EQ(names, (std::vector<std::string>{
                       durability::CheckpointFileName(5),
                       durability::CheckpointFileName(9),
                       durability::DeltaCheckpointFileName(6),
                       durability::DeltaCheckpointFileName(7),
                       durability::DeltaCheckpointFileName(8),
                       durability::WalSegmentFileName(5),
                       durability::WalSegmentFileName(6),
                       durability::WalSegmentFileName(7),
                       durability::WalSegmentFileName(8),
                       durability::WalSegmentFileName(9)}));
  RecoveryInfo info;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
      &info));
  EXPECT_EQ(info.recovered_epoch, 9u);
  EXPECT_EQ(CanonicalState(recovered->TakeRecoveredView()),
            CanonicalState(w.view));
}

TEST(DurableLogTest, ExplicitFullCheckpointSupersedesSameEpochDelta) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 1;
  opts.full_checkpoint_interval = 4;
  w.Start(opts);
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/false).ok());
  // The cadence wrote d2. An explicit full checkpoint at the SAME epoch
  // must replace it — leaving a full+delta pair at one epoch would make
  // the delta a stale shadow of the full.
  ASSERT_TRUE(Unwrap(
      w.fs.Exists("state/" + durability::DeltaCheckpointFileName(2))));
  ASSERT_TRUE(
      w.log->Checkpoint(w.view, DurableLog::CheckpointKind::kFull).ok());
  EXPECT_FALSE(Unwrap(
      w.fs.Exists("state/" + durability::DeltaCheckpointFileName(2))));
  EXPECT_TRUE(
      Unwrap(w.fs.Exists("state/" + durability::CheckpointFileName(2))));
  RecoveryInfo info;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
      &info));
  EXPECT_EQ(info.checkpoint_epoch, 2u);
  EXPECT_EQ(info.delta_checkpoints_composed, 0);
  EXPECT_EQ(CanonicalState(recovered->TakeRecoveredView()),
            CanonicalState(w.view));
}

TEST(DurableLogTest, FallsBackToOlderCheckpointWhenNewestIsCorrupt) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 2;
  opts.full_checkpoint_interval = 1;  // the test corrupts ckpt-5 by name
  w.Start(opts);
  for (int i = 2; i <= 5; ++i) {
    ASSERT_TRUE(w.Apply("a(X) <- X = " + std::to_string(i) + ".",
                        /*is_delete=*/false)
                    .ok());
  }
  // Checkpoints now at epochs 1 (collected), 3 and 5. Corrupt the newest:
  // recovery must fall back to epoch 3 and REPLAY the bridging records —
  // byte-identical to the uninterrupted state.
  ASSERT_TRUE(
      w.fs.Corrupt("state/" + durability::CheckpointFileName(5), 40, 0x10)
          .ok());
  RecoveryInfo info;
  std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
      &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
      &info));
  EXPECT_EQ(info.checkpoints_skipped, 1);
  EXPECT_EQ(info.checkpoint_epoch, 3u);
  EXPECT_EQ(info.recovered_epoch, 5u);
  EXPECT_EQ(info.replayed_bursts, 2);
  EXPECT_EQ(CanonicalState(recovered->TakeRecoveredView()),
            CanonicalState(w.view));
}

TEST(DurableLogTest, RefusesToRecoverBelowTheNewestClaimedEpoch) {
  LogWorld w;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 2;
  opts.full_checkpoint_interval = 1;  // the test corrupts ckpt-5 by name
  w.Start(opts);
  for (int i = 2; i <= 5; ++i) {
    ASSERT_TRUE(w.Apply("a(X) <- X = " + std::to_string(i) + ".",
                        /*is_delete=*/false)
                    .ok());
  }
  // Corrupt the newest checkpoint AND delete the WAL segment bridging from
  // the previous one: falling back would silently lose epochs 4-5, so
  // recovery must fail loudly instead.
  ASSERT_TRUE(
      w.fs.Corrupt("state/" + durability::CheckpointFileName(5), 40, 0x10)
          .ok());
  ASSERT_TRUE(
      w.fs.Remove("state/" + durability::WalSegmentFileName(3)).ok());
  Status s = DurableLog::Recover(&w.fs, "state", &w.program,
                                 w.world.domains.get(), w.fp, nullptr,
                                 nullptr)
                 .status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("claims epoch"), std::string::npos);
}

TEST(DurableLogTest, RefusesACheckpointFromADifferentProgram) {
  LogWorld w;
  w.Start();
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/false).ok());
  Program other = ParseOrDie("a(X) <- X = 1. c(X) <- a(X).");
  Status s = DurableLog::Recover(&w.fs, "state", &other,
                                 w.world.domains.get(), w.fp, nullptr,
                                 nullptr)
                 .status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("different program"), std::string::npos);
}

// A CRC-valid full frame whose order runs sum to the header's atom count
// only modulo 2^64: the composer must reject it before it reads past a
// segment.
TEST(DurableLogTest, OrderRunsThatWrapTheAtomCountAreRejected) {
  LogWorld w;
  w.Start();  // ckpt-1 holds a(1) and b(1); no WAL records follow
  const std::string name = durability::CheckpointFileName(1);
  std::string body;
  CheckpointMeta meta = Unwrap(durability::DecodeCheckpoint(
      name, Unwrap(w.fs.ReadFile("state/" + name)), &body));
  ASSERT_EQ(meta.atoms, 2u);
  const size_t order_at = body.find("order keep ");
  ASSERT_NE(order_at, std::string::npos);
  const std::string segs = body.substr(0, order_at);
  ASSERT_NE(segs.find("seg a 1\n"), std::string::npos) << segs;
  ASSERT_NE(segs.find("seg b 1\n"), std::string::npos) << segs;
  const std::string crafted = segs +
                              "order keep 0\n"
                              "order run a 1\n"
                              "order run b 1\n"
                              "order run a 18446744073709551615\n"
                              "order run b 0\n"
                              "order run a 1\n";
  ASSERT_TRUE(
      w.fs.WriteFile("state/" + name, durability::EncodeCheckpoint(meta,
                                                                   crafted))
          .ok());
  Status s = DurableLog::Recover(&w.fs, "state", &w.program,
                                 w.world.domains.get(), w.fp, nullptr,
                                 nullptr)
                 .status();
  EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
}

// A frame whose header contradicts its file name — a "dckpt-" frame with
// no parent, a "ckpt-" frame with one — fails its chain like any other
// corruption, and recovery falls back to the next chain plus the WAL.
TEST(DurableLogTest, FrameWhoseParentContradictsItsNameIsSkipped) {
  struct Case {
    std::string name;
    std::optional<uint64_t> parent;
    int64_t skipped;
    uint64_t loaded;
  };
  // Interval 2 over epochs 1-4: ckpt-1, dckpt-2, ckpt-3, dckpt-4.
  for (const Case& c :
       {Case{durability::DeltaCheckpointFileName(4), std::nullopt, 1, 3},
        Case{durability::CheckpointFileName(3), 2, 2, 2}}) {
    LogWorld w;
    DurabilityOptions opts;
    opts.checkpoint_every_records = 1;
    opts.full_checkpoint_interval = 2;
    w.Start(opts);
    for (int i = 2; i <= 4; ++i) {
      ASSERT_TRUE(w.Apply("a(X) <- X = " + std::to_string(i) + ".",
                          /*is_delete=*/false)
                      .ok());
    }
    const std::string path = "state/" + c.name;
    std::string body;
    CheckpointMeta meta = Unwrap(durability::DecodeCheckpoint(
        c.name, Unwrap(w.fs.ReadFile(path)), &body));
    meta.parent = c.parent;
    ASSERT_TRUE(
        w.fs.WriteFile(path, durability::EncodeCheckpoint(meta, body)).ok());
    RecoveryInfo info;
    std::unique_ptr<DurableLog> recovered = Unwrap(DurableLog::Recover(
        &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
        &info));
    EXPECT_EQ(info.checkpoints_skipped, c.skipped) << c.name;
    EXPECT_EQ(info.checkpoint_epoch, c.loaded) << c.name;
    EXPECT_EQ(info.recovered_epoch, 4u) << c.name;
    EXPECT_EQ(parser::SerializeView(recovered->TakeRecoveredView()),
              parser::SerializeView(w.view))
        << c.name;
  }
}

// Seeded sweep over CRC-valid garbage: byte flips and truncations of the
// BODY of a real frame, re-sealed with a fresh checksum so they reach the
// composer. Each mutated frame is the newest chain head with no WAL
// records after it, so its composed view is never replayed over. Every
// input must recover or fail with a ParseError — never crash or read out
// of bounds (the sanitizer build runs this too).
TEST(DurableLogTest, MutatedFrameBodiesRecoverOrFailWithParseError) {
  // Head = a full frame (ckpt-1 alone), and head = a delta (dckpt-4 over
  // dckpt-3, dckpt-2 and ckpt-1).
  LogWorld full_world;
  full_world.Start();
  LogWorld delta_world;
  DurabilityOptions opts;
  opts.checkpoint_every_records = 1;
  opts.full_checkpoint_interval = 4;
  delta_world.Start(opts);
  ASSERT_TRUE(delta_world.Apply("a(X) <- X = 2.", false).ok());
  ASSERT_TRUE(delta_world.Apply("a(X) <- X = 1.", true).ok());
  ASSERT_TRUE(delta_world.Apply("a(X) <- X = 3.", false).ok());
  struct Target {
    LogWorld* world;
    std::string name;
  };
  const Target targets[] = {
      {&full_world, durability::CheckpointFileName(1)},
      {&delta_world, durability::DeltaCheckpointFileName(4)}};

  Rng rng(20261017);
  int64_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Target& t = targets[trial % 2];
    const std::string path = "state/" + t.name;
    std::string body;
    CheckpointMeta meta = Unwrap(durability::DecodeCheckpoint(
        t.name, Unwrap(t.world->fs.ReadFile(path)), &body));
    ASSERT_FALSE(body.empty());
    if (rng.Chance(0.5)) {
      body.resize(static_cast<size_t>(
          rng.Int(0, static_cast<int64_t>(body.size()) - 1)));
    } else {
      for (int64_t flips = rng.Int(1, 3); flips > 0; --flips) {
        const size_t at = static_cast<size_t>(
            rng.Int(0, static_cast<int64_t>(body.size()) - 1));
        body[at] = static_cast<char>(body[at] ^ (1 << rng.Int(0, 7)));
      }
    }
    MemFs fs = t.world->fs;
    ASSERT_TRUE(
        fs.WriteFile(path, durability::EncodeCheckpoint(meta, body)).ok());
    RecoveryInfo info;
    Status s = DurableLog::Recover(&fs, "state", &t.world->program,
                                   t.world->world.domains.get(),
                                   t.world->fp, nullptr, &info)
                   .status();
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kParseError)
        << "trial " << trial << ": " << s.ToString();
    if (!s.ok() || info.checkpoints_skipped > 0) ++rejected;
  }
  // A few mutations still compose (a flipped digit inside an atom's
  // constant); the sweep must also reach the rejections.
  EXPECT_GT(rejected, 0);
}

TEST(DurableLogTest, RecoveryWithNoStateIsNotFound) {
  MemFs fs;
  Program p = ParseOrDie("a(X) <- X = 1.");
  TestWorld world = TestWorld::Make();
  Status s = DurableLog::Recover(&fs, "empty", &p, world.domains.get(), {},
                                 nullptr, nullptr)
                 .status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(DurableLogTest, LoggingFailureAbortsTheBatchWithTheViewUntouched) {
  LogWorld w;
  w.Start();
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/false).ok());
  auto before = CanonicalState(w.view);
  uint64_t epoch_before = w.snapshots.epoch();

  // Crash the fs NOW: the next LogBurst's append fails, so ApplyBatch must
  // return the IO error before any maintenance pass ran.
  FaultPlan plan;
  plan.crash_after_writes = 0;
  FaultFs crashed(&w.fs, plan);
  // Rebind the log's fs by recovering into a faulted environment instead:
  // simpler — drive the protocol directly through a log whose fs crashed.
  std::unique_ptr<DurableLog> log = Unwrap(DurableLog::Recover(
      &crashed, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
      nullptr));
  View view = log->TakeRecoveredView();
  maint::UpdateAtom atom = ParseUpdate("a(X) <- X = 3.", &w.program);
  std::vector<maint::Update> burst = {maint::Update::Insert(atom)};
  Status s = maint::ApplyBatch(w.program, &view, burst,
                               w.world.domains.get(), w.fp, nullptr,
                               log->ext_counter(), &w.snapshots, log.get());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(CanonicalState(view), before) << "failed logging mutated the view";
  EXPECT_EQ(w.snapshots.epoch(), epoch_before);
}

TEST(DurableLogTest, RecoveryIsIdempotent) {
  // Recovering twice (a crash during recovery's truncation, then again)
  // lands on the same state.
  LogWorld w;
  w.Start();
  ASSERT_TRUE(w.Apply("a(X) <- X = 2.", /*is_delete=*/false).ok());
  ASSERT_TRUE(w.Apply("b(X) <- X = 7.", /*is_delete=*/false).ok());

  auto recover = [&]() {
    RecoveryInfo info;
    std::unique_ptr<DurableLog> log = Unwrap(DurableLog::Recover(
        &w.fs, "state", &w.program, w.world.domains.get(), w.fp, nullptr,
        &info));
    return std::make_pair(CanonicalState(log->TakeRecoveredView()),
                          info.recovered_epoch);
  };
  auto first = recover();
  auto second = recover();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_EQ(first.first, CanonicalState(w.view));
}

}  // namespace
}  // namespace mmv
