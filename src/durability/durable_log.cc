#include "durability/durable_log.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/crc32c.h"
#include "common/strings.h"
#include "parser/view_io.h"

namespace mmv {
namespace durability {

namespace {

std::vector<parser::ParsedUpdate> ToParsed(
    const std::vector<maint::Update>& updates) {
  std::vector<parser::ParsedUpdate> parsed;
  parsed.reserve(updates.size());
  for (const maint::Update& u : updates) {
    parser::ParsedUpdate p;
    p.is_delete = u.kind == maint::Update::Kind::kDelete;
    p.atom = parser::ParsedAtom{u.atom.pred, u.atom.args, u.atom.constraint};
    parsed.push_back(std::move(p));
  }
  return parsed;
}

std::vector<maint::Update> ToUpdates(
    std::vector<parser::ParsedUpdate> parsed) {
  std::vector<maint::Update> updates;
  updates.reserve(parsed.size());
  for (parser::ParsedUpdate& p : parsed) {
    maint::UpdateAtom atom{std::move(p.atom.pred), std::move(p.atom.args),
                           std::move(p.atom.constraint)};
    updates.push_back(p.is_delete
                          ? maint::Update::Delete(std::move(atom))
                          : maint::Update::Insert(std::move(atom)));
  }
  return updates;
}

// One checkpoint file (either kind) found on disk.
struct CkptFile {
  uint64_t epoch = 0;
  bool is_delta = false;
  std::string name;
};

// What loading one whole chain produced.
struct LoadedChain {
  View view;
  uint64_t head_epoch = 0;
  uint64_t full_epoch = 0;
  int ext_counter = 0;
  int64_t deltas_composed = 0;
  int64_t delta_bytes = 0;
};

}  // namespace

Result<std::unique_ptr<DurableLog>> DurableLog::Create(
    Fs* fs, const std::string& dir, const Program& program,
    const View& initial, uint64_t initial_epoch, int ext_counter,
    const DurabilityOptions& options) {
  MMV_RETURN_NOT_OK(fs->CreateDir(dir));
  MMV_ASSIGN_OR_RETURN(std::vector<std::string> names, fs->List(dir));
  for (const std::string& name : names) {
    if (ParseCheckpointFileName(name).ok() ||
        ParseDeltaCheckpointFileName(name).ok() ||
        ParseWalSegmentFileName(name).ok()) {
      return Status::AlreadyExists(
          "state directory '" + dir + "' already holds durability file '" +
          name + "' — Recover it instead of re-initializing");
    }
  }
  std::unique_ptr<DurableLog> log(new DurableLog(
      fs, dir, Crc32c(program.ToString()), options));
  log->ext_counter_ = ext_counter;
  log->next_seq_ = initial_epoch + 1;
  // The initial checkpoint is the recovery floor — always a FULL image:
  // even a directory that crashes before its first burst recovers to a
  // well-defined state with no parent to chase.
  MMV_RETURN_NOT_OK(log->Checkpoint(initial, CheckpointKind::kFull));
  return log;
}

Result<std::unique_ptr<DurableLog>> DurableLog::Recover(
    Fs* fs, const std::string& dir, Program* program,
    DcaEvaluator* evaluator, const FixpointOptions& fixpoint_options,
    SnapshotStore* snapshots, RecoveryInfo* info,
    const DurabilityOptions& options) {
  RecoveryInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = RecoveryInfo();

  std::unique_ptr<DurableLog> log(new DurableLog(
      fs, dir, Crc32c(program->ToString()), options));

  MMV_ASSIGN_OR_RETURN(std::vector<std::string> names, fs->List(dir));
  std::vector<CkptFile> ckpts;  // full AND delta frames
  std::set<uint64_t> full_epochs;
  std::set<uint64_t> delta_epochs;
  std::vector<std::pair<uint64_t, std::string>> segs;  // base, name
  for (const std::string& name : names) {
    if (EndsWith(name, ".tmp")) {
      // An in-flight checkpoint image the crash orphaned; it was never
      // renamed, so it was never state.
      MMV_RETURN_NOT_OK(fs->Remove(log->PathFor(name)));
      continue;
    }
    if (Result<uint64_t> e = ParseCheckpointFileName(name); e.ok()) {
      ckpts.push_back({*e, /*is_delta=*/false, name});
      full_epochs.insert(*e);
    } else if (Result<uint64_t> d = ParseDeltaCheckpointFileName(name);
               d.ok()) {
      ckpts.push_back({*d, /*is_delta=*/true, name});
      delta_epochs.insert(*d);
    } else if (Result<uint64_t> b = ParseWalSegmentFileName(name); b.ok()) {
      segs.emplace_back(*b, name);
    }
    // Foreign files are ignored, not deleted.
  }
  if (full_epochs.empty()) {
    return Status::NotFound("durability recovery: no full checkpoint in '" +
                            dir + "'");
  }
  // Chain heads, tried newest-first; at one epoch a full image wins over a
  // delta frame (it needs no parents).
  std::sort(ckpts.begin(), ckpts.end(),
            [](const CkptFile& a, const CkptFile& b) {
              if (a.epoch != b.epoch) return a.epoch > b.epoch;
              return a.is_delta < b.is_delta;
            });
  std::sort(segs.begin(), segs.end());
  // The newest epoch ANY checkpoint file claims in its name, valid or
  // not: recovery must reach at least this epoch or fail loudly — falling
  // back to an older chain is only legal when the WAL bridges the
  // distance.
  const uint64_t newest_claimed = ckpts.front().epoch;

  // Reads one frame and applies the per-frame checks: the decoder's
  // (CRC, epoch vs name, parent vs kind) and the program CRC. \p bytes
  // (optional) receives the file size.
  auto read_frame = [&](const CkptFile& frame, std::string* body,
                        int64_t* bytes) -> Result<CheckpointMeta> {
    MMV_ASSIGN_OR_RETURN(std::string data,
                         fs->ReadFile(log->PathFor(frame.name)));
    if (bytes != nullptr) *bytes = static_cast<int64_t>(data.size());
    MMV_ASSIGN_OR_RETURN(CheckpointMeta meta,
                         DecodeCheckpoint(frame.name, data, body));
    if (meta.program_crc != log->program_crc_) {
      return Status::InvalidArgument(
          "durability recovery refused: " + frame.name +
          " was written for a different program (clause-set CRC mismatch)");
    }
    return meta;
  };

  // Resolves and composes the chain under \p head. Corruption anywhere in
  // the chain is a ParseError (the caller falls back to the next head);
  // a program CRC mismatch or an IO failure propagates loudly.
  auto load_chain = [&](const CkptFile& head) -> Result<LoadedChain> {
    LoadedChain out;
    out.head_epoch = head.epoch;
    // Walk parent links down to a full frame. Only the chain SHAPE is
    // retained: holding every frame's body here would keep the whole chain
    // in memory at once, so the compose loop below re-reads each frame
    // oldest first and the peak stays one composed view plus one frame.
    std::vector<CkptFile> chain = {head};  // newest first
    while (chain.back().is_delta) {
      std::string body;
      int64_t bytes = 0;
      MMV_ASSIGN_OR_RETURN(CheckpointMeta meta,
                           read_frame(chain.back(), &body, &bytes));
      out.delta_bytes += bytes;
      const uint64_t parent = *meta.parent;
      if (full_epochs.count(parent) > 0) {
        chain.push_back({parent, /*is_delta=*/false,
                         CheckpointFileName(parent)});
      } else if (delta_epochs.count(parent) > 0) {
        chain.push_back({parent, /*is_delta=*/true,
                         DeltaCheckpointFileName(parent)});
      } else {
        return Status::ParseError(
            "checkpoint chain is missing its parent at epoch " +
            std::to_string(parent));
      }
    }
    out.full_epoch = chain.back().epoch;

    // Compose from the empty state: the full frame is the delta against
    // the empty image, every later frame a delta against its parent. The
    // walk validated the deltas already; re-decoding revalidates for free
    // (the file could in principle change between the reads).
    ComposedState state;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      std::string body;
      MMV_ASSIGN_OR_RETURN(CheckpointMeta meta,
                           read_frame(*it, &body, /*bytes=*/nullptr));
      MMV_RETURN_NOT_OK(ApplyDeltaBody(body, program, meta, &state));
      out.ext_counter = meta.ext_counter;
    }
    out.deltas_composed = static_cast<int64_t>(chain.size()) - 1;
    MMV_ASSIGN_OR_RETURN(out.view, BuildView(&state));
    return out;
  };

  LoadedChain chain;
  bool loaded = false;
  for (const CkptFile& head : ckpts) {
    Result<LoadedChain> attempt = load_chain(head);
    if (attempt.ok()) {
      chain = std::move(*attempt);
      loaded = true;
      break;
    }
    if (attempt.status().code() != StatusCode::kParseError) {
      // IO failure or program mismatch: not corruption, no fallback.
      return attempt.status();
    }
    ++info->checkpoints_skipped;
  }
  if (!loaded) {
    return Status::ParseError(
        "durability recovery failed: none of the " +
        std::to_string(ckpts.size()) + " checkpoint chain(s) in '" + dir +
        "' validates");
  }

  View view = std::move(chain.view);
  log->ext_counter_ = chain.ext_counter;
  log->next_seq_ = chain.head_epoch + 1;
  log->last_checkpoint_epoch_ = chain.head_epoch;
  log->checkpoints_since_full_ =
      static_cast<uint64_t>(chain.deltas_composed);
  // The recomposed image seeds the delta parent AND the snapshot store:
  // one extraction, shared by both consumers, exactly like the live path.
  log->last_checkpoint_image_ = view.ExtractImage();
  info->checkpoint_epoch = chain.head_epoch;
  info->full_checkpoint_epoch = chain.full_epoch;
  info->delta_checkpoints_composed = chain.deltas_composed;
  info->checkpoint_delta_bytes = chain.delta_bytes;
  if (snapshots != nullptr) {
    // Re-seat the store at the checkpoint epoch; each replayed burst then
    // publishes the next epoch, finishing exactly where the pre-crash
    // store stood.
    snapshots->RestoreAtImage(log->last_checkpoint_image_, chain.head_epoch);
  }

  // Replay: segments below the loaded chain head hold only records it
  // already covers (a segment closes at the checkpoint that starts its
  // successor), so the scan starts at base == the head epoch. Only the
  // final segment may end in a torn record.
  const uint64_t head_epoch = chain.head_epoch;
  std::vector<std::pair<uint64_t, std::string>> relevant;
  for (const auto& s : segs) {
    if (s.first >= head_epoch) relevant.push_back(s);
  }
  uint64_t expected = head_epoch + 1;
  uint64_t open_base = head_epoch;
  uint64_t open_bytes = 0;
  for (size_t i = 0; i < relevant.size(); ++i) {
    const bool is_last = i + 1 == relevant.size();
    const std::string path = log->PathFor(relevant[i].second);
    MMV_ASSIGN_OR_RETURN(std::string data, fs->ReadFile(path));
    MMV_ASSIGN_OR_RETURN(
        WalScan scan,
        ScanWalSegment(data, relevant[i].second, /*tolerate_torn_tail=*/is_last));
    if (scan.torn_bytes > 0) {
      // Physically drop the torn tail so the reopened segment appends
      // over clean bytes.
      MMV_RETURN_NOT_OK(fs->Truncate(path, scan.valid_bytes));
      info->torn_tail_bytes += scan.torn_bytes;
    }
    for (WalRecord& record : scan.records) {
      if (record.seq <= head_epoch) {
        // The checkpoint already contains this burst's effect (it was
        // written AFTER the record, before the old segment closed).
        ++info->skipped_records;
        continue;
      }
      if (record.seq != expected) {
        return Status::ParseError(
            "WAL corruption in " + relevant[i].second +
            ": expected seq " + std::to_string(expected) + ", found " +
            std::to_string(record.seq));
      }
      MMV_ASSIGN_OR_RETURN(std::vector<parser::ParsedUpdate> parsed,
                           parser::ParseBurst(record.payload, program));
      maint::BatchStats batch_stats;
      MMV_RETURN_NOT_OK(maint::ApplyBatch(
          *program, &view, ToUpdates(std::move(parsed)), evaluator,
          fixpoint_options, &batch_stats, &log->ext_counter_, snapshots,
          /*log=*/nullptr));
      info->replay_stats += batch_stats;
      ++info->replayed_bursts;
      ++expected;
    }
    open_base = relevant[i].first;
    open_bytes = scan.valid_bytes;
  }
  log->next_seq_ = expected;
  info->recovered_epoch = expected - 1;
  info->ext_counter = log->ext_counter_;

  if (info->recovered_epoch < newest_claimed) {
    return Status::ParseError(
        "durability recovery failed: newest checkpoint file claims epoch " +
        std::to_string(newest_claimed) + " but checkpoint + WAL only " +
        "reach epoch " + std::to_string(info->recovered_epoch) +
        " — refusing to silently lose committed bursts");
  }

  MMV_RETURN_NOT_OK(log->OpenSegment(open_base, open_bytes));
  log->records_since_checkpoint_ =
      info->recovered_epoch - log->last_checkpoint_epoch_;
  log->recovered_view_ = std::move(view);
  return log;
}

Status DurableLog::LogBurst(const std::vector<maint::Update>& updates) {
  if (poisoned_) {
    return Status::Internal(
        "durable log poisoned by an earlier IO failure — Recover() the "
        "state directory before applying further bursts");
  }
  if (pending_) {
    return Status::Internal("durable log already holds a pending burst");
  }
  std::string payload = parser::SerializeBurst(ToParsed(updates));
  MMV_RETURN_NOT_OK(wal_->Append(next_seq_, payload));
  pending_ = true;
  return Status::OK();
}

Status DurableLog::CommitBurst(const SnapshotImageHandle& image,
                               maint::BatchStats* stats) {
  if (!pending_) {
    return Status::Internal("durable log has no pending burst to commit");
  }
  uint64_t bytes = 0;
  bool synced = false;
  Status committed = wal_->Commit(&bytes, &synced);
  pending_ = false;
  if (!committed.ok()) {
    // The record's durability is unknown (e.g. the sync failed after the
    // append): refuse further logging until recovery re-establishes it.
    poisoned_ = true;
    return committed;
  }
  ++next_seq_;
  ++records_since_checkpoint_;
  if (stats != nullptr) {
    stats->wal_records += 1;
    stats->wal_bytes += static_cast<int64_t>(bytes);
    stats->wal_syncs += synced ? 1 : 0;
  }
  if (options_.checkpoint_every_records > 0 &&
      records_since_checkpoint_ >= options_.checkpoint_every_records) {
    int64_t delta_bytes = 0;
    MMV_RETURN_NOT_OK(
        WriteCheckpoint(image, CheckpointKind::kAuto, &delta_bytes));
    if (stats != nullptr) {
      stats->checkpoints_written += 1;
      stats->checkpoint_delta_bytes += delta_bytes;
    }
  }
  return Status::OK();
}

void DurableLog::AbortBurst() {
  if (!pending_) return;
  pending_ = false;
  Status rolled_back = wal_->Abort();
  if (!rolled_back.ok()) {
    // The segment tail is in an unknown state; appending more records
    // over it could interleave garbage into the log.
    poisoned_ = true;
  }
}

Status DurableLog::Checkpoint(const View& view, CheckpointKind kind) {
  return WriteCheckpoint(view.ExtractImage(), kind, nullptr);
}

Status DurableLog::WriteCheckpoint(SnapshotImageHandle image,
                                   CheckpointKind kind,
                                   int64_t* delta_bytes) {
  if (delta_bytes != nullptr) *delta_bytes = 0;
  if (image == nullptr) {
    return Status::InvalidArgument("checkpoint requested with a null image");
  }
  if (pending_) {
    return Status::Internal(
        "checkpoint requested mid-batch: the image would not match the "
        "committed record stream");
  }
  if (poisoned_) {
    return Status::Internal(
        "durable log poisoned by an earlier IO failure — Recover() first");
  }
  const uint64_t epoch = next_seq_ - 1;
  const bool have_parent =
      last_checkpoint_image_ != nullptr && checkpoints_written_ > 0;
  // A delta must parent a DIFFERENT, older checkpoint: with no parent on
  // record, or when the epoch did not advance (a same-epoch rewrite), the
  // frame must be full whatever the cadence says.
  bool full = kind == CheckpointKind::kFull || !have_parent ||
              epoch == last_checkpoint_epoch_;
  if (!full && kind == CheckpointKind::kAuto) {
    full = options_.full_checkpoint_interval <= 1 ||
           checkpoints_since_full_ + 1 >= options_.full_checkpoint_interval;
  }

  // One frame format: a full frame is the delta against the empty image.
  static const SnapshotImage kEmptyImage;
  CheckpointMeta meta;
  meta.epoch = epoch;
  if (!full) meta.parent = last_checkpoint_epoch_;
  meta.ext_counter = ext_counter_;
  meta.program_crc = program_crc_;
  meta.wal_offset = wal_ != nullptr ? wal_->end_offset() : 0;
  meta.atoms = image->atom_count;
  const std::string file = EncodeCheckpoint(
      meta, BuildDeltaBody(full ? kEmptyImage : *last_checkpoint_image_,
                           *image));
  const std::string final_path = PathFor(
      full ? CheckpointFileName(epoch) : DeltaCheckpointFileName(epoch));
  if (!full && delta_bytes != nullptr) {
    *delta_bytes = static_cast<int64_t>(file.size());
  }

  const std::string tmp_path = final_path + ".tmp";
  MMV_RETURN_NOT_OK(fs_->WriteFile(tmp_path, file));
  MMV_RETURN_NOT_OK(fs_->Sync(tmp_path));
  // The publication point: a crash before this rename leaves the previous
  // checkpoint + WAL authoritative, a crash after it leaves the new one.
  MMV_RETURN_NOT_OK(fs_->Rename(tmp_path, final_path));
  if (full) {
    // A full rewrite at an epoch supersedes any delta frame that epoch
    // previously got (e.g. cadence delta, then an explicit checkpoint);
    // Remove is idempotent, so no existence probe is needed.
    MMV_RETURN_NOT_OK(fs_->Remove(PathFor(DeltaCheckpointFileName(epoch))));
  }

  MMV_RETURN_NOT_OK(OpenSegment(epoch, 0));
  last_checkpoint_bytes_ = file.size();
  last_checkpoint_epoch_ = epoch;
  last_checkpoint_image_ = std::move(image);
  records_since_checkpoint_ = 0;
  ++checkpoints_written_;
  if (full) {
    checkpoints_since_full_ = 0;
  } else {
    ++checkpoints_since_full_;
    ++delta_checkpoints_written_;
  }
  return CollectGarbage();
}

Status DurableLog::OpenSegment(uint64_t base, uint64_t existing_bytes) {
  const std::string path = PathFor(WalSegmentFileName(base));
  if (existing_bytes == 0) {
    // Materialize the empty segment eagerly so the directory always names
    // the segment its newest checkpoint starts.
    MMV_RETURN_NOT_OK(fs_->WriteFile(path, ""));
  }
  wal_ = std::make_unique<Wal>(fs_, path, options_.sync, options_.sync_bytes,
                               existing_bytes);
  return Status::OK();
}

Status DurableLog::CollectGarbage() {
  MMV_ASSIGN_OR_RETURN(std::vector<std::string> names, fs_->List(dir_));
  std::vector<uint64_t> full_epochs;
  std::vector<std::pair<uint64_t, std::string>> deltas;
  std::vector<std::pair<uint64_t, std::string>> segs;
  for (const std::string& name : names) {
    if (Result<uint64_t> e = ParseCheckpointFileName(name); e.ok()) {
      full_epochs.push_back(*e);
    } else if (Result<uint64_t> d = ParseDeltaCheckpointFileName(name);
               d.ok()) {
      deltas.emplace_back(*d, name);
    } else if (Result<uint64_t> b = ParseWalSegmentFileName(name); b.ok()) {
      segs.emplace_back(*b, name);
    }
  }
  std::sort(full_epochs.begin(), full_epochs.end());
  const size_t keep = static_cast<size_t>(
      std::max(1, options_.keep_checkpoints));
  if (full_epochs.size() <= keep) return Status::OK();
  // Retention counts FULL images only: everything below the oldest
  // retained full is collectable — its checkpoints are superseded and its
  // segments hold only records the retained images already cover. Delta
  // frames above the floor always chain down to a full >= the floor (a
  // delta's parent run bottoms at the newest full below it, and the floor
  // IS a full), so no retained chain ever dangles.
  const uint64_t floor = full_epochs[full_epochs.size() - keep];
  for (size_t i = 0; i + keep < full_epochs.size(); ++i) {
    MMV_RETURN_NOT_OK(
        fs_->Remove(PathFor(CheckpointFileName(full_epochs[i]))));
  }
  for (const auto& [epoch, name] : deltas) {
    if (epoch <= floor) {
      MMV_RETURN_NOT_OK(fs_->Remove(PathFor(name)));
    }
  }
  for (const auto& [base, name] : segs) {
    if (base < floor) {
      MMV_RETURN_NOT_OK(fs_->Remove(PathFor(name)));
    }
  }
  return Status::OK();
}

}  // namespace durability
}  // namespace mmv
