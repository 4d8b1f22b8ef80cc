#include "durability/durable_log.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/crc32c.h"
#include "parser/view_io.h"

namespace mmv {
namespace durability {

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

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

Result<uint64_t> ParseU64(std::string_view s, std::string_view what) {
  if (s.empty()) {
    return Status::ParseError("delta checkpoint: empty " + std::string(what));
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::ParseError("delta checkpoint: bad " + std::string(what) +
                                " '" + std::string(s) + "'");
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

// ---------------------------------------------------------------------------
// Delta checkpoint bodies. A delta frame records, against its PARENT's
// composed image: the predicates that vanished, the full new contents of
// every segment that changed (detected by shared_ptr identity — a shared
// segment is bit-identical by construction), and the new global atom order
// as a kept-prefix length plus (pred, count) runs. Within one predicate
// the global order equals segment order, so runs need no offsets.

// Content fingerprint of a segment's canonical serialization, cached on
// the segment (see SnapshotImage::Segment). FNV-1a; 0 is reserved for
// "not computed", so a genuine 0 hash is nudged to 1.
uint64_t SegmentFingerprint(const SnapshotImage::Segment& seg) {
  uint64_t cached = seg.fingerprint.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  std::string bytes = parser::SerializeAtoms(seg);
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  if (h == 0) h = 1;
  seg.fingerprint.store(h, std::memory_order_relaxed);
  return h;
}

std::string BuildDeltaBody(const SnapshotImage& parent,
                           const SnapshotImage& child) {
  std::ostringstream os;
  std::vector<Symbol> removed;
  for (const auto& [pred, seg] : parent.segments) {
    if (child.segments.find(pred) == child.segments.end()) {
      removed.push_back(pred);
    }
  }
  std::sort(removed.begin(), removed.end());  // name order: deterministic
  for (Symbol pred : removed) os << "removed " << pred.name() << "\n";

  std::vector<Symbol> changed;
  for (const auto& [pred, seg] : child.segments) {
    auto it = parent.segments.find(pred);
    if (it == parent.segments.end()) {
      changed.push_back(pred);
      continue;
    }
    // Shared pointer: bit-identical by construction. Distinct pointers: a
    // fully-canceling burst re-materializes the segment with unchanged
    // content, so compare fingerprints and — on a match, since the hash
    // alone could collide — bytes, before paying for a frame member.
    // Composition then keeps the parent's equal-content segment.
    if (it->second == seg) continue;
    if (SegmentFingerprint(*it->second) == SegmentFingerprint(*seg) &&
        parser::SerializeAtoms(*it->second) == parser::SerializeAtoms(*seg)) {
      continue;
    }
    changed.push_back(pred);
  }
  std::sort(changed.begin(), changed.end());
  for (Symbol pred : changed) {
    const SnapshotImage::Segment& seg = *child.segments.at(pred);
    os << "seg " << pred.name() << " " << seg.size() << "\n";
    os << parser::SerializeAtoms(seg);
  }

  // Order: the chunk-pointer prefix both images share needs no re-listing.
  uint64_t keep = 0;
  size_t shared_chunks = 0;
  while (shared_chunks < child.order.size() &&
         shared_chunks < parent.order.size() &&
         child.order[shared_chunks].runs == parent.order[shared_chunks].runs) {
    keep += child.order[shared_chunks].atoms;
    ++shared_chunks;
  }
  os << "order keep " << keep << "\n";
  Symbol run_pred;
  uint64_t run_count = 0;
  auto flush_run = [&] {
    if (run_count > 0) {
      os << "order run " << run_pred.name() << " " << run_count << "\n";
    }
  };
  for (size_t c = shared_chunks; c < child.order.size(); ++c) {
    for (const SnapshotImage::OrderRun& run : *child.order[c].runs) {
      if (run_count > 0 && run.pred == run_pred) {
        run_count += run.count;
      } else {
        flush_run();
        run_pred = run.pred;
        run_count = run.count;
      }
    }
  }
  flush_run();
  return os.str();
}

// The working state a checkpoint chain composes into: mutable per-pred
// segments plus the flattened global-order runs.
struct ComposedState {
  std::unordered_map<Symbol, std::vector<ViewAtom>> segments;
  std::vector<SnapshotImage::OrderRun> order;
};

Result<ComposedState> FromFullBody(const std::string& body,
                                   Program* program) {
  MMV_ASSIGN_OR_RETURN(View tmp, parser::DeserializeView(body, program));
  ComposedState state;
  std::vector<ViewAtom> atoms = tmp.TakeAtoms();
  for (ViewAtom& a : atoms) {
    if (!state.order.empty() && state.order.back().pred == a.pred) {
      state.order.back().count++;
    } else {
      state.order.push_back({a.pred, 1});
    }
    state.segments[a.pred].push_back(std::move(a));
  }
  return state;
}

// Line cursor over a delta body; keeps byte offsets so a seg section's raw
// text can be sliced out for DeserializeView.
struct LineCursor {
  std::string_view text;
  size_t at = 0;
  bool Next(std::string_view* line) {
    if (at >= text.size()) return false;
    size_t eol = text.find('\n', at);
    if (eol == std::string_view::npos) {
      *line = text.substr(at);
      at = text.size();
    } else {
      *line = text.substr(at, eol - at);
      at = eol + 1;
    }
    return true;
  }
};

// Splits "name count" (count = trailing integer field).
Result<std::pair<Symbol, uint64_t>> ParsePredCount(std::string_view rest,
                                                   std::string_view what) {
  size_t sp = rest.rfind(' ');
  if (sp == std::string_view::npos || sp == 0) {
    return Status::ParseError("delta checkpoint: malformed " +
                              std::string(what) + " line");
  }
  MMV_ASSIGN_OR_RETURN(uint64_t count, ParseU64(rest.substr(sp + 1), what));
  return std::make_pair(Symbol(rest.substr(0, sp)), count);
}

// Applies one delta frame's body over \p state. Strict: any structural
// surprise (unknown removed pred, truncated section, order mismatch, atom
// count disagreeing with the header) is corruption, reported as a
// ParseError so recovery abandons this chain and falls back.
Status ApplyDeltaBody(std::string_view body, Program* program,
                      const DeltaCheckpointMeta& meta, ComposedState* state) {
  LineCursor cur{body};
  std::string_view line;
  bool have_line = cur.Next(&line);

  while (have_line && StartsWith(line, "removed ")) {
    Symbol pred(line.substr(8));
    if (state->segments.erase(pred) == 0) {
      return Status::ParseError(
          "delta checkpoint removes unknown predicate '" + pred.name() + "'");
    }
    have_line = cur.Next(&line);
  }

  while (have_line && StartsWith(line, "seg ")) {
    MMV_ASSIGN_OR_RETURN(auto pred_count,
                         ParsePredCount(line.substr(4), "seg count"));
    const auto [pred, count] = pred_count;
    size_t start = cur.at;
    for (uint64_t i = 0; i < count; ++i) {
      if (!cur.Next(&line)) {
        return Status::ParseError(
            "delta checkpoint: seg section for '" + pred.name() +
            "' truncated");
      }
    }
    MMV_ASSIGN_OR_RETURN(
        View tmp,
        parser::DeserializeView(body.substr(start, cur.at - start), program));
    std::vector<ViewAtom> seg = tmp.TakeAtoms();
    if (seg.size() != count) {
      return Status::ParseError("delta checkpoint: seg section for '" +
                                pred.name() + "' parsed to a different count");
    }
    for (const ViewAtom& a : seg) {
      if (a.pred != pred) {
        return Status::ParseError(
            "delta checkpoint: seg section for '" + pred.name() +
            "' holds an atom of '" + a.pred.name() + "'");
      }
    }
    state->segments[pred] = std::move(seg);
    have_line = cur.Next(&line);
  }

  if (!have_line || !StartsWith(line, "order keep ")) {
    return Status::ParseError(
        "delta checkpoint: missing 'order keep' line");
  }
  MMV_ASSIGN_OR_RETURN(uint64_t keep,
                       ParseU64(line.substr(11), "order keep"));
  std::vector<SnapshotImage::OrderRun> new_order;
  uint64_t remaining = keep;
  for (const SnapshotImage::OrderRun& run : state->order) {
    if (remaining == 0) break;
    uint64_t take = std::min<uint64_t>(run.count, remaining);
    if (!new_order.empty() && new_order.back().pred == run.pred) {
      new_order.back().count += take;
    } else {
      new_order.push_back({run.pred, take});
    }
    remaining -= take;
  }
  if (remaining > 0) {
    return Status::ParseError(
        "delta checkpoint: 'order keep' exceeds the parent's atom order");
  }
  while (cur.Next(&line)) {
    if (!StartsWith(line, "order run ")) {
      return Status::ParseError("delta checkpoint: unexpected line '" +
                                std::string(line) + "'");
    }
    MMV_ASSIGN_OR_RETURN(auto pred_count,
                         ParsePredCount(line.substr(10), "order run"));
    const auto [pred, count] = pred_count;
    if (!new_order.empty() && new_order.back().pred == pred) {
      new_order.back().count += count;
    } else {
      new_order.push_back({pred, count});
    }
  }
  state->order = std::move(new_order);

  uint64_t order_total = 0;
  for (const SnapshotImage::OrderRun& run : state->order) {
    order_total += run.count;
  }
  uint64_t segment_total = 0;
  for (const auto& [pred, seg] : state->segments) {
    segment_total += seg.size();
  }
  if (order_total != segment_total || order_total != meta.atoms) {
    return Status::ParseError(
        "delta checkpoint: composed atom counts disagree (order " +
        std::to_string(order_total) + ", segments " +
        std::to_string(segment_total) + ", header " +
        std::to_string(meta.atoms) + ")");
  }
  return Status::OK();
}

// Materializes the composed state into a View, re-Adding atoms in the
// recorded global order (the order is load-bearing: continued maintenance
// is byte-identical only if the rebuilt view enumerates like the original).
// Consumes \p state: atoms are MOVED into the view per-pred as the order
// cursor passes them, so the peak is one view plus segment shells — not
// the composed state and a full copy side by side.
Result<View> BuildView(ComposedState* state) {
  View view;
  std::unordered_map<Symbol, size_t> cursor;
  for (const SnapshotImage::OrderRun& run : state->order) {
    auto it = state->segments.find(run.pred);
    if (it == state->segments.end()) {
      return Status::ParseError(
          "delta checkpoint: atom order names unknown predicate '" +
          run.pred.name() + "'");
    }
    size_t& at = cursor[run.pred];
    if (at + run.count > it->second.size()) {
      return Status::ParseError(
          "delta checkpoint: atom order overruns the segment of '" +
          run.pred.name() + "'");
    }
    for (uint64_t i = 0; i < run.count; ++i) {
      view.Add(std::move(it->second[at++]));
    }
  }
  for (const auto& [pred, seg] : state->segments) {
    auto it = cursor.find(pred);
    if (it == cursor.end() || it->second != seg.size()) {
      return Status::ParseError(
          "delta checkpoint: atom order does not cover the segment of '" +
          pred.name() + "'");
    }
  }
  return view;
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

  // Resolves and composes the chain under \p head. Corruption anywhere in
  // the chain is a ParseError (the caller falls back to the next head);
  // a program fingerprint mismatch or an IO failure propagates loudly.
  auto load_chain = [&](const CkptFile& head) -> Result<LoadedChain> {
    LoadedChain out;
    out.head_epoch = head.epoch;
    // Walk parent links down to a full image, newest last. Only the chain
    // SHAPE (epochs) is retained: holding every frame's decoded body here
    // would keep the whole chain in memory at once, so the compose loop
    // below re-reads each file in parent-first order instead and the peak
    // stays one composed view plus a single frame.
    std::vector<uint64_t> delta_epochs_newest_first;
    uint64_t cursor_epoch = head.epoch;
    bool cursor_delta = head.is_delta;
    while (cursor_delta) {
      MMV_ASSIGN_OR_RETURN(
          std::string data,
          fs->ReadFile(log->PathFor(DeltaCheckpointFileName(cursor_epoch))));
      std::string body;
      MMV_ASSIGN_OR_RETURN(DeltaCheckpointMeta meta,
                           DecodeDeltaCheckpoint(data, &body));
      if (meta.program_crc != log->program_crc_) {
        return Status::InvalidArgument(
            "durability recovery refused: delta checkpoint was written for "
            "a different program (clause-set fingerprint mismatch)");
      }
      if (meta.epoch != cursor_epoch || meta.parent >= cursor_epoch) {
        return Status::ParseError(
            "delta checkpoint " + DeltaCheckpointFileName(cursor_epoch) +
            " header disagrees with its name or parents forward");
      }
      out.delta_bytes += static_cast<int64_t>(data.size());
      delta_epochs_newest_first.push_back(cursor_epoch);
      cursor_epoch = meta.parent;
      if (full_epochs.count(cursor_epoch) > 0) {
        cursor_delta = false;
      } else if (delta_epochs.count(cursor_epoch) > 0) {
        cursor_delta = true;
      } else {
        return Status::ParseError(
            "delta checkpoint chain is missing its parent at epoch " +
            std::to_string(cursor_epoch));
      }
    }

    ComposedState state;
    {
      // Scoped so the full body's bytes are released before any delta
      // frame is read back.
      MMV_ASSIGN_OR_RETURN(
          std::string data,
          fs->ReadFile(log->PathFor(CheckpointFileName(cursor_epoch))));
      std::string full_body;
      CheckpointMeta full_meta;
      MMV_ASSIGN_OR_RETURN(full_meta, DecodeCheckpoint(data, &full_body));
      if (full_meta.program_crc != log->program_crc_) {
        return Status::InvalidArgument(
            "durability recovery refused: checkpoint was written for a "
            "different program (clause-set fingerprint mismatch)");
      }
      out.full_epoch = cursor_epoch;
      data.clear();
      data.shrink_to_fit();
      MMV_ASSIGN_OR_RETURN(state, FromFullBody(full_body, program));
      out.ext_counter = full_meta.ext_counter;
    }
    for (auto it = delta_epochs_newest_first.rbegin();
         it != delta_epochs_newest_first.rend(); ++it) {
      MMV_ASSIGN_OR_RETURN(
          std::string data,
          fs->ReadFile(log->PathFor(DeltaCheckpointFileName(*it))));
      std::string body;
      // The walk above already validated this frame's header and CRC; the
      // re-decode revalidates for free (the file could in principle change
      // between the reads).
      MMV_ASSIGN_OR_RETURN(DeltaCheckpointMeta meta,
                           DecodeDeltaCheckpoint(data, &body));
      data.clear();
      data.shrink_to_fit();
      MMV_RETURN_NOT_OK(ApplyDeltaBody(body, program, meta, &state));
      out.ext_counter = meta.ext_counter;
      ++out.deltas_composed;
    }
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
  log->bytes_since_checkpoint_ = log->wal_->end_offset();
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
  bytes_since_checkpoint_ += bytes;
  if (stats != nullptr) {
    stats->wal_records += 1;
    stats->wal_bytes += static_cast<int64_t>(bytes);
    stats->wal_syncs += synced ? 1 : 0;
  }
  const bool checkpoint_due =
      (options_.checkpoint_every_records > 0 &&
       records_since_checkpoint_ >= options_.checkpoint_every_records) ||
      (options_.checkpoint_every_bytes > 0 &&
       bytes_since_checkpoint_ >= options_.checkpoint_every_bytes);
  if (checkpoint_due) {
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
  return CheckpointImage(view.ExtractImage(), kind);
}

Status DurableLog::CheckpointImage(SnapshotImageHandle image,
                                   CheckpointKind kind) {
  return WriteCheckpoint(std::move(image), kind, nullptr);
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

  std::string file;
  std::string final_path;
  if (full) {
    CheckpointMeta meta;
    meta.epoch = epoch;
    meta.ext_counter = ext_counter_;
    meta.program_crc = program_crc_;
    meta.wal_offset = wal_ != nullptr ? wal_->end_offset() : 0;
    meta.atoms = image->atom_count;
    file = EncodeCheckpoint(meta, parser::SerializeImage(*image));
    final_path = PathFor(CheckpointFileName(epoch));
  } else {
    DeltaCheckpointMeta meta;
    meta.epoch = epoch;
    meta.parent = last_checkpoint_epoch_;
    meta.ext_counter = ext_counter_;
    meta.program_crc = program_crc_;
    meta.wal_offset = wal_ != nullptr ? wal_->end_offset() : 0;
    meta.atoms = image->atom_count;
    file = EncodeDeltaCheckpoint(meta,
                                 BuildDeltaBody(*last_checkpoint_image_,
                                                *image));
    final_path = PathFor(DeltaCheckpointFileName(epoch));
    if (delta_bytes != nullptr) {
      *delta_bytes = static_cast<int64_t>(file.size());
    }
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
  bytes_since_checkpoint_ = 0;
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
