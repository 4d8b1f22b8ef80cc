#include "durability/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/crc32c.h"
#include "common/strings.h"
#include "parser/view_io.h"

namespace mmv {
namespace durability {

namespace {

constexpr char kMagic[] = "mmv-checkpoint v2";
constexpr char kSeparator[] = "---\n";

std::string Hex32(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

std::string Padded(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020" PRIu64, v);
  return buf;
}

// Exactly 8 lowercase hex digits, as Hex32 writes them: an uppercase digit
// would parse to the same value from different bytes.
Result<uint32_t> ParseHex32(std::string_view s, std::string_view what) {
  if (s.size() != 8 ||
      s.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return Status::ParseError("checkpoint: bad " + std::string(what) + " '" +
                              std::string(s) + "'");
  }
  uint32_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v, 16);
  return v;
}

// Reads one "key value\n" line at *at, returning the value or an error.
Result<std::string_view> TakeField(std::string_view file, size_t* at,
                                   std::string_view key) {
  size_t eol = file.find('\n', *at);
  if (eol == std::string_view::npos) {
    return Status::ParseError("checkpoint header truncated at field '" +
                              std::string(key) + "'");
  }
  std::string_view line = file.substr(*at, eol - *at);
  if (line.size() < key.size() + 2 || !StartsWith(line, key) ||
      line[key.size()] != ' ') {
    return Status::ParseError("checkpoint header: expected field '" +
                              std::string(key) + "', got '" +
                              std::string(line) + "'");
  }
  *at = eol + 1;
  return line.substr(key.size() + 1);
}

Result<uint64_t> ParseNamed(std::string_view name, std::string_view prefix,
                            std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !StartsWith(name, prefix) || !EndsWith(name, suffix)) {
    return Status::ParseError("not a durability file name: " +
                              std::string(name));
  }
  return ParseDecimal<uint64_t>(
      name.substr(prefix.size(),
                  name.size() - prefix.size() - suffix.size()),
      "file name epoch");
}

// Line cursor over a frame body; keeps byte offsets so a seg section's raw
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
    return Status::ParseError("checkpoint: malformed " + std::string(what) +
                              " line");
  }
  MMV_ASSIGN_OR_RETURN(uint64_t count,
                       ParseDecimal<uint64_t>(rest.substr(sp + 1), what));
  return std::make_pair(Symbol(rest.substr(0, sp)), count);
}

// Appends \p count atoms of \p pred to \p order, merging with a trailing
// run of the same pred. \p total tracks the order's atom count and may
// never pass \p limit (the header's atom count), so no sum can wrap.
Status AppendRun(Symbol pred, uint64_t count, uint64_t limit,
                 uint64_t* total, std::vector<SnapshotImage::OrderRun>* order) {
  if (count > limit - *total) {
    return Status::ParseError(
        "checkpoint: atom order exceeds the header's atom count");
  }
  *total += count;
  if (!order->empty() && order->back().pred == pred) {
    order->back().count += count;
  } else {
    order->push_back({pred, count});
  }
  return Status::OK();
}

}  // namespace

std::string EncodeCheckpoint(const CheckpointMeta& meta,
                             std::string_view body) {
  std::string header;
  header += kMagic;
  header += '\n';
  header += "epoch " + std::to_string(meta.epoch) + "\n";
  header += "parent " +
            (meta.parent ? std::to_string(*meta.parent) : "none") + "\n";
  header += "ext_counter " + std::to_string(meta.ext_counter) + "\n";
  header += "program " + Hex32(meta.program_crc) + "\n";
  header += "wal_offset " + std::to_string(meta.wal_offset) + "\n";
  header += "atoms " + std::to_string(meta.atoms) + "\n";
  // Whole-file checksum: every byte except the checksum line itself.
  uint32_t crc = Crc32cExtend(Crc32cExtend(Crc32c(header), kSeparator), body);
  std::string out;
  out.reserve(header.size() + 16 + sizeof(kSeparator) + body.size());
  out += header;
  out += "checksum " + Hex32(crc) + "\n";
  out += kSeparator;
  out.append(body);
  return out;
}

Result<CheckpointMeta> DecodeCheckpoint(std::string_view name,
                                        std::string_view file,
                                        std::string* body) {
  size_t at = 0;
  size_t magic_eol = file.find('\n');
  if (magic_eol == std::string_view::npos ||
      file.substr(0, magic_eol) != kMagic) {
    return Status::ParseError("not a checkpoint file (bad magic)");
  }
  at = magic_eol + 1;

  CheckpointMeta meta;
  MMV_ASSIGN_OR_RETURN(std::string_view epoch_s,
                       TakeField(file, &at, "epoch"));
  MMV_ASSIGN_OR_RETURN(meta.epoch, ParseDecimal<uint64_t>(epoch_s, "epoch"));
  MMV_ASSIGN_OR_RETURN(std::string_view parent_s,
                       TakeField(file, &at, "parent"));
  if (parent_s != "none") {
    MMV_ASSIGN_OR_RETURN(meta.parent,
                         ParseDecimal<uint64_t>(parent_s, "parent"));
  }
  MMV_ASSIGN_OR_RETURN(std::string_view counter_s,
                       TakeField(file, &at, "ext_counter"));
  MMV_ASSIGN_OR_RETURN(meta.ext_counter,
                       ParseDecimal<int>(counter_s, "ext_counter"));
  MMV_ASSIGN_OR_RETURN(std::string_view program_s,
                       TakeField(file, &at, "program"));
  MMV_ASSIGN_OR_RETURN(meta.program_crc, ParseHex32(program_s, "program"));
  MMV_ASSIGN_OR_RETURN(std::string_view offset_s,
                       TakeField(file, &at, "wal_offset"));
  MMV_ASSIGN_OR_RETURN(meta.wal_offset,
                       ParseDecimal<uint64_t>(offset_s, "wal_offset"));
  MMV_ASSIGN_OR_RETURN(std::string_view atoms_s,
                       TakeField(file, &at, "atoms"));
  MMV_ASSIGN_OR_RETURN(meta.atoms, ParseDecimal<uint64_t>(atoms_s, "atoms"));

  size_t checksum_at = at;
  MMV_ASSIGN_OR_RETURN(std::string_view checksum_s,
                       TakeField(file, &at, "checksum"));
  MMV_ASSIGN_OR_RETURN(uint32_t expected, ParseHex32(checksum_s, "checksum"));

  std::string_view tail = file.substr(at);  // "---\n" + body
  if (!StartsWith(tail, kSeparator)) {
    return Status::ParseError("checkpoint missing '---' separator");
  }
  uint32_t actual =
      Crc32cExtend(Crc32c(file.substr(0, checksum_at)), tail);
  if (actual != expected) {
    return Status::ParseError("checkpoint checksum mismatch (file is torn "
                              "or corrupt)");
  }

  // The name carries the epoch and the kind; the header must agree.
  Result<uint64_t> named = ParseCheckpointFileName(name);
  const bool named_full = named.ok();
  if (!named_full) named = ParseDeltaCheckpointFileName(name);
  if (!named.ok()) return named.status();
  if (*named != meta.epoch) {
    return Status::ParseError("checkpoint " + std::string(name) +
                              " holds epoch " + std::to_string(meta.epoch));
  }
  if (named_full == meta.parent.has_value()) {
    return Status::ParseError(
        "checkpoint " + std::string(name) +
        (named_full ? " is full but names a parent" : " names no parent"));
  }
  if (meta.parent && *meta.parent >= meta.epoch) {
    return Status::ParseError("checkpoint " + std::string(name) +
                              " parents forward to epoch " +
                              std::to_string(*meta.parent));
  }
  *body = std::string(tail.substr(sizeof(kSeparator) - 1));
  return meta;
}

std::string BuildDeltaBody(const SnapshotImage& base,
                           const SnapshotImage& image) {
  std::ostringstream os;
  std::vector<Symbol> removed;
  for (const auto& [pred, seg] : base.segments) {
    if (image.segments.find(pred) == image.segments.end()) {
      removed.push_back(pred);
    }
  }
  std::sort(removed.begin(), removed.end());  // name order: deterministic
  for (Symbol pred : removed) os << "removed " << pred.name() << "\n";

  std::vector<Symbol> preds;
  preds.reserve(image.segments.size());
  for (const auto& [pred, seg] : image.segments) preds.push_back(pred);
  std::sort(preds.begin(), preds.end());
  for (Symbol pred : preds) {
    const SnapshotImage::SegmentHandle& seg = image.segments.at(pred);
    SnapshotImage::SegmentHandle old = base.SegmentFor(pred);
    // Shared pointer: bit-identical by construction. Distinct pointers: a
    // fully-canceling burst re-materializes the segment with unchanged
    // content, so compare bytes before paying for a frame member;
    // composition then keeps the base's equal-content segment.
    if (old == seg) continue;
    std::string bytes = parser::SerializeAtoms(*seg);
    if (old != nullptr && parser::SerializeAtoms(*old) == bytes) continue;
    os << "seg " << pred.name() << " " << seg->size() << "\n" << bytes;
  }

  // Order: the chunk-pointer prefix both images share needs no re-listing.
  uint64_t keep = 0;
  size_t shared_chunks = 0;
  while (shared_chunks < image.order.size() &&
         shared_chunks < base.order.size() &&
         image.order[shared_chunks].runs == base.order[shared_chunks].runs) {
    keep += image.order[shared_chunks].atoms;
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
  for (size_t c = shared_chunks; c < image.order.size(); ++c) {
    for (const SnapshotImage::OrderRun& run : *image.order[c].runs) {
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

Status ApplyDeltaBody(std::string_view body, Program* program,
                      const CheckpointMeta& meta, ComposedState* state) {
  LineCursor cur{body};
  std::string_view line;
  bool have_line = cur.Next(&line);

  while (have_line && StartsWith(line, "removed ")) {
    Symbol pred(line.substr(8));
    if (state->segments.erase(pred) == 0) {
      return Status::ParseError("checkpoint removes unknown predicate '" +
                                pred.name() + "'");
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
        return Status::ParseError("checkpoint: seg section for '" +
                                  pred.name() + "' truncated");
      }
    }
    MMV_ASSIGN_OR_RETURN(
        View tmp,
        parser::DeserializeView(body.substr(start, cur.at - start), program));
    std::vector<ViewAtom> seg = tmp.TakeAtoms();
    if (seg.size() != count) {
      return Status::ParseError("checkpoint: seg section for '" +
                                pred.name() + "' parsed to a different count");
    }
    for (const ViewAtom& a : seg) {
      if (a.pred != pred) {
        return Status::ParseError("checkpoint: seg section for '" +
                                  pred.name() + "' holds an atom of '" +
                                  a.pred.name() + "'");
      }
    }
    state->segments[pred] = std::move(seg);
    have_line = cur.Next(&line);
  }

  if (!have_line || !StartsWith(line, "order keep ")) {
    return Status::ParseError("checkpoint: missing 'order keep' line");
  }
  MMV_ASSIGN_OR_RETURN(uint64_t keep,
                       ParseDecimal<uint64_t>(line.substr(11), "order keep"));
  std::vector<SnapshotImage::OrderRun> new_order;
  uint64_t order_total = 0;
  for (const SnapshotImage::OrderRun& run : state->order) {
    if (order_total == keep) break;
    MMV_RETURN_NOT_OK(AppendRun(run.pred,
                                std::min(run.count, keep - order_total),
                                meta.atoms, &order_total, &new_order));
  }
  if (order_total != keep) {
    return Status::ParseError(
        "checkpoint: 'order keep' exceeds the base's atom order");
  }
  while (cur.Next(&line)) {
    if (!StartsWith(line, "order run ")) {
      return Status::ParseError("checkpoint: unexpected line '" +
                                std::string(line) + "'");
    }
    MMV_ASSIGN_OR_RETURN(auto pred_count,
                         ParsePredCount(line.substr(10), "order run"));
    MMV_RETURN_NOT_OK(AppendRun(pred_count.first, pred_count.second,
                                meta.atoms, &order_total, &new_order));
  }
  state->order = std::move(new_order);

  uint64_t segment_total = 0;
  for (const auto& [pred, seg] : state->segments) {
    segment_total += seg.size();
  }
  if (order_total != segment_total || order_total != meta.atoms) {
    return Status::ParseError(
        "checkpoint: composed atom counts disagree (order " +
        std::to_string(order_total) + ", segments " +
        std::to_string(segment_total) + ", header " +
        std::to_string(meta.atoms) + ")");
  }
  return Status::OK();
}

Result<View> BuildView(ComposedState* state) {
  // Atoms are MOVED into the view per-pred as the order cursor passes
  // them, so the peak is one view plus segment shells — not the composed
  // state and a full copy side by side.
  View view;
  std::unordered_map<Symbol, size_t> cursor;
  for (const SnapshotImage::OrderRun& run : state->order) {
    auto it = state->segments.find(run.pred);
    if (it == state->segments.end()) {
      return Status::ParseError(
          "checkpoint: atom order names unknown predicate '" +
          run.pred.name() + "'");
    }
    size_t& at = cursor[run.pred];
    if (run.count > it->second.size() - at) {
      return Status::ParseError(
          "checkpoint: atom order overruns the segment of '" +
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
          "checkpoint: atom order does not cover the segment of '" +
          pred.name() + "'");
    }
  }
  return view;
}

std::string CheckpointFileName(uint64_t epoch) {
  return "ckpt-" + Padded(epoch) + ".mmv";
}

std::string DeltaCheckpointFileName(uint64_t epoch) {
  return "dckpt-" + Padded(epoch) + ".mmv";
}

std::string WalSegmentFileName(uint64_t base) {
  return "wal-" + Padded(base) + ".log";
}

Result<uint64_t> ParseCheckpointFileName(std::string_view name) {
  return ParseNamed(name, "ckpt-", ".mmv");
}

Result<uint64_t> ParseDeltaCheckpointFileName(std::string_view name) {
  return ParseNamed(name, "dckpt-", ".mmv");
}

Result<uint64_t> ParseWalSegmentFileName(std::string_view name) {
  return ParseNamed(name, "wal-", ".log");
}

}  // namespace durability
}  // namespace mmv
