#include "core/view.h"

#include <algorithm>
#include <sstream>

namespace mmv {

namespace {

VarId MaxVarOf(const ViewAtom& a) {
  VarId max_id = -1;
  std::vector<VarId> vars;
  CollectVars(a.args, &vars);
  for (VarId v : vars) max_id = std::max(max_id, v);
  for (VarId v : a.constraint.Variables()) max_id = std::max(max_id, v);
  return max_id;
}

}  // namespace

void View::IndexAtom(size_t i) {
  const ViewAtom& a = atoms_[i];
  by_pred_[a.pred].push_back(i);
  by_support_.emplace(a.support.Hash(), i);
  for (size_t k = 0; k < a.support.children().size(); ++k) {
    child_index_.emplace(a.support.children()[k].Hash(),
                         std::make_pair(i, k));
  }
  for (size_t k = 0; k < a.args.size(); ++k) {
    uint32_t pos = static_cast<uint32_t>(k);
    if (a.args[k].is_const()) {
      by_arg_value_[ArgValueKey(a.pred.id(), pos, a.args[k].constant())]
          .push_back(i);
    } else {
      by_arg_var_[ArgVarKey(a.pred.id(), pos)].push_back(i);
    }
  }
}

void View::CompactIndexes(const std::vector<int64_t>& remap) {
  for (auto it = by_pred_.begin(); it != by_pred_.end();) {
    std::vector<size_t>& list = it->second;
    size_t out = 0;
    for (size_t idx : list) {
      if (remap[idx] >= 0) list[out++] = static_cast<size_t>(remap[idx]);
    }
    list.resize(out);
    // Compaction preserves relative order, so the list stays ascending.
    it = list.empty() ? by_pred_.erase(it) : std::next(it);
  }
  for (auto it = by_support_.begin(); it != by_support_.end();) {
    if (remap[it->second] < 0) {
      it = by_support_.erase(it);
    } else {
      it->second = static_cast<size_t>(remap[it->second]);
      ++it;
    }
  }
  for (auto it = child_index_.begin(); it != child_index_.end();) {
    if (remap[it->second.first] < 0) {
      it = child_index_.erase(it);
    } else {
      it->second.first = static_cast<size_t>(remap[it->second.first]);
      ++it;
    }
  }
  auto compact_postings = [&remap](auto* map) {
    for (auto it = map->begin(); it != map->end();) {
      std::vector<size_t>& list = it->second;
      size_t out = 0;
      for (size_t idx : list) {
        if (remap[idx] >= 0) list[out++] = static_cast<size_t>(remap[idx]);
      }
      list.resize(out);
      it = list.empty() ? map->erase(it) : std::next(it);
    }
  };
  compact_postings(&by_arg_value_);
  compact_postings(&by_arg_var_);
}

void View::Add(ViewAtom atom) {
  max_var_ = std::max(max_var_, MaxVarOf(atom));
  atoms_.push_back(std::move(atom));
  image_dirty_preds_.insert(atoms_.back().pred);
  IndexAtom(atoms_.size() - 1);
}

std::vector<ViewAtom> View::TakeAtoms() {
  std::vector<ViewAtom> out = std::move(atoms_);
  atoms_.clear();
  by_pred_.clear();
  by_support_.clear();
  child_index_.clear();
  by_arg_value_.clear();
  by_arg_var_.clear();
  last_image_.reset();
  image_dirty_preds_.clear();
  image_order_stale_ = false;
  // max_var_ is deliberately PRESERVED: the mark is monotone over the
  // store's whole history (like RemoveIf, which never lowers it), and a
  // taker that re-Adds the atoms elsewhere still reads MaxVarId() here to
  // standardize apart. Resetting it would silently forget externally noted
  // variable bounds (NoteExternalVars) that no surviving atom mentions —
  // a capture footgun for any layer that clones or drains views.
  return out;
}

namespace {
const std::vector<size_t> kEmptyPostings;
}  // namespace

const std::vector<size_t>& View::AtomsFor(Symbol pred) const {
  auto it = by_pred_.find(pred);
  return it == by_pred_.end() ? kEmptyPostings : it->second;
}

const std::vector<size_t>& View::AtomsForArgValue(Symbol pred, size_t pos,
                                                  const Value& v) const {
  auto it = by_arg_value_.find(
      ArgValueKey(pred.id(), static_cast<uint32_t>(pos), v));
  return it == by_arg_value_.end() ? kEmptyPostings : it->second;
}

const std::vector<size_t>& View::AtomsForNonConstArg(Symbol pred,
                                                     size_t pos) const {
  auto it = by_arg_var_.find(ArgVarKey(pred.id(), static_cast<uint32_t>(pos)));
  return it == by_arg_var_.end() ? kEmptyPostings : it->second;
}

View::Candidates View::Candidates::Within(size_t lo, size_t hi) const {
  auto pos_of = [](const std::vector<size_t>* list, size_t from, size_t to,
                   size_t limit) {
    if (list == nullptr) return from;
    return static_cast<size_t>(
        std::lower_bound(list->begin() + static_cast<ptrdiff_t>(from),
                         list->begin() + static_cast<ptrdiff_t>(to), limit) -
        list->begin());
  };
  Candidates out = *this;
  out.i = pos_of(hits, i, i_end, lo);
  out.i_end = std::max(out.i, pos_of(hits, i, i_end, hi));
  out.j = pos_of(vars, j, j_end, lo);
  out.j_end = std::max(out.j, pos_of(vars, j, j_end, hi));
  return out;
}

View::Candidates View::CandidatesAt(Symbol pred, size_t pos,
                                    const Value& v) const {
  const std::vector<size_t>& hits = AtomsForArgValue(pred, pos, v);
  const std::vector<size_t>& vars = AtomsForNonConstArg(pred, pos);
  return Candidates{&hits, &vars, 0, hits.size(), 0, vars.size()};
}

View::Candidates View::Probe(Symbol pred, const TermVec& args) const {
  Candidates best;
  bool ground = false;
  for (size_t k = 0; k < args.size(); ++k) {
    if (!args[k].is_const()) continue;
    Candidates probe = CandidatesAt(pred, k, args[k].constant());
    if (!ground || probe.size() < best.size()) best = probe;
    ground = true;
  }
  if (ground) return best;
  const std::vector<size_t>& all = AtomsFor(pred);
  return Candidates{&all, nullptr, 0, all.size(), 0, 0};
}

bool View::ConstantsClash(const TermVec& atom_args, const TermVec& args) {
  if (atom_args.size() != args.size()) return true;
  for (size_t k = 0; k < args.size(); ++k) {
    if (atom_args[k].is_const() && args[k].is_const() &&
        !(atom_args[k].constant() == args[k].constant())) {
      return true;
    }
  }
  return false;
}

bool View::HasSupport(const Support& s) const {
  return IndexOfSupport(s) >= 0;
}

int64_t View::IndexOfSupport(const Support& s) const {
  auto [lo, hi] = by_support_.equal_range(s.Hash());
  for (auto it = lo; it != hi; ++it) {
    if (atoms_[it->second].support == s) {
      return static_cast<int64_t>(it->second);
    }
  }
  return -1;
}

void View::MarkAll(bool value) {
  // Deliberately NOT an image-dirtying mutation: marks are StDel-internal
  // scratch state, excluded from image semantics (serialization, queries
  // and canonical comparison all ignore them). Dirtying every predicate
  // here would defeat copy-on-write extraction for every deletion batch.
  for (ViewAtom& a : atoms_) a.marked = value;
}

namespace {

// Reader overhead on ForEachAtom is O(chunks) in hash lookups; cap the
// chunk list so arbitrarily long append-only runs stay cheap to scan.
constexpr size_t kMaxOrderChunks = 128;

void RebuildOrder(const std::vector<ViewAtom>& atoms, SnapshotImage* image) {
  image->order.clear();
  if (atoms.empty()) return;
  auto runs = std::make_shared<std::vector<SnapshotImage::OrderRun>>();
  for (const ViewAtom& a : atoms) {
    if (!runs->empty() && runs->back().pred == a.pred) {
      runs->back().count++;
    } else {
      runs->push_back({a.pred, 1});
    }
  }
  image->order.push_back({std::move(runs), atoms.size()});
}

}  // namespace

SnapshotImageHandle View::ExtractImage(ImageExtractStats* stats) const {
  ImageExtractStats local;
  if (stats == nullptr) stats = &local;

  if (last_image_ != nullptr && image_dirty_preds_.empty() &&
      !image_order_stale_ && last_image_->atom_count == atoms_.size()) {
    // Nothing changed since the previous extraction: share it wholesale.
    stats->segments_shared +=
        static_cast<int64_t>(last_image_->segments.size());
    stats->atoms_shared += static_cast<int64_t>(last_image_->atom_count);
    return last_image_;
  }

  auto image = std::make_shared<SnapshotImage>();
  image->atom_count = atoms_.size();
  image->segments.reserve(by_pred_.size());
  for (const auto& [pred, postings] : by_pred_) {
    SnapshotImage::SegmentHandle shared;
    if (last_image_ != nullptr && image_dirty_preds_.count(pred) == 0) {
      auto it = last_image_->segments.find(pred);
      if (it != last_image_->segments.end() &&
          it->second->size() == postings.size()) {
        shared = it->second;
      }
    }
    if (shared != nullptr) {
      stats->segments_shared++;
      stats->atoms_shared += static_cast<int64_t>(shared->size());
      image->segments.emplace(pred, std::move(shared));
    } else {
      auto seg = std::make_shared<SnapshotImage::Segment>();
      seg->reserve(postings.size());
      for (size_t idx : postings) seg->push_back(atoms_[idx]);
      stats->segments_copied++;
      stats->atoms_copied += static_cast<int64_t>(seg->size());
      image->segments.emplace(
          pred, SnapshotImage::SegmentHandle(std::move(seg)));
    }
  }

  // Global order. When no atom was removed since the previous extraction
  // the old order is a strict prefix of the new one: share its chunks and
  // append ONE chunk covering the tail the batch added. Removals reorder
  // nothing but shrink interior runs, so they force a full rebuild (one
  // O(view) pred-id sweep — tiny next to the segment copies it replaces).
  const bool share_order = !image_order_stale_ && last_image_ != nullptr &&
                           last_image_->atom_count <= atoms_.size();
  if (share_order) {
    image->order = last_image_->order;
    const size_t have = static_cast<size_t>(last_image_->atom_count);
    if (have < atoms_.size()) {
      auto runs = std::make_shared<std::vector<SnapshotImage::OrderRun>>();
      for (size_t i = have; i < atoms_.size(); ++i) {
        if (!runs->empty() && runs->back().pred == atoms_[i].pred) {
          runs->back().count++;
        } else {
          runs->push_back({atoms_[i].pred, 1});
        }
      }
      image->order.push_back({std::move(runs), atoms_.size() - have});
    }
    if (image->order.size() > kMaxOrderChunks) RebuildOrder(atoms_, image.get());
  } else {
    RebuildOrder(atoms_, image.get());
  }

  last_image_ = image;
  image_dirty_preds_.clear();
  image_order_stale_ = false;
  return image;
}

View::IndexStats View::index_stats() const {
  IndexStats st;
  st.predicates = by_pred_.size();
  for (const auto& [_, list] : by_pred_) st.postings += list.size();
  st.support_entries = by_support_.size();
  st.child_entries = child_index_.size();
  st.arg_value_buckets = by_arg_value_.size();
  for (const auto& [_, list] : by_arg_value_) st.arg_value_entries += list.size();
  for (const auto& [_, list] : by_arg_var_) st.arg_var_entries += list.size();
  return st;
}

size_t View::ApproxBytes() const {
  size_t bytes = sizeof(View);
  for (const ViewAtom& a : atoms_) bytes += a.ApproxBytes();
  bytes += by_pred_.size() * sizeof(std::vector<size_t>);
  IndexStats st = index_stats();
  bytes += st.postings * sizeof(size_t);
  bytes += st.support_entries * 2 * sizeof(size_t);
  bytes += st.child_entries * 3 * sizeof(size_t);
  bytes += st.arg_value_buckets *
           (sizeof(uint64_t) + sizeof(std::vector<size_t>));
  bytes += (st.arg_value_entries + st.arg_var_entries) * sizeof(size_t);
  return bytes;
}

size_t View::TotalLiterals() const {
  size_t n = 0;
  for (const ViewAtom& a : atoms_) n += a.constraint.LiteralCount();
  return n;
}

std::string View::ToString(const VarNames* names) const {
  std::ostringstream os;
  for (const ViewAtom& a : atoms_) os << a.ToString(names) << "\n";
  return os.str();
}

}  // namespace mmv
