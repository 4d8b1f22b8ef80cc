// SnapshotImage: the immutable, structurally shared view image that
// snapshot publication and checkpointing both consume.
//
// An image is the view's atoms grouped into per-predicate SEGMENTS (each a
// shared_ptr'd vector of atom copies in posting order) plus a run-length
// encoding of the live view's global atom order. Consecutive images share
// every segment the intervening batch did not touch: View::ExtractImage
// copies only the predicates its dirty set names and re-points the rest at
// the previous image's segments, so extraction is O(delta), not O(view).
//
// Why the global order is part of the image: enumeration order is
// semantically load-bearing downstream — set-semantics support
// representatives follow it, so a checkpoint serialized in a different
// order would recover a view that DIVERGES from the live one under
// continued maintenance. The order is stored as chunks of (pred, count)
// runs; within one predicate the global order equals segment order, so a
// run carries no offsets — readers keep one cursor per predicate.
//
// Images are plain immutable data: safe to read from any thread, pinned
// alive by shared_ptr, never mutated after construction.

#ifndef MMV_CORE_SNAPSHOT_IMAGE_H_
#define MMV_CORE_SNAPSHOT_IMAGE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "core/view_atom.h"

namespace mmv {

struct SnapshotImage;

/// \brief A reader's reference: keeps every shared segment alive.
using SnapshotImageHandle = std::shared_ptr<const SnapshotImage>;

struct SnapshotImage {
  /// One predicate's atoms, in posting-list (ascending live-index) order.
  using Segment = std::vector<ViewAtom>;
  using SegmentHandle = std::shared_ptr<const Segment>;

  /// One run of the global atom order: the next \p count atoms belong to
  /// \p pred, continuing wherever that predicate's cursor stands.
  struct OrderRun {
    Symbol pred;
    uint64_t count = 0;
  };
  /// Runs are grouped into shared chunks so an append-only batch extends
  /// the order by ONE new chunk while sharing every earlier chunk with the
  /// previous image (chunk pointer equality is also how delta checkpoints
  /// find the unchanged order prefix).
  struct OrderChunk {
    std::shared_ptr<const std::vector<OrderRun>> runs;
    uint64_t atoms = 0;  ///< total atom count across this chunk's runs
  };

  std::unordered_map<Symbol, SegmentHandle> segments;
  std::vector<OrderChunk> order;
  uint64_t atom_count = 0;

  size_t size() const { return static_cast<size_t>(atom_count); }
  bool empty() const { return atom_count == 0; }

  /// \brief This predicate's atoms (empty if absent). O(1).
  const Segment& AtomsFor(Symbol pred) const {
    static const Segment kEmpty;
    auto it = segments.find(pred);
    return it == segments.end() ? kEmpty : *it->second;
  }

  /// \brief The shared segment itself, or null if absent — pointer
  /// identity across epochs proves sharing (tests) and drives the delta
  /// checkpoint's changed-predicate diff.
  SegmentHandle SegmentFor(Symbol pred) const {
    auto it = segments.find(pred);
    return it == segments.end() ? nullptr : it->second;
  }

  /// \brief Visits every atom in the image's global order. \p visit
  /// returns false to stop early (budgeted enumeration). Returns false iff
  /// the visit was stopped.
  template <typename Visitor>
  bool ForEachAtom(Visitor visit) const {
    std::unordered_map<Symbol, size_t> cursor;
    const Segment* seg = nullptr;
    Symbol seg_pred;
    for (const OrderChunk& chunk : order) {
      for (const OrderRun& run : *chunk.runs) {
        if (seg == nullptr || !(seg_pred == run.pred)) {
          seg_pred = run.pred;
          seg = &AtomsFor(run.pred);
        }
        size_t& at = cursor[run.pred];
        for (uint64_t i = 0; i < run.count; ++i) {
          if (!visit((*seg)[at++])) return false;
        }
      }
    }
    return true;
  }
};

}  // namespace mmv

#endif  // MMV_CORE_SNAPSHOT_IMAGE_H_
