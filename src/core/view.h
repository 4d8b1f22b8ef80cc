// View: a materialized mediated view — an indexed store of constrained
// atoms with supports.
//
// The store incrementally maintains four indexes so that every layer
// (fixpoint materialization, StDel/DRed maintenance, query evaluation)
// shares one access path instead of rebuilding private side-tables:
//   - a by-predicate posting list (AtomsFor),
//   - a support hash index (HasSupport / IndexOfSupport, Lemma 1),
//   - a child-support index (ForEachParentOfChild — StDel step 3), and
//   - a per-(predicate, position, ground-value) argument index
//     (AtomsForArgValue / AtomsForNonConstArg), read through one probe
//     primitive (CandidatesAt / Probe) by the fixpoint engine's indexed
//     join, live QueryPred / Ask and the Del / Add builders.
// Add updates all of them in O(|support| + arity); RemoveIf recompacts them
// in the same pass that compacts the atom vector.

#ifndef MMV_CORE_VIEW_H_
#define MMV_CORE_VIEW_H_

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/interner.h"
#include "core/snapshot_image.h"
#include "core/view_atom.h"

namespace mmv {

/// \brief A materialized mediated view M.
///
/// Maintenance algorithms mutate atoms in place through MutableAtom
/// (replace constraints, set marks) and remove atoms via RemoveIf; the
/// indexes key on pred, args and support, which in-place mutation never
/// touches.
class View {
 public:
  View() = default;

  /// Copies SHARE copy-on-write image state instead of duplicating it.
  /// The source's image cache is refreshed first (O(delta) — exactly the
  /// extraction its next ExtractImage would have performed) and the copy
  /// starts CLEAN against that shared image. An implicitly copied dirty
  /// set would make source and copy re-materialize the SAME dirty
  /// segments independently, so their future extractions could never
  /// pointer-share those predicates again — every downstream consumer
  /// (snapshot store, delta checkpoints) would silently hold forked
  /// segment copies.
  View(const View& other)
      : atoms_(other.atoms_),
        by_pred_(other.by_pred_),
        by_support_(other.by_support_),
        child_index_(other.child_index_),
        by_arg_value_(other.by_arg_value_),
        by_arg_var_(other.by_arg_var_),
        max_var_(other.max_var_),
        last_image_(other.ExtractImage()) {}
  View& operator=(const View& other) {
    if (this == &other) return *this;
    atoms_ = other.atoms_;
    by_pred_ = other.by_pred_;
    by_support_ = other.by_support_;
    child_index_ = other.child_index_;
    by_arg_value_ = other.by_arg_value_;
    by_arg_var_ = other.by_arg_var_;
    max_var_ = other.max_var_;
    last_image_ = other.ExtractImage();
    image_dirty_preds_.clear();
    image_order_stale_ = false;
    return *this;
  }
  // Declaring the copy operations suppresses the implicit moves; restore
  // them (moves transfer the cache verbatim, which stays exact).
  View(View&&) = default;
  View& operator=(View&&) = default;

  /// \brief Appends an atom, updating all indexes.
  void Add(ViewAtom atom);

  const std::vector<ViewAtom>& atoms() const { return atoms_; }

  /// \brief Mutable access for in-place constraint replacement / marking.
  ///
  /// pred, args and support are index keys: callers must not change them
  /// (use RemoveIf + Add to re-key an atom). Conservatively dirties the
  /// atom's predicate for copy-on-write extraction — the caller may end up
  /// only flipping the mark (which images ignore), but re-copying one
  /// touched segment is cheaper than tracking which field changed.
  ViewAtom& MutableAtom(size_t i) {
    image_dirty_preds_.insert(atoms_[i].pred);
    return atoms_[i];
  }

  /// \brief Moves the atoms out (indexes reset); the view becomes empty.
  /// The variable high-water mark (MaxVarId) is preserved — it stays the
  /// monotone bound over everything the store ever held, including bounds
  /// injected via NoteExternalVars that no atom mentions.
  std::vector<ViewAtom> TakeAtoms();

  /// \brief Indices of atoms with predicate \p pred (ascending). O(1).
  const std::vector<size_t>& AtomsFor(Symbol pred) const;

  /// \brief Indices of atoms of \p pred whose argument at position \p pos
  /// is the ground constant \p v (ascending). O(1). Value identity is by
  /// Value::Hash — consistent with Value::operator== (numeric across
  /// int/double, exactly the equality the simplifier applies to ground `=`
  /// primitives) — and buckets are keyed by hash alone, so the list may
  /// rarely include colliding atoms whose argument differs: callers must
  /// re-verify the argument per candidate (see ConstantsClash). Read
  /// through CandidatesAt / Probe, never on its own.
  const std::vector<size_t>& AtomsForArgValue(Symbol pred, size_t pos,
                                              const Value& v) const;

  /// \brief Indices of atoms of \p pred whose argument at position \p pos
  /// is NOT a constant (ascending). A sound probe for ground value v must
  /// scan AtomsForArgValue(pred, pos, v) plus this list: a variable
  /// argument can unify with any value. Atoms of \p pred with arity
  /// <= \p pos appear in neither list.
  const std::vector<size_t>& AtomsForNonConstArg(Symbol pred,
                                                 size_t pos) const;

  /// \brief A lazy ascending merge of up to two disjoint posting-list
  /// windows — the one probe primitive over the argument index.
  ///
  /// Next() yields ascending atom indices, so a consumer enumerates its
  /// candidates in the same order a scan of AtomsFor would visit them.
  /// Holds pointers to the index's lists plus positions, never iterators:
  /// appends past the window (a fixpoint round deriving into the probed
  /// view) leave it valid. Copyable; Next() advances the copy it is
  /// called on.
  struct Candidates {
    const std::vector<size_t>* hits = nullptr;
    const std::vector<size_t>* vars = nullptr;
    size_t i = 0, i_end = 0, j = 0, j_end = 0;

    size_t size() const { return (i_end - i) + (j_end - j); }
    bool Next(size_t* idx) {
      if (i < i_end && (j >= j_end || (*hits)[i] < (*vars)[j])) {
        *idx = (*hits)[i++];
        return true;
      }
      if (j >= j_end) return false;
      *idx = (*vars)[j++];
      return true;
    }
    /// The candidates whose atom index lies in [lo, hi) (a seminaive
    /// window), in O(log n).
    Candidates Within(size_t lo, size_t hi) const;
  };

  /// \brief The atoms of \p pred that can match ground value \p v at
  /// \p pos: the (pred, pos, v) bucket merged with the position's
  /// non-constant list. O(1) to build; a superset of the matches (hash
  /// collisions, other arities), so consumers re-verify per candidate.
  Candidates CandidatesAt(Symbol pred, size_t pos, const Value& v) const;

  /// \brief The smallest CandidatesAt over the constant positions of
  /// \p args, or every atom of \p pred (AtomsFor) when no position is
  /// constant. The contract: every atom of \p pred with args.size()
  /// arguments that does not ConstantsClash with \p args is yielded, in
  /// ascending order. Cost O(constant positions); enumerating it costs
  /// O(candidates), not O(atoms of pred).
  Candidates Probe(Symbol pred, const TermVec& args) const;

  /// \brief True when \p atom_args cannot be an instance of \p args on
  /// constants alone: the arities differ, or some position holds
  /// constants on both sides that differ by Value::operator==. Every
  /// Probe consumer calls this before it copies a candidate.
  static bool ConstantsClash(const TermVec& atom_args, const TermVec& args);

  /// \brief True iff some atom has exactly this support. O(1) expected.
  bool HasSupport(const Support& s) const;

  /// \brief Index of the atom with exactly this support, or -1.
  /// Supports are unique identities under duplicate semantics (Lemma 1).
  int64_t IndexOfSupport(const Support& s) const;

  /// \brief Visits the atoms whose support has \p s as a direct child —
  /// the StDel step-3 probe: calls \p visit(atom index, child slot) per
  /// match, O(k) in the number of matches and allocation-free. The visitor
  /// may mutate atom constraints/marks but must not Add/RemoveIf.
  template <typename Visitor>
  void ForEachParentOfChild(const Support& s, Visitor visit) const {
    auto [lo, hi] = child_index_.equal_range(s.Hash());
    for (auto it = lo; it != hi; ++it) {
      auto [parent, slot] = it->second;
      if (atoms_[parent].support.children()[slot] == s) {
        visit(parent, slot);
      }
    }
  }

  /// \brief Removes atoms flagged by \p pred; indexes are recompacted in
  /// the same pass. Returns the number removed.
  ///
  /// Index entries of removed atoms are erased and surviving entries are
  /// renumbered through one old-index -> new-index remap, so support trees
  /// are never re-hashed — a batch deleting k atoms from an N-atom view
  /// costs one O(N) sweep regardless of k.
  template <typename Pred>
  size_t RemoveIf(Pred pred) {
    size_t before = atoms_.size();
    std::vector<int64_t> remap(before);
    std::vector<ViewAtom> kept;
    kept.reserve(before);
    for (size_t i = 0; i < before; ++i) {
      if (pred(atoms_[i])) {
        remap[i] = -1;
        image_dirty_preds_.insert(atoms_[i].pred);
      } else {
        remap[i] = static_cast<int64_t>(kept.size());
        kept.push_back(std::move(atoms_[i]));
      }
    }
    atoms_ = std::move(kept);
    if (atoms_.size() == before) return 0;  // indexes still valid
    image_order_stale_ = true;  // the global order is no longer a prefix
    CompactIndexes(remap);
    return before - atoms_.size();
  }

  /// \brief Sets every atom's mark to \p value (StDel step 1).
  void MarkAll(bool value);

  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  /// \brief High-water mark of variable ids mentioned by any atom ever
  /// added (monotone; removals do not lower it). -1 for no variables.
  VarId MaxVarId() const { return max_var_; }

  /// \brief Raises the variable high-water mark to at least \p bound.
  ///
  /// Maintenance algorithms that inject freshly-issued variables into atom
  /// constraints through MutableAtom must report their factory's issuance
  /// bound here, so later updates standardize apart against the true
  /// maximum and never capture those variables.
  void NoteExternalVars(VarId bound) { max_var_ = std::max(max_var_, bound); }

  /// \brief What one ExtractImage call shared vs materialized.
  struct ImageExtractStats {
    int64_t segments_shared = 0;  ///< per-pred segments re-pointed at the
                                  ///  previous image (zero copies)
    int64_t segments_copied = 0;  ///< segments materialized fresh
    int64_t atoms_shared = 0;     ///< atoms inside shared segments
    int64_t atoms_copied = 0;     ///< atoms copied into fresh segments
  };

  /// \brief Extracts the immutable image of the current state, sharing
  /// every per-pred segment (and order chunk) untouched since the previous
  /// extraction — O(delta) for the incremental-maintenance steady state,
  /// O(view) only on the first call or after wholesale churn.
  ///
  /// The returned image is safe to read from any thread; this view keeps a
  /// reference so the NEXT extraction can share against it. Single-writer
  /// like every other mutation path: callers must not race ExtractImage
  /// with Add/RemoveIf/MutableAtom (ApplyBatch already serializes them).
  SnapshotImageHandle ExtractImage(ImageExtractStats* stats = nullptr) const;

  /// \brief Sizes of the maintained indexes, for observability.
  struct IndexStats {
    size_t predicates = 0;        ///< distinct predicate posting lists
    size_t postings = 0;          ///< total posting-list entries
    size_t support_entries = 0;   ///< support hash index entries
    size_t child_entries = 0;     ///< child-support index entries
    size_t arg_value_buckets = 0; ///< distinct (pred, pos, value) buckets
    size_t arg_value_entries = 0; ///< total arg-value posting entries
    size_t arg_var_entries = 0;   ///< total non-const-arg posting entries
  };
  IndexStats index_stats() const;

  /// \brief Total approximate bytes (atoms + supports), for E6.
  size_t ApproxBytes() const;

  /// \brief Sum of constraint literal counts (constraint growth metric, E8).
  size_t TotalLiterals() const;

  /// \brief One atom per line.
  std::string ToString(const VarNames* names = nullptr) const;

 private:
  void IndexAtom(size_t i);
  /// Applies an old-index -> new-index (-1 = removed) remap to all three
  /// indexes in place, without recomputing any support hash.
  void CompactIndexes(const std::vector<int64_t>& remap);

  // Key of one (pred, position, ground-value) argument bucket: a plain
  // 64-bit hash (no Value is stored or compared in the map — see
  // AtomsForArgValue's collision contract).
  static uint64_t ArgValueKey(uint32_t pred, uint32_t pos, const Value& v) {
    return HashCombine(ArgVarKey(pred, pos), v.Hash());
  }
  static uint64_t ArgVarKey(uint32_t pred, uint32_t pos) {
    return (static_cast<uint64_t>(pred) << 32) | pos;
  }

  std::vector<ViewAtom> atoms_;
  std::unordered_map<Symbol, std::vector<size_t>> by_pred_;
  std::unordered_multimap<size_t, size_t> by_support_;  // hash -> atom idx
  // child support hash -> (parent atom idx, child slot)
  std::unordered_multimap<size_t, std::pair<size_t, size_t>> child_index_;
  // hash(pred, pos, const value) -> atom indices; (pred, pos) -> indices
  // of atoms whose arg at pos is a variable.
  std::unordered_map<uint64_t, std::vector<size_t>> by_arg_value_;
  std::unordered_map<uint64_t, std::vector<size_t>> by_arg_var_;
  VarId max_var_ = -1;

  // Copy-on-write extraction state (core/snapshot_image.h). The dirty set
  // names predicates whose segment in last_image_ may no longer match this
  // view; order_stale_ records that atoms were removed, invalidating the
  // shared global-order prefix. mutable because ExtractImage is logically
  // const (it caches, never changes view semantics). The copy operations
  // above refresh-and-share this cache rather than duplicating dirty
  // bookkeeping (see their comment); moves transfer it verbatim.
  mutable SnapshotImageHandle last_image_;
  mutable std::unordered_set<Symbol> image_dirty_preds_;
  mutable bool image_order_stale_ = false;
};

}  // namespace mmv

#endif  // MMV_CORE_VIEW_H_
