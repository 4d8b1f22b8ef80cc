// The maintenance counter registry. Every counter of the stats structs a
// maintenance run reports (SolveStats, FixpointStats, StDelStats,
// InsertStats, BatchStats) is declared exactly once below: name, class
// and a one-line doc. The structs are generated from these lists by
// MMV_COUNTERS — their fields, a field-wise operator+= and a
// ForEachCounter visitor — and everything that sums, lifts, exports or
// compares counters goes through that generated code. The doc column is
// the counter's documentation; no code reads it. Adding a counter is one
// row here plus its increment site.
//
// A list is an X-macro over three row kinds:
//   C(type, name, class, doc)  a counter of CounterClass `class`;
//   N(type, name, prefix)      a nested stats struct, summed whole and
//                              visited with `prefix` before its names;
//   F(name, doc)               a sticky flag: ORed by +=, not a counter.

#ifndef MMV_CORE_COUNTERS_H_
#define MMV_CORE_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mmv {

/// \brief How a counter may vary across the engine's modes.
enum class CounterClass {
  /// Byte-identical across join mode, thread count and the solver fast
  /// path — the three axes the CI sidecar diffs compare.
  kWork,
  /// Everything else: counters of the strategy the engine picked (join
  /// order, memo hits, screens), and work products not yet pinned on all
  /// three axes.
  kStrategy,
  /// The shape of the parallel fan-out; scales with the thread count.
  kThread,
};

/// \brief The sidecar spelling of \p cls: "work", "strategy" or "thread".
constexpr std::string_view CounterClassName(CounterClass cls) {
  switch (cls) {
    case CounterClass::kWork:
      return "work";
    case CounterClass::kStrategy:
      return "strategy";
    case CounterClass::kThread:
      return "thread";
  }
  return "";
}

/// \brief One counter's declaration, as ForEachCounter hands it to a
/// visitor.
struct CounterInfo {
  std::string name;  ///< declared name behind its nesting prefix
  CounterClass cls;
};

// ---- the lists -------------------------------------------------------------

// The solver fast path's screens (SolveStats; lifted into BatchStats).
#define MMV_SAT_COUNTERS(C)                                                  \
  C(int64_t, sat_prechecks, kStrategy,                                       \
    "satisfiability pre-screens run (TestSatisfiability / RejectJoin)")      \
  C(int64_t, sat_rejects, kStrategy,                                         \
    "screens that refuted deterministically, no memo consulted")

// Plan-layer and fan-out counters of one engine pass: spliced into
// FixpointStats, StDelStats and BatchStats. A layer that does not
// produce one leaves it at zero.
#define MMV_PASS_COUNTERS(C)                                                 \
  C(int64_t, plan_reorders, kStrategy,                                       \
    "plan compiles whose execution order differs from the body order")      \
  C(int64_t, probe_intersections, kStrategy,                                 \
    "probes that weighed >= 2 ground arg-value buckets")                     \
  C(int64_t, plan_cache_hits, kStrategy,                                     \
    "clause plans served without compiling")                                 \
  C(int64_t, partitions_run, kThread,                                        \
    "delta-window or lift-item shards executed as their own tasks")          \
  C(int64_t, partition_skipped_small, kThread,                               \
    "shardable windows left whole: below the size threshold")                \
  C(int64_t, evaluator_clones, kThread,                                      \
    "tasks that called the read-safe evaluator from a worker thread")

// constraint/solver.h
#define MMV_SOLVE_COUNTERS(C, N, F)                                          \
  C(int64_t, solve_calls, kStrategy, "full Solve procedures run")            \
  C(int64_t, dca_evaluations, kStrategy, "DCA-atom evaluations")             \
  C(int64_t, choice_branches, kStrategy, "disjunctive branches explored")    \
  C(int64_t, literals_processed, kStrategy, "literals propagated")           \
  C(int64_t, cache_hits, kStrategy, "Solve calls the SolveCache answered")    \
  MMV_SAT_COUNTERS(C)

// core/fixpoint.h
#define MMV_FIXPOINT_COUNTERS(C, N, F)                                       \
  C(int, iterations, kStrategy, "seminaive rounds run")                      \
  C(int64_t, derivations_attempted, kStrategy, "clause derivations tried")   \
  C(int64_t, atoms_created, kWork, "atoms appended to the view")             \
  C(int64_t, unsat_pruned, kStrategy, "derivations pruned unsolvable (T_P)") \
  C(int64_t, duplicates_suppressed, kWork, "derivations deduplicated away")  \
  C(int64_t, index_probes, kStrategy, "arg-value index probes (kIndexed)")   \
  C(int64_t, ground_rejects, kStrategy,                                      \
    "candidates cut by a ground mismatch before deeper positions")           \
  C(int64_t, rename_skipped, kStrategy,                                      \
    "fully-ground derivations assembled without a clause rename")            \
  MMV_PASS_COUNTERS(C)                                                       \
  F(truncated, "hit max_iterations / max_atoms")                             \
  N(SolveStats, solver, "")

// maintenance/stdel.h
#define MMV_STDEL_COUNTERS(C, N, F)                                          \
  C(size_t, del_elements, kStrategy, "Del-set overlaps found")               \
  C(size_t, pout_pairs, kStrategy, "pairs pushed into P_OUT")                \
  C(size_t, replacements, kWork, "constraint replacements (step 2 + 3)")     \
  C(size_t, step2_replacements, kStrategy, "direct Del-overlap subtractions") \
  C(size_t, removed_unsolvable, kStrategy, "atoms step 4 pruned")            \
  MMV_PASS_COUNTERS(C)                                                       \
  N(SolveStats, solver, "")

// maintenance/insert.h: the BuildAdd solver and the continuation's run
// are kept whole, behind their member names.
#define MMV_INSERT_COUNTERS(C, N, F)                                         \
  C(size_t, add_atoms, kStrategy, "size of the initial Add set")             \
  C(size_t, atoms_added, kWork, "new atoms: Add set plus consequences")      \
  N(SolveStats, solver, "solver.")                                           \
  N(FixpointStats, unfold, "unfold.")

// maintenance/batch.h
#define MMV_BATCH_COUNTERS(C, N, F)                                          \
  C(size_t, input_updates, kWork, "updates in the requested burst")          \
  C(size_t, coalesced_away, kWork, "updates the planner dropped or merged")  \
  C(size_t, delete_passes, kWork, "multi-atom StDel sweeps run")             \
  C(size_t, insert_passes, kWork, "seminaive continuations run")             \
  C(size_t, deletions_applied, kStrategy, "delete requests reaching StDel")  \
  C(size_t, insertions_applied, kStrategy, "insert requests reaching Add")   \
  C(size_t, del_elements, kStrategy, "Del-set overlaps found")               \
  C(size_t, replacements, kWork, "constraint replacements (step 2 + 3)")     \
  C(size_t, step3_replacements, kWork, "support-propagated replacements")    \
  C(size_t, removed_unsolvable, kStrategy, "atoms step 4 pruned")            \
  C(size_t, add_atoms, kStrategy, "externals appended by Add passes")        \
  C(size_t, insertion_pass_atoms, kWork, "externals plus consequences")      \
  MMV_PASS_COUNTERS(C)                                                       \
  C(int64_t, solve_epoch_flushes, kStrategy,                                 \
    "always 0; kept because perfbench/report.cc reports it")                 \
  C(int64_t, reject_epoch_flushes, kStrategy,                                \
    "always 0; kept because perfbench/report.cc reports it")                 \
  MMV_SAT_COUNTERS(C)                                                        \
  C(int64_t, reject_cache_hits, kStrategy,                                   \
    "always 0; kept because perfbench/report.cc reports it")                 \
  C(int64_t, epochs_published, kWork, "view epochs published to readers")    \
  C(int64_t, snapshot_nodes_shared, kWork,                                   \
    "posting segments the image re-pointed at the previous epoch")           \
  C(int64_t, snapshot_nodes_copied, kWork,                                   \
    "posting segments the dirty set forced the image to copy")               \
  C(int64_t, wal_records, kWork, "WAL records committed")                    \
  C(int64_t, wal_bytes, kWork, "framed bytes those records added")           \
  C(int64_t, wal_syncs, kWork, "explicit syncs the policy forced")           \
  C(int64_t, checkpoints_written, kStrategy, "checkpoint files written")     \
  C(int64_t, checkpoint_delta_bytes, kWork,                                  \
    "bytes of delta checkpoint files written")

// ---- the generator ---------------------------------------------------------

#define MMV_COUNTER_FIELD_(type, name, cls, doc) type name = 0;
#define MMV_NESTED_FIELD_(type, name, prefix) type name;
#define MMV_FLAG_FIELD_(name, doc) bool name = false;
#define MMV_COUNTER_ADD_(type, name, ...) name += other.name;
#define MMV_FLAG_ADD_(name, doc) name = name || other.name;
#define MMV_COUNTER_VISIT_(type, name, cls, doc)                             \
  visit(CounterInfo{std::string(prefix) + #name, CounterClass::cls}, name);
#define MMV_NESTED_VISIT_(type, name, nested_prefix)                         \
  name.ForEachCounter(visit, std::string(prefix) + nested_prefix);
#define MMV_FLAG_VISIT_(name, doc)

#define MMV_FOR_EACH_COUNTER_(LIST, QUALIFIER)                               \
  template <typename Visitor>                                                \
  void ForEachCounter(Visitor&& visit, std::string_view prefix = {})         \
      QUALIFIER {                                                            \
    LIST(MMV_COUNTER_VISIT_, MMV_NESTED_VISIT_, MMV_FLAG_VISIT_)             \
  }

/// Generates, inside `struct Stats`, the members of counter list LIST:
/// its fields; `operator+=`, which sums counters and nested structs and
/// ORs flags; and `ForEachCounter(visit)`, which calls
/// `visit(const CounterInfo&, value&)` for every counter, nested ones
/// included.
#define MMV_COUNTERS(Stats, LIST)                                            \
  LIST(MMV_COUNTER_FIELD_, MMV_NESTED_FIELD_, MMV_FLAG_FIELD_)               \
  Stats& operator+=(const Stats& other) {                                    \
    LIST(MMV_COUNTER_ADD_, MMV_COUNTER_ADD_, MMV_FLAG_ADD_)                  \
    return *this;                                                            \
  }                                                                          \
  MMV_FOR_EACH_COUNTER_(LIST, const)                                         \
  MMV_FOR_EACH_COUNTER_(LIST, )

/// Row macro adding counter `name` of `from` into `to`. Expanding a
/// spliced list with it (e.g. `MMV_PASS_COUNTERS(MMV_LIFT_COUNTER_)`)
/// lifts that list from one layer's struct into another's.
#define MMV_LIFT_COUNTER_(type, name, cls, doc) to.name += from.name;

}  // namespace mmv

#endif  // MMV_CORE_COUNTERS_H_
