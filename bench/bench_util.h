// Shared helpers for the benchmark suite. Each bench binary regenerates one
// experiment of EXPERIMENTS.md (E1-E8).

#ifndef MMV_BENCH_BENCH_UTIL_H_
#define MMV_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <thread>

#include "domain/registry.h"
#include "maintenance/dred_constrained.h"
#include "maintenance/insert.h"
#include "maintenance/recompute.h"
#include "maintenance/rewrite.h"
#include "maintenance/stdel.h"
#include "parser/parser.h"
#include "query/query.h"
#include "workload/generators.h"

namespace mmv {
namespace bench {

/// \brief Catalog + standard domains for a benchmark.
struct World {
  std::unique_ptr<rel::Catalog> catalog;
  std::unique_ptr<dom::DomainManager> domains;
  dom::StandardDomains handles;

  static World Make() {
    World w;
    w.catalog = std::make_unique<rel::Catalog>();
    w.domains = std::make_unique<dom::DomainManager>(&w.catalog->clock());
    auto h = dom::RegisterStandardDomains(w.domains.get(), w.catalog.get());
    if (!h.ok()) std::abort();
    w.handles = *h;
    return w;
  }
};

/// \brief Join mode selected by $MMV_JOIN_MODE ("naive" = the oracle join,
/// "indexed" or unset = the default). Lets CI run a whole bench binary
/// under each mode and diff the derived atom counters. Unknown values
/// ABORT the binary — a typo must not silently benchmark the wrong engine.
inline JoinMode EnvJoinMode() {
  Result<JoinMode> mode = JoinModeFromEnv();
  if (!mode.ok()) {
    std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
    std::abort();
  }
  return *mode;
}

/// \brief Thread count selected by $MMV_THREADS (unset = 1, the sequential
/// engine). Lets CI run a whole bench binary single- and multi-threaded
/// and diff the derived-atom counters. Unknown values abort, as for
/// EnvJoinMode.
inline int EnvThreads() {
  Result<int> threads = ThreadsFromEnv();
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    std::abort();
  }
  return *threads;
}

/// \brief Solver fast path selected by $MMV_SOLVER_FASTPATH ("off" = the
/// full-procedure oracle, "on" or unset = the default). Lets CI run a
/// whole bench binary under each mode and diff the work-product counters.
/// Unknown values abort, as for EnvJoinMode.
inline bool EnvSolverFastpath() {
  Result<bool> fastpath = SolverFastpathFromEnv();
  if (!fastpath.ok()) {
    std::fprintf(stderr, "%s\n", fastpath.status().ToString().c_str());
    std::abort();
  }
  return *fastpath;
}

/// \brief Baseline options for benchmarks: default fixpoint knobs with the
/// join mode, thread count and solver fast path taken from the
/// environment.
inline FixpointOptions DefaultOptions() {
  FixpointOptions o;
  o.join_mode = EnvJoinMode();
  o.num_threads = EnvThreads();
  o.solver.fastpath = EnvSolverFastpath();
  return o;
}

/// \brief Thread count from a benchmark range arg for thread-paired cases:
/// 0 = sequential (1 thread), 1 = every hardware thread. Pinned per case,
/// so the .../0 vs .../1 twins within one sidecar diff the parallel engine
/// against the sequential one whatever the environment says.
inline int ThreadsArg(int64_t arg) {
  if (arg == 0) return 1;
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::max(2u, hw));
}

/// \brief Join mode from a benchmark range arg (0 = naive, 1 = indexed),
/// for cases that pin the mode per-case instead of per-process.
inline JoinMode ModeArg(int64_t arg) {
  return arg == 0 ? JoinMode::kNaive : JoinMode::kIndexed;
}

/// \brief Materializes or aborts (benchmark setup only).
inline View MustMaterialize(const Program& p, DcaEvaluator* eval,
                            const FixpointOptions& opts = {}) {
  Result<View> v = Materialize(p, eval, opts);
  if (!v.ok()) std::abort();
  return std::move(*v);
}

inline FixpointOptions SetSemantics() {
  FixpointOptions o = DefaultOptions();
  o.semantics = DupSemantics::kSet;
  return o;
}

/// \brief Exports the join-pipeline counters of a fixpoint run.
inline void ExportJoinCounters(benchmark::State& state,
                               const FixpointStats& stats) {
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["ground_rejects"] =
      static_cast<double>(stats.ground_rejects);
  state.counters["rename_skipped"] =
      static_cast<double>(stats.rename_skipped);
  state.counters["solver_cache_hits"] =
      static_cast<double>(stats.solver.cache_hits);
  state.counters["plan_reorders"] =
      static_cast<double>(stats.plan_reorders);
  state.counters["probe_intersections"] =
      static_cast<double>(stats.probe_intersections);
  state.counters["plan_cache_hits"] =
      static_cast<double>(stats.plan_cache_hits);
  // Solver fast-path counters: strategy counters like solver_cache_hits —
  // never compared across modes (a fastpath=off replay has all three at
  // zero by construction; naive/indexed differ through DerivePlanned's
  // bypass). Exported so a solver-bound case shows its sat_rejects > 0.
  state.counters["sat_prechecks"] =
      static_cast<double>(stats.solver.sat_prechecks);
  state.counters["sat_rejects"] =
      static_cast<double>(stats.solver.sat_rejects);
  state.counters["reject_cache_hits"] =
      static_cast<double>(stats.solver.reject_cache_hits);
  // Fan-out shape counters: thread-count-DEPENDENT by design, so sidecar
  // diffs across thread counts must not compare them (see
  // scripts/compare_bench_modes.py) — they are exported to show how much
  // partitioning a run actually did.
  state.counters["partitions_run"] =
      static_cast<double>(stats.partitions_run);
  state.counters["partition_skipped_small"] =
      static_cast<double>(stats.partition_skipped_small);
  state.counters["evaluator_clones"] =
      static_cast<double>(stats.evaluator_clones);
}

}  // namespace bench
}  // namespace mmv

#endif  // MMV_BENCH_BENCH_UTIL_H_
