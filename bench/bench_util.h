// Shared helpers for the benchmark suite. Each bench binary regenerates one
// experiment of EXPERIMENTS.md (E1-E8).

#ifndef MMV_BENCH_BENCH_UTIL_H_
#define MMV_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "core/counters.h"
#include "domain/registry.h"
#include "maintenance/batch.h"
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

/// \brief Exports every counter of \p stats — any struct generated from a
/// core/counters.h list — under its declared name.
template <typename Stats>
void ExportCounters(benchmark::State& state, const Stats& stats) {
  stats.ForEachCounter([&state](const CounterInfo& c, const auto& value) {
    state.counters[c.name] = static_cast<double>(value);
  });
}

/// \brief Work products the benches measure outside the stats structs,
/// declared once here so the sidecar classifies them like table counters.
inline const CounterInfo kBenchCounters[] = {
    {"view_atoms", CounterClass::kWork},  // atoms of the view a case runs on
    {"insertions", CounterClass::kWork},  // insert requests a case applies
    {"replayed", CounterClass::kWork},    // bursts recovery replayed
    {"replay_added", CounterClass::kWork},      // atoms those bursts added
    {"checkpoint_epoch", CounterClass::kWork},  // recovery's checkpoint
    {"atoms_added", CounterClass::kWork},  // atoms a run added (size diff)
    {"asks_true", CounterClass::kWork},    // point reads answered true
};

/// \brief The declared class of sidecar counter \p name: a stats-table
/// counter or one of kBenchCounters. Null for names nothing declares
/// (timings, and shapes a case reports for context).
inline const CounterClass* DeclaredClass(const std::string& name) {
  static const std::map<std::string, CounterClass> classes = [] {
    std::map<std::string, CounterClass> m;
    auto add = [&m](const CounterInfo& c, const auto&) {
      m.emplace(c.name, c.cls);
    };
    FixpointStats().ForEachCounter(add);
    maint::StDelStats().ForEachCounter(add);
    maint::InsertStats().ForEachCounter(add);
    maint::BatchStats().ForEachCounter(add);
    for (const CounterInfo& c : kBenchCounters) m.emplace(c.name, c.cls);
    return m;
  }();
  auto it = classes.find(name);
  return it == classes.end() ? nullptr : &it->second;
}

}  // namespace bench
}  // namespace mmv

#endif  // MMV_BENCH_BENCH_UTIL_H_
