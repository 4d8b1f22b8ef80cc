// E6 — what do supports cost? (StDel's prerequisite is a support per atom;
// the paper claims this bookkeeping is cheap.)
//
// Compares materialization under duplicate semantics (supports meaningful,
// one atom per derivation) against set semantics (canonical dedup), and
// reports per-view byte and atom counts. Expected shape: supports add a
// small constant per atom; the duplicate/set atom-count gap depends on the
// workload's proof redundancy (1x on chains, ~2x on diamonds).

#include "bench_util.h"

namespace mmv {
namespace bench {
namespace {

void BM_Materialize_DuplicateSemantics(benchmark::State& state) {
  World w = World::Make();
  Program p = workload::MakeDiamond(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)));
  View last;
  for (auto _ : state) {
    last = MustMaterialize(p, w.domains.get());
    benchmark::DoNotOptimize(last.size());
  }
  state.counters["atoms"] = static_cast<double>(last.size());
  state.counters["bytes"] = static_cast<double>(last.ApproxBytes());
  size_t support_nodes = 0;
  for (const ViewAtom& a : last.atoms()) {
    support_nodes += a.support.NodeCount();
  }
  state.counters["support_nodes"] = static_cast<double>(support_nodes);
}

void BM_Materialize_SetSemantics(benchmark::State& state) {
  World w = World::Make();
  Program p = workload::MakeDiamond(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)));
  View last;
  for (auto _ : state) {
    last = MustMaterialize(p, w.domains.get(), SetSemantics());
    benchmark::DoNotOptimize(last.size());
  }
  state.counters["atoms"] = static_cast<double>(last.size());
  state.counters["bytes"] = static_cast<double>(last.ApproxBytes());
}

void BM_SupportIndexProbe(benchmark::State& state) {
  // StDel's per-deletion support lookups against the view's maintained
  // indexes (formerly an O(|view|) rebuild per deletion call).
  World w = World::Make();
  Program p = workload::MakeChain(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  View view = MustMaterialize(p, w.domains.get());

  for (auto _ : state) {
    size_t hits = 0;
    for (const ViewAtom& a : view.atoms()) {
      hits += view.HasSupport(a.support) ? 1 : 0;
      view.ForEachParentOfChild(a.support, [&](size_t, size_t) { ++hits; });
    }
    benchmark::DoNotOptimize(hits);
  }
  View::IndexStats idx = view.index_stats();
  state.counters["atoms"] = static_cast<double>(view.size());
  state.counters["index_support_entries"] =
      static_cast<double>(idx.support_entries);
  state.counters["index_child_entries"] =
      static_cast<double>(idx.child_entries);
}

void Sizes(benchmark::internal::Benchmark* b) {
  b->Args({4, 16})->Args({8, 32})->Args({16, 64})->Unit(
      benchmark::kMillisecond);
}

BENCHMARK(BM_Materialize_DuplicateSemantics)->Apply(Sizes);
BENCHMARK(BM_Materialize_SetSemantics)->Apply(Sizes);
BENCHMARK(BM_SupportIndexProbe)->Apply(Sizes);

}  // namespace
}  // namespace bench
}  // namespace mmv
