// E9 — batched maintenance: a K-update burst through the coalescing
// pipeline (ApplyBatch: one multi-atom StDel pass + one seminaive
// insertion pass per run) against the paper's one-update-at-a-time regime
// (ApplyUpdatesSequential). The headline number: on the deletion-heavy
// workload a K=64 burst must cost at most half the sequential wall time —
// sequential pays K markings, K constraint snapshots and K prunes where the
// pipeline pays one of each.
//
// Bursts are written and re-read through the burst-workload text format
// (parser::SerializeBurst / ParseBurst), the same artifact the tests replay.

#include "bench_util.h"

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/snapshot.h"
#include "maintenance/batch.h"
#include "parser/view_io.h"

namespace mmv {
namespace bench {
namespace {

std::vector<maint::Update> ParseBurstOrAbort(const std::string& text,
                                             Program* p) {
  Result<std::vector<parser::ParsedUpdate>> parsed =
      parser::ParseBurst(text, p);
  if (!parsed.ok()) std::abort();
  std::vector<maint::Update> burst;
  burst.reserve(parsed->size());
  for (parser::ParsedUpdate& u : *parsed) {
    maint::UpdateAtom atom{std::move(u.atom.pred), std::move(u.atom.args),
                           std::move(u.atom.constraint)};
    burst.push_back(u.is_delete ? maint::Update::Delete(std::move(atom))
                                : maint::Update::Insert(std::move(atom)));
  }
  return burst;
}

// Deletion-heavy: delete K distinct facts of the first chain of a
// multi-chain view in one burst. The untouched sibling chains model the
// rest of a production view: every sequential pass still pays marking,
// constraint-snapshotting and pruning over ALL of it, which is exactly the
// per-pass overhead the pipeline amortizes.
std::string DeletionBurstText(int k) {
  std::ostringstream os;
  for (int i = 0; i < k; ++i) {
    os << "del c0_p0(X) <- X = " << i << ".\n";
  }
  return os.str();
}

// Mixed: K/2 deletions of existing facts, then K/2 inserts of fresh facts.
std::string MixedBurstText(int k, int width) {
  std::ostringstream os;
  for (int i = 0; i < k / 2; ++i) {
    os << "del p0(X) <- X = " << i << ".\n";
  }
  for (int i = 0; i < k - k / 2; ++i) {
    os << "ins p0(X) <- X = " << width + i << ".\n";
  }
  return os.str();
}

// Fully-cancelling: K/2 insert+retract pairs of absent facts. The planner
// reduces each pair to a single delete, which then provably matches
// nothing. (Delete+re-insert pairs of PRESENT chain facts must execute —
// re-inserting a rule body predicate re-derives its descendants.)
std::string CancellingBurstText(int k, int width) {
  std::ostringstream os;
  for (int i = 0; i < k / 2; ++i) {
    os << "ins p0(X) <- X = " << width + i << ".\n";
    os << "del p0(X) <- X = " << width + i << ".\n";
  }
  return os.str();
}

void RunBurst(benchmark::State& state, const std::string& burst_text,
              Program p, bool pipelined,
              const FixpointOptions* options = nullptr) {
  World w = World::Make();
  FixpointOptions opts = options ? *options : DefaultOptions();
  View base = MustMaterialize(p, w.domains.get(), opts);
  std::vector<maint::Update> burst = ParseBurstOrAbort(burst_text, &p);

  maint::BatchStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    state.ResumeTiming();
    Status s = pipelined
                   ? maint::ApplyBatch(p, &v, burst, w.domains.get(), opts,
                                       &stats)
                   : maint::ApplyUpdatesSequential(p, &v, burst,
                                                   w.domains.get(), opts,
                                                   &stats);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(v.size());
  }
  state.counters["updates"] = static_cast<double>(burst.size());
  state.counters["coalesced"] = static_cast<double>(stats.coalesced_away);
  state.counters["delete_passes"] = static_cast<double>(stats.delete_passes);
  state.counters["insert_passes"] = static_cast<double>(stats.insert_passes);
  state.counters["replacements"] = static_cast<double>(stats.replacements);
  state.counters["step3"] = static_cast<double>(stats.step3_replacements);
  state.counters["added"] = static_cast<double>(stats.insertion_pass_atoms);
  state.counters["plan_reorders"] = static_cast<double>(stats.plan_reorders);
  state.counters["probe_intersections"] =
      static_cast<double>(stats.probe_intersections);
  state.counters["plan_cache_hits"] =
      static_cast<double>(stats.plan_cache_hits);
}

// {depth, K}: 8 chains of K facts each; the burst clears chain 0.
void BM_DeletionBurst_Batch(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  RunBurst(state, DeletionBurstText(k),
           workload::MakeMultiChain(8, static_cast<int>(state.range(0)), k),
           /*pipelined=*/true);
}
void BM_DeletionBurst_Sequential(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  RunBurst(state, DeletionBurstText(k),
           workload::MakeMultiChain(8, static_cast<int>(state.range(0)), k),
           /*pipelined=*/false);
}

void BM_MixedBurst_Batch(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  int width = k + 32;
  RunBurst(state, MixedBurstText(k, width),
           workload::MakeChain(static_cast<int>(state.range(0)), width),
           /*pipelined=*/true);
}
void BM_MixedBurst_Sequential(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  int width = k + 32;
  RunBurst(state, MixedBurstText(k, width),
           workload::MakeChain(static_cast<int>(state.range(0)), width),
           /*pipelined=*/false);
}

// Bulk load: a K-insert burst into an EMPTY guarded multi-chain view (8
// chains, round-robin requests, every level re-joining its chain's base
// relation), through the full batch pipeline. With no existing facts the
// BuildAdd diffing is near-free and the one seminaive insertion
// continuation — the join — dominates, so this is the bench_batch case the
// join-mode comparison is scored on. {depth, K, mode}.
std::string BulkLoadBurstText(int k) {
  std::ostringstream os;
  for (int i = 0; i < k; ++i) {
    os << "ins c" << (i % 8) << "_p0(X) <- X = " << (i / 8) << ".\n";
  }
  return os.str();
}

void BM_BulkLoadBurst_Batch(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = ModeArg(state.range(2));
  RunBurst(state, BulkLoadBurstText(k),
           workload::MakeGuardedMultiChain(
               8, static_cast<int>(state.range(0)), /*width=*/0),
           /*pipelined=*/true, &opts);
}

// The bulk load thread-paired (the parallel-strata engine under the full
// batch pipeline): trailing arg 0 = 1 thread, 1 = every hardware thread;
// join mode pinned to kIndexed (parallel execution requires the planned
// executor). The .../0 vs .../1 twins must report identical work-product
// counters — CI diffs them. {depth, K, threads flag}.
void BM_BulkLoadBurst_BatchThreads(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = JoinMode::kIndexed;
  opts.num_threads = ThreadsArg(state.range(2));
  state.counters["threads"] = static_cast<double>(opts.num_threads);
  RunBurst(state, BulkLoadBurstText(k),
           workload::MakeGuardedMultiChain(
               8, static_cast<int>(state.range(0)), /*width=*/0),
           /*pipelined=*/true, &opts);
}

// Snapshot serving (core/snapshot.h): a reader thread continuously pins
// the latest epoch and enumerates it WHILE a K-update deletion burst
// applies through ApplyBatch against a SnapshotStore. Manual time measures
// the batch alone (the writer's cost with a concurrent reader attached);
// `reader_qps` reports how many full-view snapshot reads the reader
// completed per second of batch time. The reader is a plain std::thread so
// the engine's ThreadPool stays free for the writer's parallel fan-out.
// Work-product counters stay deterministic (the sidecar diff compares
// them); snapshot_reads/reader_qps are timing-dependent by nature and are
// excluded from COMPARED. {depth, K}.
void BM_SnapshotReadDuringBatch(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  Program p =
      workload::MakeMultiChain(8, static_cast<int>(state.range(0)), k);
  World w = World::Make();
  FixpointOptions opts = DefaultOptions();
  View base = MustMaterialize(p, w.domains.get(), opts);
  std::vector<maint::Update> burst = ParseBurstOrAbort(DeletionBurstText(k),
                                                       &p);

  maint::BatchStats stats;
  int64_t reads = 0;
  double batch_seconds = 0.0;
  for (auto _ : state) {
    View v = base;
    SnapshotStore store;
    store.Publish(v);  // epoch 1 = the pre-burst view
    std::atomic<bool> stop{false};
    int64_t local_reads = 0;
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotHandle h = store.Pin();
        Result<query::InstanceSet> r =
            query::EnumerateView(h, w.domains.get());
        if (!r.ok()) std::abort();
        benchmark::DoNotOptimize(r->instances.size());
        ++local_reads;
      }
    });
    auto start = std::chrono::steady_clock::now();
    Status s = maint::ApplyBatch(p, &v, burst, w.domains.get(), opts, &stats,
                                 nullptr, &store);
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    stop.store(true, std::memory_order_release);
    reader.join();
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    state.SetIterationTime(elapsed.count());
    reads += local_reads;
    batch_seconds += elapsed.count();
    benchmark::DoNotOptimize(v.size());
  }
  state.counters["updates"] = static_cast<double>(burst.size());
  state.counters["coalesced"] = static_cast<double>(stats.coalesced_away);
  state.counters["delete_passes"] = static_cast<double>(stats.delete_passes);
  state.counters["insert_passes"] = static_cast<double>(stats.insert_passes);
  state.counters["replacements"] = static_cast<double>(stats.replacements);
  state.counters["step3"] = static_cast<double>(stats.step3_replacements);
  state.counters["epochs_published"] =
      static_cast<double>(stats.epochs_published);
  state.counters["snapshot_nodes_shared"] =
      static_cast<double>(stats.snapshot_nodes_shared);
  state.counters["snapshot_nodes_copied"] =
      static_cast<double>(stats.snapshot_nodes_copied);
  state.counters["snapshot_reads"] = static_cast<double>(reads);
  state.counters["reader_qps"] =
      batch_seconds > 0 ? static_cast<double>(reads) / batch_seconds : 0.0;
}

// Snapshot PUBLICATION cost, copy-on-write vs the whole-view deep copy it
// replaced: a K-update burst dirties chain 0 of an 8-chain view in
// PauseTiming (alternating delete/re-insert keeps the view bounded), then
// the timed region is JUST the publication step. Mode 1 extracts the
// immutable image — the 28 untouched per-pred segments are re-pointed at
// the previous epoch, only chain 0's 4 are copied — and publishes it;
// mode 0 pays what SnapshotStore::Publish cost before images existed, a
// full View copy. The cow flag is the FIRST arg on purpose (the sidecar
// comparator pairs names ending in /0 vs /1 as same-work twins, and the
// two modes' sharing counters legitimately differ). The priming full
// extraction happens in setup, so snapshot_nodes_shared/copied report the
// steady state of the LAST iteration — deterministic whatever iteration
// count the harness picks. {cow, width, K}.
void BM_SnapshotPublish(benchmark::State& state) {
  const bool cow = state.range(0) != 0;
  const int width = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  Program p = workload::MakeMultiChain(8, 4, width);
  World w = World::Make();
  FixpointOptions opts = DefaultOptions();
  View live = MustMaterialize(p, w.domains.get(), opts);
  const double base_atoms = static_cast<double>(live.size());

  std::ostringstream ins;
  for (int i = 0; i < k; ++i) ins << "ins c0_p0(X) <- X = " << i << ".\n";
  std::vector<maint::Update> del_burst =
      ParseBurstOrAbort(DeletionBurstText(k), &p);
  std::vector<maint::Update> ins_burst = ParseBurstOrAbort(ins.str(), &p);

  SnapshotStore store;
  store.Publish(live);  // the priming (whole-view) extraction
  View::ImageExtractStats last;
  bool deleting = true;
  for (auto _ : state) {
    state.PauseTiming();
    const std::vector<maint::Update>& burst = deleting ? del_burst
                                                       : ins_burst;
    deleting = !deleting;
    Status s = maint::ApplyBatch(p, &live, burst, w.domains.get(), opts,
                                 nullptr);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    state.ResumeTiming();
    if (cow) {
      View::ImageExtractStats es;
      store.PublishImage(live.ExtractImage(&es));
      last = es;
    } else {
      View copy = live;  // the pre-CoW publication: copy everything
      benchmark::DoNotOptimize(copy.size());
    }
  }
  state.counters["updates"] = static_cast<double>(k);
  state.counters["view_atoms"] = base_atoms;
  state.counters["snapshot_nodes_shared"] =
      static_cast<double>(last.segments_shared);
  state.counters["snapshot_nodes_copied"] =
      static_cast<double>(last.segments_copied);
}

void BM_CancellingBurst_Batch(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  RunBurst(state, CancellingBurstText(k, k + 32),
           workload::MakeChain(static_cast<int>(state.range(0)), k + 32),
           /*pipelined=*/true);
}
void BM_CancellingBurst_Sequential(benchmark::State& state) {
  int k = static_cast<int>(state.range(1));
  RunBurst(state, CancellingBurstText(k, k + 32),
           workload::MakeChain(static_cast<int>(state.range(0)), k + 32),
           /*pipelined=*/false);
}

void BurstArgs(benchmark::internal::Benchmark* b) {
  // {chain depth, burst size K}
  b->Args({4, 8})
      ->Args({4, 64})
      ->Args({8, 64})
      ->Unit(benchmark::kMillisecond);
}

void BulkLoadArgs(benchmark::internal::Benchmark* b) {
  // {chain depth, burst size K, join mode (0 = naive, 1 = indexed)}
  for (int64_t mode : {0, 1}) {
    b->Args({8, 16, mode})->Args({16, 64, mode})->Args({32, 64, mode});
  }
  b->Unit(benchmark::kMillisecond);
}

void BulkLoadThreadArgs(benchmark::internal::Benchmark* b) {
  // {chain depth, burst size K, threads flag (0 = 1 thread, 1 = hardware)}
  for (int64_t threads : {0, 1}) {
    b->Args({8, 16, threads})->Args({16, 64, threads})->Args(
        {32, 64, threads});
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_DeletionBurst_Batch)->Apply(BurstArgs);
BENCHMARK(BM_DeletionBurst_Sequential)->Apply(BurstArgs);
BENCHMARK(BM_MixedBurst_Batch)->Apply(BurstArgs);
BENCHMARK(BM_MixedBurst_Sequential)->Apply(BurstArgs);
BENCHMARK(BM_CancellingBurst_Batch)->Apply(BurstArgs);
BENCHMARK(BM_CancellingBurst_Sequential)->Apply(BurstArgs);
BENCHMARK(BM_SnapshotReadDuringBatch)
    ->Args({4, 64})
    ->Args({8, 64})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
// {cow, width, K}: width facts per base pred (8 chains x 4 levels), burst
// touches chain 0 only. The largest-width / smallest-K case is the
// headline: publication cost must track the DELTA, not the view.
BENCHMARK(BM_SnapshotPublish)
    ->Args({0, 64, 8})
    ->Args({1, 64, 8})
    ->Args({0, 256, 8})
    ->Args({1, 256, 8})
    ->Args({0, 256, 64})
    ->Args({1, 256, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BulkLoadBurst_Batch)->Apply(BulkLoadArgs);
BENCHMARK(BM_BulkLoadBurst_BatchThreads)->Apply(BulkLoadThreadArgs);

}  // namespace
}  // namespace bench
}  // namespace mmv
