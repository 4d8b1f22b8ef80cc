#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "core/fixpoint.h"
#include "core/snapshot.h"
#include "domain/registry.h"
#include "durability/durable_log.h"
#include "parser/view_io.h"
#include "query/query.h"
#include "relational/catalog.h"
#include "workload/generators.h"
#include "workload/law_enforcement.h"

namespace perfbench {

using mmv::Result;
using mmv::Status;
using mmv::Symbol;
using mmv::Term;
using mmv::Value;
using mmv::View;

namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Peak resident set of this process, from VmHWM in /proc/self/status.
/// (getrusage's ru_maxrss would not do: across exec it keeps the peak of
/// the process that started this one, so under a launcher larger than the
/// workload it reports the launcher.) 0 where /proc is missing.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

/// Catalog + standard domains: the evaluator every workload queries
/// through (chain-churn and tc-recursive make no domain calls).
struct World {
  std::unique_ptr<mmv::rel::Catalog> catalog =
      std::make_unique<mmv::rel::Catalog>();
  std::unique_ptr<mmv::dom::DomainManager> domains =
      std::make_unique<mmv::dom::DomainManager>(&catalog->clock());
  World() {
    if (!mmv::dom::RegisterStandardDomains(domains.get(), catalog.get())
             .ok()) {
      std::abort();
    }
  }
};

Result<std::vector<mmv::maint::Update>> ParseUpdates(const std::string& text,
                                                     mmv::Program* program) {
  MMV_ASSIGN_OR_RETURN(std::vector<mmv::parser::ParsedUpdate> parsed,
                       mmv::parser::ParseBurst(text, program));
  std::vector<mmv::maint::Update> updates;
  updates.reserve(parsed.size());
  for (mmv::parser::ParsedUpdate& u : parsed) {
    mmv::maint::UpdateAtom atom{std::move(u.atom.pred), std::move(u.atom.args),
                                std::move(u.atom.constraint)};
    updates.push_back(u.is_delete
                          ? mmv::maint::Update::Delete(std::move(atom))
                          : mmv::maint::Update::Insert(std::move(atom)));
  }
  return updates;
}

/// State shared by the burst path of every workload.
struct BurstContext {
  mmv::Program* program;
  View* view;
  CountingEvaluator* evaluator;
  mmv::FixpointOptions options;
  mmv::SnapshotStore* store = nullptr;
  TracedBurstLog* log = nullptr;
  int* ext_counter = nullptr;
};

/// One burst, from its text to ApplyBatch's return, timed and traced. The
/// traced run also times PlanBatch on a second parse of the same burst,
/// outside the burst's span: ApplyBatch plans again internally, so the
/// update path is the same in both runs (the second parse only draws more
/// variable ids; the self test shows the work products stay identical).
Status RunBurst(const BurstContext& ctx, const std::string& text, int64_t op,
                RunResult* out) {
  Tracer* tr = &out->writer_trace;
  mmv::maint::BatchStats stats;
  Status status;
  int64_t calls0 = ctx.evaluator->calls();
  int64_t t0 = NowNs();
  {
    ScopedSpan burst(tr, "burst", op);
    Result<std::vector<mmv::maint::Update>> updates = [&] {
      ScopedSpan parse(tr, "parser.parse", op);
      return ParseUpdates(text, ctx.program);
    }();
    if (!updates.ok()) {
      status = updates.status();
    } else {
      if (ctx.log != nullptr) ctx.log->set_op(op);
      ScopedSpan apply(tr, "batch.apply", op);
      status = mmv::maint::ApplyBatch(*ctx.program, ctx.view, *updates,
                                      ctx.evaluator, ctx.options, &stats,
                                      ctx.ext_counter, ctx.store, ctx.log);
      if (tr->enabled() && ctx.log != nullptr && status.ok()) {
        tr->Add("snapshot.publish", op, apply.id(), ctx.log->commit_end_ns(),
                NowNs());
      }
    }
  }
  int64_t elapsed = NowNs() - t0;
  if (tr->enabled() && status.ok()) {
    Result<std::vector<mmv::maint::Update>> again =
        ParseUpdates(text, ctx.program);
    if (again.ok()) {
      ScopedSpan plan(tr, "batch.plan", op);
      mmv::maint::BatchPlan p = mmv::maint::PlanBatch(*ctx.program, *again);
      (void)p;
    }
  }
  out->domain_calls_updates += ctx.evaluator->calls() - calls0;
  out->op_busy_ns += elapsed;
  out->update_ms.Add(static_cast<double>(elapsed) * 1e-6);
  out->writer_busy_s += Seconds(elapsed);
  ++out->bursts;
  ++out->attempted;
  out->stats += stats;
  out->update_requests += static_cast<int64_t>(stats.input_updates);
  if (!status.ok()) {
    ++out->failed;
    out->errors.push_back("burst " + std::to_string(op) +
                          " failed: " + status.ToString());
  }
  return status;
}

/// Set-up samples. A run sets up once before its warm-up; that instance is
/// the one it measures. A time-bounded run then, every kSetupEveryS of
/// warm-up and window, sets up throwaway instances for kSetupSliceS (at
/// least one), outside the window's time; setup_s is the median of all of
/// them. Spread over the whole run, the set-ups see the host at the speeds
/// the window's operations see it at. Set-ups taken back to back, even for
/// a second, follow the host's speed in that second, which drifts between
/// runs by more than setup_s's bound.
constexpr double kWarmupS = 2;
constexpr double kSetupEveryS = 1;
constexpr double kSetupSliceS = 0.02;

/// The measurement window. A time-bounded run first warms up for
/// kWarmupS — the same operations, unmeasured — so that heap growth and
/// first-touch costs fall outside the window; an operation-bounded run
/// (the self test) measures from its first operation and takes no further
/// set-up samples.
class Window {
 public:
  /// \p throwaway_setup sets up, times and drops one instance.
  Window(const RunConfig& config, std::function<Status()> throwaway_setup)
      : config_(config),
        throwaway_setup_(std::move(throwaway_setup)),
        start_ns_(NowNs()),
        measure_ns_(start_ns_),
        last_setup_ns_(start_ns_) {}
  /// True while operation number \p ops (0-based) should still run. Runs
  /// the set-up samples that are due; false once one fails.
  bool Open(int64_t ops) {
    if (Bounded()) return ops < config_.max_ops;
    if (Seconds(NowNs() - last_setup_ns_) >= kSetupEveryS &&
        !SampleSetups()) {
      return false;
    }
    return Run() < kWarmupS + config_.seconds;
  }
  bool Bounded() const { return config_.max_ops > 0; }
  /// True exactly once: at the first call after the warm-up ended.
  bool StartsMeasuring() {
    if (measuring_) return false;
    if (!Bounded() && Run() < kWarmupS) return false;
    measuring_ = true;
    measure_ns_ = NowNs();
    paused_at_measure_ns_ = paused_ns_;
    return true;
  }
  /// Time since measurement started, set-up samples excluded.
  double Elapsed() const {
    return Seconds(NowNs() - measure_ns_ -
                   (paused_ns_ - paused_at_measure_ns_));
  }

 private:
  /// Time since the window was made, set-up samples excluded.
  double Run() const { return Seconds(NowNs() - start_ns_ - paused_ns_); }

  bool SampleSetups() {
    int64_t t0 = NowNs();
    Status status;
    do {
      status = throwaway_setup_();
    } while (status.ok() && Seconds(NowNs() - t0) < kSetupSliceS);
    last_setup_ns_ = NowNs();
    paused_ns_ += last_setup_ns_ - t0;
    return status.ok();
  }

  const RunConfig& config_;
  std::function<Status()> throwaway_setup_;
  int64_t start_ns_;
  int64_t measure_ns_;
  int64_t last_setup_ns_;
  int64_t paused_ns_ = 0;
  int64_t paused_at_measure_ns_ = 0;
  bool measuring_ = false;
};

/// Drops what the warm-up recorded. Operation, failure and error counts
/// stay: they cover the whole run.
void ResetMeasurements(RunResult* out, bool trace) {
  out->update_ms.Clear();
  out->query_us.Clear();
  out->bursts = out->update_requests = out->queries = 0;
  out->query_instances = out->external_updates = 0;
  out->writer_busy_s = 0;
  out->stats = mmv::maint::BatchStats{};
  out->domain_calls_updates = out->domain_calls_queries = 0;
  out->op_busy_ns = 0;
  out->writer_trace = Tracer(trace);
}

// ---- chain-churn -----------------------------------------------------------

constexpr int kChains = 8;
constexpr int kChainDepth = 8;
constexpr int kChainWidth = 128;
constexpr int kPinnedIds = 16;   // ids [0, 16) of every chain stay live
constexpr int kChurnDeletes = 14;
constexpr int kChurnPairs = 2;   // ins+del of an absent fact, coalesced
constexpr uint64_t kCheckpointEvery = 16;
constexpr uint64_t kFullCheckpointInterval = 4;
// The run stops at a fixed phase of the checkpoint cycle, so every run's
// recovery composes the same chain shape and replays the same WAL tail.
constexpr int64_t kCheckpointCycle =
    static_cast<int64_t>(kCheckpointEvery * kFullCheckpointInterval);
constexpr int64_t kStopPhase = 40;

std::string ChainPred(int chain, int level) {
  return "c" + std::to_string(chain) + "_p" + std::to_string(level);
}

/// The benchmark's model of the base facts, and the burst generator.
class ChurnModel {
 public:
  explicit ChurnModel(uint64_t seed) : rng_(seed), live_(kChains) {
    deletable_.resize(kChains);
    for (int c = 0; c < kChains; ++c) {
      for (int64_t i = 0; i < kChainWidth; ++i) {
        live_[c].insert(i);
        if (i >= kPinnedIds) deletable_[c].push_back(i);
      }
    }
  }

  /// 32 updates: two insert+delete pairs of absent facts (the planner
  /// drops the inserts), 14 deletions of live facts, 14 fresh inserts on
  /// the same chains — each chain keeps its size.
  std::string NextBurst() {
    std::ostringstream os;
    for (int i = 0; i < kChurnPairs; ++i) {
      std::string pred = ChainPred(Chain(), 0);
      int64_t id = next_id_++;
      os << "ins " << pred << "(X) <- X = " << id << ".\n";
      os << "del " << pred << "(X) <- X = " << id << ".\n";
    }
    std::vector<int> chains;
    for (int i = 0; i < kChurnDeletes; ++i) {
      int c = Chain();
      std::vector<int64_t>& pool = deletable_[c];
      size_t k = static_cast<size_t>(
          rng_.Int(0, static_cast<int64_t>(pool.size()) - 1));
      int64_t id = pool[k];
      pool[k] = pool.back();
      pool.pop_back();
      live_[c].erase(id);
      chains.push_back(c);
      os << "del " << ChainPred(c, 0) << "(X) <- X = " << id << ".\n";
    }
    for (int c : chains) {
      int64_t id = next_id_++;
      deletable_[c].push_back(id);
      live_[c].insert(id);
      os << "ins " << ChainPred(c, 0) << "(X) <- X = " << id << ".\n";
    }
    return os.str();
  }

  const std::vector<std::set<int64_t>>& live() const { return live_; }

 private:
  int Chain() { return static_cast<int>(rng_.Int(0, kChains - 1)); }

  mmv::Rng rng_;
  std::vector<std::set<int64_t>> live_;
  std::vector<std::vector<int64_t>> deletable_;
  int64_t next_id_ = kChainWidth;
};

/// What a chain-churn set-up builds.
struct ChainInstance {
  mmv::Program program;
  View view;
  std::unique_ptr<mmv::SnapshotStore> store;
  std::unique_ptr<mmv::durability::DurableLog> log;
};

RunResult RunChainChurn(const RunConfig& config) {
  RunResult out;
  out.writer_trace = Tracer(config.trace);
  out.durable = true;
  out.notes = {"sync=every-batch", "checkpoint_every_records=16",
               "full_checkpoint_interval=4", "fs=posix", "engine_threads=1",
               "reader_threads=1"};
  World world;
  CountingEvaluator eval(world.domains.get(), config.trace);
  mmv::durability::PosixFs posix;
  CountingFs fs(&posix, config.trace);
  mmv::durability::DurabilityOptions dopts;
  dopts.sync = mmv::durability::SyncPolicy::kEveryBatch;
  dopts.checkpoint_every_records = kCheckpointEvery;
  dopts.full_checkpoint_interval = kFullCheckpointInterval;
  mmv::FixpointOptions fopts;

  // Set-up: generate, materialize, publish, create the log (which writes
  // the initial full checkpoint) in a fresh state directory. Throwaway
  // instances get an evaluator and an Fs of their own, so that nothing they
  // do shows in the run's counts. A state directory is removed when its
  // instance is done with, on error paths too.
  auto set_up = [&](CountingEvaluator* ev, mmv::durability::Fs* on,
                    const std::string& dir, ChainInstance* into) -> Status {
    std::filesystem::remove_all(dir);
    int64_t t0 = NowNs();
    into->program = mmv::workload::MakeGuardedMultiChain(kChains, kChainDepth,
                                                         kChainWidth);
    MMV_ASSIGN_OR_RETURN(into->view,
                         mmv::Materialize(into->program, ev, fopts));
    into->store = std::make_unique<mmv::SnapshotStore>();
    into->store->Publish(into->view);
    MMV_ASSIGN_OR_RETURN(
        into->log, mmv::durability::DurableLog::Create(
                       on, dir, into->program, into->view,
                       into->store->epoch(), /*ext_counter=*/0, dopts));
    out.setup_s.push_back(Seconds(NowNs() - t0));
    return Status::OK();
  };
  struct RemoveDir {
    std::string dir;
    ~RemoveDir() { std::filesystem::remove_all(dir); }
  };
  const std::string prefix =
      config.state_root + "/chain-churn-" + std::to_string(getpid());
  RemoveDir live_dir{prefix}, scratch_dir{prefix + "-setup"};
  const std::string& dir = live_dir.dir;
  ChainInstance live;
  if (Status s = set_up(&eval, &fs, dir, &live); !s.ok()) {
    out.errors.push_back("set-up: " + s.ToString());
    return out;
  }
  fs.Reset();
  World scratch_world;
  CountingEvaluator scratch_eval(scratch_world.domains.get(), false);
  CountingFs scratch_fs(&posix, false);
  // Set by the writer while it takes a set-up sample; the reader waits.
  std::atomic<bool> reader_paused{false};
  auto throwaway_setup = [&]() -> Status {
    reader_paused.store(true, std::memory_order_release);
    Status s;
    {
      ChainInstance scratch;
      s = set_up(&scratch_eval, &scratch_fs, scratch_dir.dir, &scratch);
    }
    std::filesystem::remove_all(scratch_dir.dir);
    reader_paused.store(false, std::memory_order_release);
    if (!s.ok()) out.errors.push_back("set-up: " + s.ToString());
    return s;
  };
  mmv::Program& program = live.program;
  View& view = live.view;
  mmv::SnapshotStore* store = live.store.get();

  TracedBurstLog traced_log(live.log.get(), &out.writer_trace);
  BurstContext ctx{&program, &view, &eval, fopts, store, &traced_log,
                   live.log->ext_counter()};
  ChurnModel model(config.seed);

  // Reader: point Asks on pinned snapshots. Ids [0, kPinnedIds) are never
  // deleted and negative ids never inserted, so every answer is known
  // whatever epoch the pin lands on.
  std::vector<Symbol> preds;
  for (int c = 0; c < kChains; ++c) {
    for (int l = 0; l <= kChainDepth; ++l) preds.push_back(ChainPred(c, l));
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<std::string> reader_errors;
  int64_t reader_attempted = 0, reader_failed = 0, reader_calls = 0;
  int64_t busy_at_start = 0;
  Samples reader_us;
  int64_t reader_busy_ns = 0;
  Tracer reader_trace(config.trace);
  std::thread reader([&] {
    mmv::Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 1);
    bool measured = false;
    for (int64_t q = 0; !stop.load(std::memory_order_acquire); ++q) {
      if (reader_paused.load(std::memory_order_acquire)) {
        std::this_thread::yield();
        continue;
      }
      if (!measured && measuring.load(std::memory_order_acquire)) {
        measured = true;  // warm-up over: drop what it recorded
        reader_us.Clear();
        reader_busy_ns = reader_calls = 0;
        reader_trace = Tracer(config.trace);
      }
      Symbol pred = rng.Pick(preds);
      bool present = rng.Chance(0.5);
      int64_t id = present ? rng.Int(0, kPinnedIds - 1) : -rng.Int(1, 1000);
      int64_t calls0 = eval.calls();
      int64_t t0 = NowNs();
      Result<bool> answer = false;
      {
        ScopedSpan root(&reader_trace, "query", q);
        mmv::SnapshotHandle pin = [&] {
          ScopedSpan span(&reader_trace, "snapshot.pin", q);
          return store->Pin();
        }();
        ScopedSpan span(&reader_trace, "query.eval", q);
        answer = mmv::query::Ask(pin, pred, {Value(id)}, &eval);
      }
      int64_t elapsed = NowNs() - t0;
      reader_busy_ns += elapsed;
      reader_calls += eval.calls() - calls0;
      reader_us.Add(static_cast<double>(elapsed) * 1e-3);
      ++reader_attempted;
      if (!answer.ok()) {
        ++reader_failed;
        if (reader_errors.size() < 5) {
          reader_errors.push_back("ask failed: " + answer.status().ToString());
        }
      } else if (*answer != present) {
        if (reader_errors.size() < 5) {
          reader_errors.push_back("ask " + pred.name() + "(" +
                                  std::to_string(id) + ") answered " +
                                  (*answer ? "true" : "false"));
        }
      }
    }
  });

  Window window(config, throwaway_setup);
  for (int64_t b = 0;; ++b) {
    bool open = window.Open(b);
    // Past the time limit, finish the checkpoint cycle up to its stop
    // phase (the self test's operation bound stops exactly).
    if (!open && (window.Bounded() || !out.errors.empty() ||
                  b % kCheckpointCycle == kStopPhase)) {
      break;
    }
    if (window.StartsMeasuring()) {
      ResetMeasurements(&out, config.trace);
      fs.Reset();
      busy_at_start = eval.busy_ns();
      measuring.store(true, std::memory_order_release);
    }
    if (!RunBurst(ctx, model.NextBurst(), b, &out).ok()) break;
  }
  out.window_s = window.Elapsed();
  stop.store(true, std::memory_order_release);
  reader.join();
  out.queries = reader_us.count();
  out.query_us = std::move(reader_us);
  out.attempted += reader_attempted;
  out.failed += reader_failed;
  out.domain_calls_queries = reader_calls;
  out.op_busy_ns += reader_busy_ns;
  out.errors.insert(out.errors.end(), reader_errors.begin(),
                    reader_errors.end());
  out.reader_trace = std::move(reader_trace);
  out.fs = fs.counters();
  out.domain_busy_ns = eval.busy_ns() - busy_at_start;

  if (out.errors.empty()) {
    Status s = CheckChainLevels(view, &eval, kChainDepth, model.live());
    if (!s.ok()) out.errors.push_back(s.ToString());
  }

  // Recovery of the state directory after the last burst, three times;
  // each recovered image must equal the live one byte for byte.
  std::string live_image = mmv::parser::SerializeImage(*store->Pin()->image);
  live.log.reset();
  for (int r = 0; r < 3 && out.errors.empty(); ++r) {
    mmv::Program fresh = mmv::workload::MakeGuardedMultiChain(
        kChains, kChainDepth, kChainWidth);
    mmv::SnapshotStore recovered_store;
    mmv::durability::RecoveryInfo info;
    int64_t read0 = fs.counters().read_bytes;
    int64_t t0 = NowNs();
    auto recovered = [&] {
      ScopedSpan span(&out.writer_trace, "durability.recover", r);
      return mmv::durability::DurableLog::Recover(
          &fs, dir, &fresh, &eval, fopts, &recovered_store, &info, dopts);
    }();
    out.recovery_s.push_back(Seconds(NowNs() - t0));
    ++out.attempted;
    if (!recovered.ok()) {
      ++out.failed;
      out.errors.push_back("recover: " + recovered.status().ToString());
      break;
    }
    out.recovery = info;
    out.recover_read_bytes = fs.counters().read_bytes - read0;
    View rv = (*recovered)->TakeRecoveredView();
    Status same = CheckSameImage(
        live_image, mmv::parser::SerializeImage(*rv.ExtractImage()));
    if (!same.ok()) out.errors.push_back(same.ToString());
  }
  return out;
}

// ---- tc-recursive ----------------------------------------------------------

constexpr int kTcChains = 25;
constexpr int kTcChainNodes = 24;
constexpr int kTcToggles = 4;      // edges taken out per burst
constexpr int kTcAsksPerBurst = 2;

using Edge = std::pair<int64_t, int64_t>;

/// The live edge set and the burst generator: each burst puts back the
/// edges the previous burst took out, then takes out kTcToggles others.
class ToggleModel {
 public:
  explicit ToggleModel(uint64_t seed) : rng_(seed) {
    for (int c = 0; c < kTcChains; ++c) {
      for (int i = 0; i + 1 < kTcChainNodes; ++i) {
        int64_t a = c * kTcChainNodes + i;
        universe_.push_back({a, a + 1});
        live_.insert({a, a + 1});
      }
    }
  }

  std::string NextBurst() {
    std::ostringstream os;
    for (const Edge& e : out_) {
      os << "ins e(X, Y) <- X = " << e.first << " & Y = " << e.second
         << ".\n";
      live_.insert(e);
    }
    std::set<Edge> back(out_.begin(), out_.end());
    out_.clear();
    while (static_cast<int>(out_.size()) < kTcToggles) {
      const Edge& e = rng_.Pick(universe_);
      if (back.count(e) || !live_.count(e)) continue;
      live_.erase(e);
      out_.push_back(e);
      os << "del e(X, Y) <- X = " << e.first << " & Y = " << e.second
         << ".\n";
    }
    return os.str();
  }

  /// A random pair of nodes, mostly within one chain.
  std::pair<int64_t, int64_t> Probe() {
    int64_t c = rng_.Int(0, kTcChains - 1);
    int64_t a = c * kTcChainNodes + rng_.Int(0, kTcChainNodes - 1);
    int64_t b = rng_.Chance(0.9)
                    ? c * kTcChainNodes + rng_.Int(0, kTcChainNodes - 1)
                    : rng_.Int(0, kTcChains * kTcChainNodes - 1);
    return {a, b};
  }

  /// Chains are simple paths, so a reaches b iff b lies after a in the
  /// same chain and every edge between them is live.
  bool Reaches(int64_t a, int64_t b) const {
    if (a / kTcChainNodes != b / kTcChainNodes || a >= b) return false;
    for (int64_t k = a; k < b; ++k) {
      if (!live_.count({k, k + 1})) return false;
    }
    return true;
  }

  const std::vector<Edge>& universe() const { return universe_; }
  const std::set<Edge>& live() const { return live_; }

 private:
  mmv::Rng rng_;
  std::vector<Edge> universe_;
  std::set<Edge> live_;
  std::vector<Edge> out_;
};

RunResult RunTcRecursive(const RunConfig& config) {
  RunResult out;
  out.writer_trace = Tracer(config.trace);
  out.notes = {"engine_threads=2", "log=none", "store=none",
               "queries=Ask on the live view between bursts"};
  World world;
  CountingEvaluator eval(world.domains.get(), config.trace);
  mmv::FixpointOptions fopts;
  fopts.num_threads = 2;
  ToggleModel model(config.seed);

  std::vector<std::pair<int, int>> edges;
  for (const Edge& e : model.universe()) {
    edges.push_back({static_cast<int>(e.first), static_cast<int>(e.second)});
  }
  // Set-up: generate and materialize. Throwaway instances get an
  // evaluator of their own.
  auto set_up = [&](CountingEvaluator* ev, mmv::Program* program,
                    View* view) -> Status {
    int64_t t0 = NowNs();
    *program = mmv::workload::MakeTransitiveClosure(edges);
    MMV_ASSIGN_OR_RETURN(*view, mmv::Materialize(*program, ev, fopts));
    out.setup_s.push_back(Seconds(NowNs() - t0));
    return Status::OK();
  };
  mmv::Program program;
  View view;
  if (Status s = set_up(&eval, &program, &view); !s.ok()) {
    out.errors.push_back("set-up: " + s.ToString());
    return out;
  }
  World scratch_world;
  CountingEvaluator scratch_eval(scratch_world.domains.get(), false);
  auto throwaway_setup = [&]() -> Status {
    mmv::Program scratch_program;
    View scratch_view;
    Status s = set_up(&scratch_eval, &scratch_program, &scratch_view);
    if (!s.ok()) out.errors.push_back("set-up: " + s.ToString());
    return s;
  };

  BurstContext ctx{&program, &view, &eval, fopts};
  const Symbol path("path");
  Tracer* tr = &out.writer_trace;
  Window window(config, throwaway_setup);
  int64_t q = 0, busy_at_start = 0;
  for (int64_t b = 0; window.Open(b); ++b) {
    if (window.StartsMeasuring()) {
      ResetMeasurements(&out, config.trace);
      busy_at_start = eval.busy_ns();
    }
    if (!RunBurst(ctx, model.NextBurst(), b, &out).ok()) break;
    for (int i = 0; i < kTcAsksPerBurst; ++i, ++q) {
      auto [from, to] = model.Probe();
      int64_t calls0 = eval.calls();
      int64_t t0 = NowNs();
      Result<bool> answer = false;
      {
        ScopedSpan root(tr, "query", q);
        ScopedSpan span(tr, "query.eval", q);
        answer = mmv::query::Ask(view, path, {Value(from), Value(to)}, &eval);
      }
      int64_t elapsed = NowNs() - t0;
      out.op_busy_ns += elapsed;
      out.domain_calls_queries += eval.calls() - calls0;
      out.query_us.Add(static_cast<double>(elapsed) * 1e-3);
      ++out.queries;
      ++out.attempted;
      if (!answer.ok()) {
        ++out.failed;
        out.errors.push_back("ask failed: " + answer.status().ToString());
      } else if (*answer != model.Reaches(from, to)) {
        out.errors.push_back("ask path(" + std::to_string(from) + ", " +
                             std::to_string(to) + ") answered " +
                             (*answer ? "true" : "false"));
      }
    }
    if (!out.errors.empty()) break;
  }
  out.window_s = window.Elapsed();
  out.domain_busy_ns = eval.busy_ns() - busy_at_start;
  if (out.errors.empty()) {
    Status s = CheckClosure(view, &eval, model.live());
    if (!s.ok()) out.errors.push_back(s.ToString());
  }
  return out;
}

// ---- mediator-session / mediator-reads ------------------------------------

constexpr uint64_t kScenarioSeed = 42;  // the scenario is fixed; the seed
                                        // drives the operation mix
// Operation k of the session: an exoneration when k % 100 == 99 (session
// only), an external update when k % 25 == 12, otherwise a query — about
// 95% queries, 4% external updates and 1% exonerations.
constexpr int64_t kExonerationEvery = 100;
constexpr int64_t kExternalEvery = 25;
const char* const kMediatorPreds[] = {"seenwith", "swlndc", "suspect"};

std::string PhotoId(int j) { return "photo" + std::to_string(j); }

Result<MediatorTruth> ReadTruth(const mmv::workload::LawEnforcementScenario& s,
                                int num_photos) {
  MediatorTruth t;
  t.people = s.people;
  t.photos.resize(static_cast<size_t>(num_photos));
  t.near_dc = s.near_dc;
  t.employees = s.employees;
  MMV_ASSIGN_OR_RETURN(
      const mmv::rel::Table* table,
      static_cast<const mmv::rel::Catalog*>(s.catalog.get())
          ->GetTable("faces_surveillance"));
  for (const mmv::rel::Row& row : table->Scan()) {
    // (dataset, photo_id, face_id, file); photo ids are "photo<j>".
    int j = std::stoi(row[1].as_string().substr(5));
    t.photos[static_cast<size_t>(j)].insert(static_cast<int>(row[2].as_int()));
  }
  return t;
}

/// The paper's running example under W_P. With \p exonerations the mix
/// includes one-delete bursts through ApplyBatch and the update metrics
/// are theirs; without, the update metrics are the external updates'
/// (a source write, with no view maintenance at all by Theorem 4).
RunResult RunMediator(const RunConfig& config, bool exonerations) {
  RunResult out;
  out.writer_trace = Tracer(config.trace);
  out.notes = {"operator=W_P", "engine_threads=1", "log=none",
               exonerations
                   ? "mix=95% query, 4% external update, 1% exoneration"
                   : "mix=96% query, 4% external update"};
  mmv::workload::LawEnforcementOptions lopts;
  lopts.num_people = 10;
  lopts.num_photos = 6;
  lopts.faces_per_photo = 3;
  lopts.seed = kScenarioSeed;
  mmv::FixpointOptions fopts;
  fopts.op = mmv::OperatorKind::kWp;

  // Set-up: build the scenario (sources and domains), materialize under
  // W_P. Every instance has its own evaluator.
  struct Instance {
    std::unique_ptr<mmv::workload::LawEnforcementScenario> scenario;
    std::unique_ptr<CountingEvaluator> eval;
    View view;
  };
  auto set_up = [&](Instance* into) -> Status {
    int64_t t0 = NowNs();
    MMV_ASSIGN_OR_RETURN(into->scenario,
                         mmv::workload::MakeLawEnforcement(lopts));
    into->eval = std::make_unique<CountingEvaluator>(
        into->scenario->domains.get(), config.trace);
    MMV_ASSIGN_OR_RETURN(into->view,
                         mmv::Materialize(into->scenario->mediator,
                                          into->eval.get(), fopts));
    out.setup_s.push_back(Seconds(NowNs() - t0));
    return Status::OK();
  };
  Instance live;
  if (Status s = set_up(&live); !s.ok()) {
    out.errors.push_back("set-up: " + s.ToString());
    return out;
  }
  auto throwaway_setup = [&]() -> Status {
    Instance scratch;
    Status s = set_up(&scratch);
    if (!s.ok()) out.errors.push_back("set-up: " + s.ToString());
    return s;
  };
  std::unique_ptr<mmv::workload::LawEnforcementScenario>& scenario =
      live.scenario;
  std::unique_ptr<CountingEvaluator>& eval = live.eval;
  View& view = live.view;
  Result<MediatorTruth> truth_r = ReadTruth(*scenario, lopts.num_photos);
  if (!truth_r.ok()) {
    out.errors.push_back("truth: " + truth_r.status().ToString());
    return out;
  }
  MediatorTruth truth = std::move(*truth_r);
  mmv::SnapshotStore store;
  store.Publish(view);
  BurstContext ctx{&scenario->mediator, &view, eval.get(), fopts, &store};
  Tracer* tr = &out.writer_trace;
  mmv::Rng rng(config.seed);
  int out_photo = -1, out_face = -1;  // the face currently taken out
  // Queries cycle through every (predicate, person) pair in a seeded order.
  std::vector<std::pair<std::string, std::string>> combos;
  for (const char* pred : kMediatorPreds) {
    for (const std::string& x : truth.people) combos.push_back({pred, x});
  }
  for (size_t i = combos.size() - 1; i > 0; --i) {
    std::swap(combos[i], combos[static_cast<size_t>(
                             rng.Int(0, static_cast<int64_t>(i)))]);
  }

  Window window(config, throwaway_setup);
  int64_t busy_at_start = 0;
  for (int64_t op = 0; window.Open(op) && out.errors.empty(); ++op) {
    if (window.StartsMeasuring()) {
      ResetMeasurements(&out, config.trace);
      busy_at_start = eval->busy_ns();
    }
    std::vector<std::pair<std::string, std::string>> candidates;
    if (exonerations && op % kExonerationEvery == kExonerationEvery - 1) {
      for (const std::string& x : truth.people) {
        for (const std::string& y : truth.Answer("seenwith", x)) {
          candidates.push_back({x, y});
        }
      }
    }
    if (!candidates.empty()) {
      // Exoneration: one-delete burst through ApplyBatch.
      auto [x, y] = rng.Pick(candidates);
      truth.exonerated.insert({x, y});
      std::string text = "del seenwith(X, Y) <- X = \"" + x + "\" & Y = \"" +
                         y + "\".\n";
      RunBurst(ctx, text, op, &out);
    } else if (op % kExternalEvery == kExternalEvery / 2) {
      // External update, one clock tick later: the face taken out of its
      // photo by the previous external update comes back, and a random
      // face leaves its photo. W_P needs no maintenance (Theorem 4).
      const int back_photo = out_photo, back_face = out_face;
      out_photo = static_cast<int>(rng.Int(0, lopts.num_photos - 1));
      std::set<int>& faces = truth.photos[static_cast<size_t>(out_photo)];
      if (back_photo == out_photo) faces.insert(back_face);
      out_face = *std::next(faces.begin(),
                            rng.Int(0, static_cast<int64_t>(faces.size()) - 1));
      faces.erase(out_face);
      if (back_photo >= 0 && back_photo != out_photo) {
        truth.photos[static_cast<size_t>(back_photo)].insert(back_face);
      }
      int64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan root(tr, "external", op);
        ScopedSpan span(tr, "relational.external_update", op);
        scenario->catalog->clock().Advance();
        auto* faces_domain = scenario->handles.facextract;
        if (back_photo >= 0) {
          s = faces_domain
                  ->AddSurveillanceFace("surveillance", PhotoId(back_photo),
                                        back_face)
                  .status();
        }
        if (s.ok()) {
          s = faces_domain->RemoveSurveillanceFace(
              "surveillance", PhotoId(out_photo), out_face);
        }
      }
      int64_t elapsed = NowNs() - t0;
      out.op_busy_ns += elapsed;
      ++out.external_updates;
      ++out.attempted;
      if (!exonerations) {
        out.update_ms.Add(static_cast<double>(elapsed) * 1e-6);
        out.writer_busy_s += Seconds(elapsed);
        ++out.update_requests;
      }
      if (!s.ok()) {
        ++out.failed;
        out.errors.push_back("external update: " + s.ToString());
      }
    } else {
      const auto& [pred, x] = combos[static_cast<size_t>(out.queries) %
                                     combos.size()];
      int64_t calls0 = eval->calls();
      int64_t t0 = NowNs();
      Result<mmv::query::InstanceSet> answer = mmv::query::InstanceSet{};
      {
        ScopedSpan root(tr, "query", op);
        mmv::SnapshotHandle pin = [&] {
          ScopedSpan span(tr, "snapshot.pin", op);
          return store.Pin();
        }();
        ScopedSpan span(tr, "query.eval", op);
        answer = mmv::query::QueryPred(
            pin, Symbol(pred), {Term::Const(Value(x)), Term::Var(0)},
            eval.get());
      }
      int64_t elapsed = NowNs() - t0;
      out.op_busy_ns += elapsed;
      out.domain_calls_queries += eval->calls() - calls0;
      out.query_us.Add(static_cast<double>(elapsed) * 1e-3);
      ++out.queries;
      ++out.attempted;
      if (!answer.ok()) {
        ++out.failed;
        out.errors.push_back("query failed: " + answer.status().ToString());
      } else {
        out.query_instances += static_cast<int64_t>(answer->instances.size());
        Status s = CheckMediatorAnswer(truth, pred, x, *answer);
        if (!s.ok()) out.errors.push_back(s.ToString());
      }
    }
  }
  out.window_s = window.Elapsed();
  out.domain_busy_ns = eval->busy_ns() - busy_at_start;
  return out;
}

}  // namespace

// ---- public entry points ---------------------------------------------------

RunResult RunWorkload(const RunConfig& config) {
  RunResult out;
  if (config.workload == "chain-churn") {
    out = RunChainChurn(config);
  } else if (config.workload == "tc-recursive") {
    out = RunTcRecursive(config);
  } else if (config.workload == "mediator-reads") {
    out = RunMediator(config, /*exonerations=*/false);
  } else if (config.workload == "mediator-session") {
    out = RunMediator(config, /*exonerations=*/true);
  } else {
    out.errors.push_back("unknown workload " + config.workload);
  }
  out.workload = config.workload;
  out.peak_rss_mb = PeakRssMb();
  return out;
}

std::map<std::string, int64_t> WorkProducts(const RunResult& r) {
  const mmv::maint::BatchStats& s = r.stats;
  return {
      {"bursts", r.bursts},
      {"input_updates", static_cast<int64_t>(s.input_updates)},
      {"coalesced_away", static_cast<int64_t>(s.coalesced_away)},
      {"delete_passes", static_cast<int64_t>(s.delete_passes)},
      {"insert_passes", static_cast<int64_t>(s.insert_passes)},
      {"deletions_applied", static_cast<int64_t>(s.deletions_applied)},
      {"insertions_applied", static_cast<int64_t>(s.insertions_applied)},
      {"del_elements", static_cast<int64_t>(s.del_elements)},
      {"replacements", static_cast<int64_t>(s.replacements)},
      {"step3_replacements", static_cast<int64_t>(s.step3_replacements)},
      {"removed_unsolvable", static_cast<int64_t>(s.removed_unsolvable)},
      {"add_atoms", static_cast<int64_t>(s.add_atoms)},
      {"insertion_pass_atoms", static_cast<int64_t>(s.insertion_pass_atoms)},
      {"plan_reorders", s.plan_reorders},
      {"probe_intersections", s.probe_intersections},
      {"plan_cache_hits", s.plan_cache_hits},
      {"solve_epoch_flushes", s.solve_epoch_flushes},
      {"reject_epoch_flushes", s.reject_epoch_flushes},
      {"sat_prechecks", s.sat_prechecks},
      {"sat_rejects", s.sat_rejects},
      {"reject_cache_hits", s.reject_cache_hits},
      {"partitions_run", s.partitions_run},
      {"partition_skipped_small", s.partition_skipped_small},
      {"evaluator_clones", s.evaluator_clones},
      {"epochs_published", s.epochs_published},
      {"snapshot_nodes_shared", s.snapshot_nodes_shared},
      {"snapshot_nodes_copied", s.snapshot_nodes_copied},
      {"wal_records", s.wal_records},
      {"wal_bytes", s.wal_bytes},
      {"wal_syncs", s.wal_syncs},
      {"checkpoints_written", s.checkpoints_written},
      {"checkpoint_delta_bytes", s.checkpoint_delta_bytes},
      {"fs_wal_bytes", r.fs.wal_bytes},
      {"fs_checkpoint_bytes", r.fs.checkpoint_bytes},
      {"fs_syncs", r.fs.syncs},
  };
}

// ---- oracles ---------------------------------------------------------------

namespace {

std::string Describe(const std::set<int64_t>& s) {
  std::string out = "{";
  int shown = 0;
  for (int64_t v : s) {
    if (shown++ == 8) {
      out += " ...";
      break;
    }
    out += (shown > 1 ? " " : "") + std::to_string(v);
  }
  return out + "} (" + std::to_string(s.size()) + ")";
}

}  // namespace

Status CheckChainLevels(const View& view, mmv::DcaEvaluator* evaluator,
                        int depth, const std::vector<std::set<int64_t>>& live) {
  for (size_t c = 0; c < live.size(); ++c) {
    for (int l = 0; l <= depth; ++l) {
      std::string pred = ChainPred(static_cast<int>(c), l);
      Result<mmv::query::InstanceSet> got =
          mmv::query::QueryPred(view, Symbol(pred), {Term::Var(0)}, evaluator);
      if (!got.ok()) return got.status();
      std::set<int64_t> ids;
      for (const mmv::query::Instance& inst : got->instances) {
        ids.insert(inst.values.at(0).as_int());
      }
      if (ids != live[c]) {
        return Status::Internal("oracle: " + pred + " holds " + Describe(ids) +
                                ", expected " + Describe(live[c]));
      }
    }
  }
  return Status::OK();
}

std::set<Edge> Closure(const std::set<Edge>& edges) {
  std::map<int64_t, std::vector<int64_t>> out;
  for (const Edge& e : edges) out[e.first].push_back(e.second);
  std::set<Edge> reach;
  for (const auto& [from, next] : out) {
    std::vector<int64_t> frontier = next;
    std::set<int64_t> seen;
    while (!frontier.empty()) {
      int64_t n = frontier.back();
      frontier.pop_back();
      if (!seen.insert(n).second) continue;
      reach.insert({from, n});
      auto it = out.find(n);
      if (it != out.end()) {
        frontier.insert(frontier.end(), it->second.begin(), it->second.end());
      }
    }
  }
  return reach;
}

Status CheckClosure(const View& view, mmv::DcaEvaluator* evaluator,
                    const std::set<Edge>& edges) {
  Result<mmv::query::InstanceSet> got = mmv::query::QueryPred(
      view, Symbol("path"), {Term::Var(0), Term::Var(1)}, evaluator);
  if (!got.ok()) return got.status();
  std::set<Edge> paths;
  for (const mmv::query::Instance& inst : got->instances) {
    paths.insert({inst.values.at(0).as_int(), inst.values.at(1).as_int()});
  }
  std::set<Edge> expected = Closure(edges);
  if (paths == expected) return Status::OK();
  std::vector<Edge> extra, missing;
  std::set_difference(paths.begin(), paths.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  std::set_difference(expected.begin(), expected.end(), paths.begin(),
                      paths.end(), std::back_inserter(missing));
  auto first = [](const std::vector<Edge>& v) {
    return v.empty() ? std::string("-")
                     : "path(" + std::to_string(v[0].first) + ", " +
                           std::to_string(v[0].second) + ")";
  };
  return Status::Internal(
      "oracle: path has " + std::to_string(extra.size()) + " extra (first " +
      first(extra) + ") and " + std::to_string(missing.size()) +
      " missing (first " + first(missing) + ") instances");
}

std::set<std::string> MediatorTruth::Answer(const std::string& pred,
                                            const std::string& x) const {
  std::set<std::string> out;
  auto it = std::find(people.begin(), people.end(), x);
  if (it == people.end()) return out;
  int fx = static_cast<int>(it - people.begin());
  for (const std::set<int>& faces : photos) {
    if (!faces.count(fx)) continue;
    for (int fy : faces) {
      const std::string& y = people[static_cast<size_t>(fy)];
      if (fy == fx || exonerated.count({x, y})) continue;
      if (pred != "seenwith" && !near_dc.count(y)) continue;
      if (pred == "suspect" && !employees.count(y)) continue;
      out.insert(y);
    }
  }
  return out;
}

Status CheckMediatorAnswer(const MediatorTruth& truth, const std::string& pred,
                           const std::string& x,
                           const mmv::query::InstanceSet& answer) {
  std::set<std::string> got;
  for (const mmv::query::Instance& inst : answer.instances) {
    if (inst.values.size() != 2 || inst.values[0] != Value(x)) {
      return Status::Internal("oracle: " + pred + "(" + x +
                              ", Y) returned " + inst.ToString());
    }
    got.insert(inst.values[1].as_string());
  }
  std::set<std::string> expected = truth.Answer(pred, x);
  if (got == expected && answer.complete) return Status::OK();
  auto join = [](const std::set<std::string>& s) {
    std::string out;
    for (const std::string& v : s) out += (out.empty() ? "" : " ") + v;
    return "{" + out + "}";
  };
  return Status::Internal("oracle: " + pred + "(" + x + ", Y) = " +
                          join(got) + ", expected " + join(expected) +
                          (answer.complete ? "" : " (incomplete)"));
}

Status CheckSameImage(const std::string& live, const std::string& recovered) {
  if (live == recovered) return Status::OK();
  size_t i = 0;
  while (i < live.size() && i < recovered.size() && live[i] == recovered[i]) {
    ++i;
  }
  return Status::Internal("oracle: recovered image differs from the live one "
                          "at byte " + std::to_string(i) + " (live " +
                          std::to_string(live.size()) + " B, recovered " +
                          std::to_string(recovered.size()) + " B)");
}

}  // namespace perfbench
