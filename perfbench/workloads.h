// The three closed-loop workloads of the end-to-end benchmark and the
// oracles that check their answers.
//
//   chain-churn       MakeGuardedMultiChain(8, 8, 128) under 32-update
//                     bursts, durable on PosixFs, one concurrent reader.
//   tc-recursive      MakeTransitiveClosure over 25 disjoint 24-node edge
//                     chains; bursts toggle edges out and back in; the
//                     engine runs with num_threads = 2.
//   mediator-reads    MakeLawEnforcement (10 people, 6 photos, 3 faces per
//                     photo) under W_P: queries and external updates that
//                     need no maintenance (Theorem 4).
//   mediator-session  the same plus exonerations through ApplyBatch.
//
// Each workload generates its inputs from the seed, hands the library only
// burst text and queries, and keeps its own model of the expected answers.
// A workload measures for `seconds` (or, for the self test, a fixed number
// of operations) after its set-up, which a time-bounded run repeats so that
// setup_s is a median.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/view.h"
#include "maintenance/batch.h"
#include "query/enumerate.h"
#include "seams.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: spans from the benchmark's code, timed seams.
  bool trace = false;
  /// > 0: stop after this many operations instead of after `seconds`
  /// (bursts on chain-churn and tc-recursive, mixed operations on
  /// mediator-session; the chain-churn reader still runs until then), with
  /// one set-up and no warm-up.
  int64_t max_ops = 0;
  /// Parent directory of the chain-churn state directories.
  std::string state_root = ".bench_build/state";
};

/// \brief Latency samples in storage of fixed capacity, allocated when the
/// run's result is made, before set-up. The first kCapacity samples are
/// kept; each later one replaces a uniformly chosen kept one (reservoir
/// sampling), so memory does not grow with the number of operations and the
/// kept samples stay a uniform sample of all of them.
class Samples {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;

  Samples() : rng_(0x5A3D1E5) { kept_.reserve(kCapacity); }

  void Add(double v) {
    ++count_;
    if (kept_.size() < kCapacity) {
      kept_.push_back(v);
      return;
    }
    int64_t k = rng_.Int(0, count_ - 1);
    if (k < static_cast<int64_t>(kCapacity)) kept_[static_cast<size_t>(k)] = v;
  }
  void Clear() {
    kept_.clear();
    count_ = 0;
  }
  /// Samples added since the last Clear, kept or not.
  int64_t count() const { return count_; }
  const std::vector<double>& kept() const { return kept_; }

 private:
  mmv::Rng rng_;
  std::vector<double> kept_;
  int64_t count_ = 0;
};

/// \brief What one run measured and counted.
struct RunResult {
  std::string workload;
  std::vector<std::string> errors;  ///< oracle mismatches, failed operations
  std::vector<std::string> notes;   ///< fixed settings stated in the report
  int64_t attempted = 0;
  int64_t failed = 0;

  std::vector<double> setup_s;
  Samples update_ms;  ///< burst text -> ApplyBatch return
  Samples query_us;   ///< Pin + QueryPred/Ask (Ask on tc)
  int64_t bursts = 0;
  int64_t update_requests = 0;  ///< BatchStats::input_updates, plus the
                                ///  external updates of mediator-reads
  int64_t queries = 0;
  int64_t query_instances = 0;
  int64_t external_updates = 0;
  double writer_busy_s = 0;  ///< summed update latencies
  double window_s = 0;       ///< measured run time
  std::vector<double> recovery_s;
  double peak_rss_mb = 0;

  mmv::maint::BatchStats stats;  ///< summed over the run's bursts
  CountingFs::Counters fs;       ///< measured window only (no set-up)
  bool durable = false;          ///< a DurableLog was attached
  mmv::durability::RecoveryInfo recovery;
  int64_t recover_read_bytes = 0;

  // Domain calls attributed by counter deltas around each operation.
  int64_t domain_calls_updates = 0;
  int64_t domain_calls_queries = 0;
  int64_t domain_busy_ns = 0;  ///< traced runs only
  int64_t op_busy_ns = 0;      ///< summed root-operation durations

  Tracer writer_trace{false};
  Tracer reader_trace{false};

  bool correct() const { return errors.empty(); }
};

/// \brief Runs one workload ("chain-churn", "tc-recursive",
/// "mediator-reads", "mediator-session"); unknown names yield a result with
/// an error.
RunResult RunWorkload(const RunConfig& config);

/// \brief The work-product counters of a run (BatchStats fields plus the
/// bytes and syncs the Fs saw): identical between a traced and an
/// untraced run of the same seed and operation count.
std::map<std::string, int64_t> WorkProducts(const RunResult& r);

// ---- Oracles -------------------------------------------------------------
// Each returns OK when the view's answers equal the benchmark's own model
// and an error naming the first difference otherwise.

/// \brief chain-churn: every level c<k>_p<l> of chain k holds exactly the
/// live base ids of chain k.
mmv::Status CheckChainLevels(const mmv::View& view,
                             mmv::DcaEvaluator* evaluator, int depth,
                             const std::vector<std::set<int64_t>>& live);

/// \brief Reachable (from, to) pairs of a directed edge set, by BFS.
std::set<std::pair<int64_t, int64_t>> Closure(
    const std::set<std::pair<int64_t, int64_t>>& edges);

/// \brief tc-recursive: the path instances equal the closure of \p edges.
mmv::Status CheckClosure(const mmv::View& view, mmv::DcaEvaluator* evaluator,
                         const std::set<std::pair<int64_t, int64_t>>& edges);

/// \brief Ground truth of the mediator session, kept by the benchmark.
struct MediatorTruth {
  std::vector<std::string> people;    ///< index = face id
  std::vector<std::set<int>> photos;  ///< photo j -> face ids it shows
  std::set<std::string> near_dc;
  std::set<std::string> employees;
  std::set<std::pair<std::string, std::string>> exonerated;

  /// \brief People Y with pred(x, Y), pred in seenwith/swlndc/suspect.
  std::set<std::string> Answer(const std::string& pred,
                               const std::string& x) const;
};

/// \brief mediator-session: the answer to pred(x, Y) equals the truth.
mmv::Status CheckMediatorAnswer(const MediatorTruth& truth,
                                const std::string& pred, const std::string& x,
                                const mmv::query::InstanceSet& answer);

/// \brief chain-churn recovery: the recovered image is byte-identical to
/// the live one.
mmv::Status CheckSameImage(const std::string& live,
                           const std::string& recovered);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
