// Forwarding wrappers around the library's public seams. Each one forwards
// every call unchanged to the real implementation and only counts (and,
// in the traced run, times) what passes through:
//
//   - CountingFs        durability::Fs   (bytes per call kind, syncs)
//   - TracedBurstLog    maint::BurstLog  (LogBurst / CommitBurst spans)
//   - CountingEvaluator DcaEvaluator     (domain calls, busy time)
//
// Byte and call counts are kept in both runs (bytes_written_per_update is
// an end-to-end metric); clocks are read only when timing is on, so the
// untraced run pays no timing cost.

#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "constraint/solver.h"
#include "durability/durable_log.h"
#include "durability/fs.h"
#include "maintenance/batch.h"
#include "trace.h"

namespace perfbench {

/// \brief Fs forwarding to another Fs. Appends are the WAL's, whole-file
/// writes are checkpoint images (written to a .tmp and renamed).
class CountingFs : public mmv::durability::Fs {
 public:
  struct Counters {
    int64_t wal_bytes = 0;         ///< bytes appended
    int64_t checkpoint_bytes = 0;  ///< bytes written by WriteFile
    int64_t read_bytes = 0;        ///< bytes returned by ReadFile
    int64_t syncs = 0;
    int64_t sync_ns = 0;  ///< timed runs only

    int64_t written() const { return wal_bytes + checkpoint_bytes; }
  };

  CountingFs(mmv::durability::Fs* base, bool timed)
      : base_(base), timed_(timed) {}

  const Counters& counters() const { return counters_; }
  void Reset() { counters_ = Counters{}; }

  mmv::Result<std::string> ReadFile(const std::string& path) override {
    mmv::Result<std::string> r = base_->ReadFile(path);
    if (r.ok()) counters_.read_bytes += static_cast<int64_t>(r->size());
    return r;
  }
  mmv::Result<bool> Exists(const std::string& path) override {
    return base_->Exists(path);
  }
  mmv::Result<std::vector<std::string>> List(const std::string& dir) override {
    return base_->List(dir);
  }
  mmv::Status WriteFile(const std::string& path,
                        std::string_view data) override {
    counters_.checkpoint_bytes += static_cast<int64_t>(data.size());
    return base_->WriteFile(path, data);
  }
  mmv::Status Append(const std::string& path, std::string_view data) override {
    counters_.wal_bytes += static_cast<int64_t>(data.size());
    return base_->Append(path, data);
  }
  mmv::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  mmv::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  mmv::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  mmv::Status Sync(const std::string& path) override {
    ++counters_.syncs;
    if (!timed_) return base_->Sync(path);
    int64_t t0 = NowNs();
    mmv::Status s = base_->Sync(path);
    counters_.sync_ns += NowNs() - t0;
    return s;
  }
  mmv::Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }

 private:
  mmv::durability::Fs* base_;
  bool timed_;
  Counters counters_;
};

/// \brief BurstLog forwarding to a DurableLog, recording one span per
/// LogBurst and CommitBurst, and when CommitBurst returned — the rest of
/// ApplyBatch after that point is snapshot publication.
class TracedBurstLog : public mmv::maint::BurstLog {
 public:
  TracedBurstLog(mmv::durability::DurableLog* log, Tracer* tracer)
      : log_(log), tracer_(tracer) {}

  /// \brief Id of the burst the next calls belong to.
  void set_op(int64_t op) { op_ = op; }
  int64_t commit_end_ns() const { return commit_end_ns_; }

  mmv::Status LogBurst(
      const std::vector<mmv::maint::Update>& updates) override {
    ScopedSpan span(tracer_, "durability.log_burst", op_);
    return log_->LogBurst(updates);
  }
  mmv::Status CommitBurst(const mmv::SnapshotImageHandle& image,
                          mmv::maint::BatchStats* stats) override {
    mmv::Status s;
    {
      ScopedSpan span(tracer_, "durability.commit", op_);
      s = log_->CommitBurst(image, stats);
    }
    if (tracer_->enabled()) commit_end_ns_ = NowNs();
    return s;
  }
  void AbortBurst() override { log_->AbortBurst(); }

 private:
  mmv::durability::DurableLog* log_;
  Tracer* tracer_;
  int64_t op_ = 0;
  int64_t commit_end_ns_ = 0;
};

/// \brief DcaEvaluator forwarding to another evaluator with atomic call
/// and busy-time counters. StateEpoch() and ConcurrentReadSafe() forward
/// too, so the engine takes the same path as with the inner evaluator.
/// Solver memos key on instance_id(): one wrapper must serve a whole run.
class CountingEvaluator : public mmv::DcaEvaluator {
 public:
  CountingEvaluator(mmv::DcaEvaluator* inner, bool timed)
      : inner_(inner), timed_(timed) {}

  mmv::Result<mmv::DcaResult> Evaluate(
      const std::string& domain, const std::string& function,
      const std::vector<mmv::Value>& args) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (!timed_) return inner_->Evaluate(domain, function, args);
    int64_t t0 = NowNs();
    mmv::Result<mmv::DcaResult> r = inner_->Evaluate(domain, function, args);
    busy_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    return r;
  }
  int64_t StateEpoch() const override { return inner_->StateEpoch(); }
  bool ConcurrentReadSafe() const override {
    return inner_->ConcurrentReadSafe();
  }

  int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  int64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }

 private:
  mmv::DcaEvaluator* inner_;
  bool timed_;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> busy_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
