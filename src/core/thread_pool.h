// A lazily-grown, process-wide worker pool for the parallel fixpoint
// fan-out (core/fixpoint.cc).
//
// Design constraints, in order:
//   1. Determinism is the CALLER's job: ParallelFor only promises that
//      fn(0..n-1) each run exactly once before it returns. Callers write
//      results into per-item slots and merge them in a fixed order, so the
//      work-claiming order (an atomic ticket) never shows in any output.
//   2. One pool per process: the engine calls ParallelFor once per
//      fixpoint round, and paying thread creation per call would swamp
//      the parallelism on small rounds. The pool grows to the largest
//      parallelism ever requested and its threads idle on a condition
//      variable between batches.
//   3. Batches never nest: a ParallelFor issued while another is running
//      (a worker item starting its own, or a second engine on another
//      thread) runs its items inline on the calling thread instead —
//      always correct, never deadlocks, and keeps the fast path lock-free
//      for the common single-engine process.

#ifndef MMV_CORE_THREAD_POOL_H_
#define MMV_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mmv {

/// \brief A shared pool of worker threads with a parallel-for primitive.
class ThreadPool {
 public:
  /// \brief The process-wide pool. Created on first use; its threads are
  /// joined at static destruction.
  static ThreadPool& Global();

  ~ThreadPool();

  /// \brief Runs fn(i) for every i in [0, n), using at most \p max_threads
  /// concurrent threads (the calling thread counts as one and always
  /// participates). Blocks until every item has completed. Items must not
  /// throw. Reentrant calls degrade to inline sequential execution.
  void ParallelFor(size_t n, int max_threads,
                   const std::function<void(size_t)>& fn);

  /// \brief Worker threads currently alive (testing / observability).
  int workers() const;

 private:
  ThreadPool() = default;

  void EnsureWorkers(int count);
  void WorkerLoop();
  // Claims and runs items of batch \p generation until none remain (or the
  // batch is over).
  void RunItems(const std::function<void(size_t)>& fn, uint64_t generation);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;

  // Batch state (guarded by mu_; next_ also claimed under mu_ — items are
  // coarse, so one uncontended lock per claim is noise).
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t total_ = 0;
  size_t next_ = 0;
  size_t completed_ = 0;
  int extra_participants_ = 0;  ///< workers allowed to join current batch
  uint64_t generation_ = 0;
  bool stop_ = false;

  // Serializes batches; try-locked so reentrant calls fall back inline.
  std::mutex batch_mu_;
};

}  // namespace mmv

#endif  // MMV_CORE_THREAD_POOL_H_
