// Work-stealing thread pool for the serving and evaluation hot paths.
//
// Each worker owns a deque: it pushes and pops its own work LIFO (cache
// locality) and steals FIFO from the front of a sibling's deque when its own
// runs dry, so coarse chunks submitted together spread across workers even
// when the submitter round-robins unevenly. All randomized recpriv operators
// take an explicit Rng&, so tasks that need randomness must fork a child
// generator per task before submission — the pool itself never touches
// global state.
//
// ParallelFor is the main entry point: it splits [begin, end) into
// grain-sized chunks, runs them on the pool, and blocks the caller until
// every chunk finished. A single-threaded pool (or a range no larger than
// one grain) runs inline, so callers need no special small-input path.
// A task of the pool that calls ParallelFor on the same pool also runs it
// inline, so it gets no extra parallelism: code that should fan out (a
// served query batch) must run on a thread outside the pool.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace recpriv {

/// Fixed-size work-stealing thread pool.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains nothing: outstanding tasks are completed before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `fn` on the next worker's deque (round-robin).
  void Submit(std::function<void()> fn);

  /// Blocks until every task submitted so far has completed.
  void Wait();

  /// Runs fn(lo, hi) over disjoint chunks covering [begin, end), each at
  /// most `grain` long, in parallel; blocks until all chunks are done.
  /// `fn` must be safe to call concurrently from pool threads. Runs inline
  /// when the pool has one worker, the range fits in a single grain, or
  /// the caller is itself a task of this pool (nested use would deadlock).
  /// An external caller PARTICIPATES: it drains chunks alongside the
  /// workers, so the call completes even when every worker is busy or
  /// blocked — ParallelFor itself can never deadlock.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Chunk size that yields ~4 chunks per worker over `total` items (load
  /// balancing without excessive task overhead); at least `min_grain`.
  size_t GrainFor(size_t total, size_t min_grain = 1) const;

 private:
  void WorkerLoop(size_t worker_id);
  /// Pops a task for `worker_id`: own deque back first (LIFO), then steals
  /// from the front of the others (FIFO). Requires mu_ held.
  bool PopTask(size_t worker_id, std::function<void()>& task);

  // One mutex guards all deques: tasks here are coarse (whole query-batch
  // chunks), so queue contention is negligible next to task runtime and a
  // single lock keeps the stealing protocol trivially correct.
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers: work available or stop
  std::condition_variable idle_cv_;   ///< waiters: pending_ reached zero
  std::vector<std::deque<std::function<void()>>> queues_;
  std::vector<std::thread> threads_;
  size_t next_queue_ = 0;  ///< round-robin submission cursor
  size_t pending_ = 0;     ///< queued + running tasks
  bool stop_ = false;
};

}  // namespace recpriv
