#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace recpriv {

namespace {
/// The pool whose worker is executing on this thread, if any — lets
/// ParallelFor detect nested use and run inline instead of deadlocking.
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  queues_.resize(num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[next_queue_].push_back(std::move(fn));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++pending_;
  }
  work_cv_.notify_one();
}

bool ThreadPool::PopTask(size_t worker_id, std::function<void()>& task) {
  auto& own = queues_[worker_id];
  if (!own.empty()) {
    task = std::move(own.back());
    own.pop_back();
    return true;
  }
  for (size_t k = 1; k < queues_.size(); ++k) {
    auto& victim = queues_[(worker_id + k) % queues_.size()];
    if (!victim.empty()) {
      task = std::move(victim.front());
      victim.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t worker_id) {
  current_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::function<void()> task;
    if (PopTask(worker_id, task)) {
      lock.unlock();
      task();
      lock.lock();
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (stop_) return;
    work_cv_.wait(lock);
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

size_t ThreadPool::GrainFor(size_t total, size_t min_grain) const {
  const size_t target_chunks = std::max<size_t>(1, num_threads() * 4);
  return std::max(min_grain, (total + target_chunks - 1) / target_chunks);
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<size_t>(1, grain);
  // Nested use (a pool task calling ParallelFor on its own pool) would
  // deadlock: the caller would block on chunks only blocked workers could
  // drain. Run inline instead — correct, just not extra-parallel.
  if (num_threads() == 1 || end - begin <= grain || current_pool == this) {
    fn(begin, end);
    return;
  }
  // Shared chunk cursor, drained by helper tasks AND by the caller: the
  // caller claims chunks like any worker instead of parking on a latch, so
  // the loop completes even if every pool worker is busy or blocked — a
  // non-pool caller can never deadlock here, it just ends up doing the
  // work itself.
  struct ForJob {
    const std::function<void(size_t, size_t)>* fn;
    size_t begin, end, grain;
    size_t num_chunks;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> done_chunks{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto job = std::make_shared<ForJob>();
  job->fn = &fn;
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->num_chunks = (end - begin + grain - 1) / grain;
  const auto run_chunks = [job] {
    for (;;) {
      const size_t c = job->next_chunk.fetch_add(1);
      if (c >= job->num_chunks) return;
      const size_t lo = job->begin + c * job->grain;
      const size_t hi = std::min(job->end, lo + job->grain);
      (*job->fn)(lo, hi);
      if (job->done_chunks.fetch_add(1) + 1 == job->num_chunks) {
        // Lock-then-notify so the wakeup cannot slip between the caller's
        // predicate check and its wait.
        std::lock_guard<std::mutex> lock(job->mu);
        job->cv.notify_all();
      }
    }
  };
  // The caller takes one share; helpers cover the rest. Late helpers that
  // find the cursor exhausted return without touching `fn`.
  const size_t helpers = std::min(num_threads(), job->num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) Submit(run_chunks);
  run_chunks();
  std::unique_lock<std::mutex> lock(job->mu);
  job->cv.wait(lock, [&] {
    return job->done_chunks.load() == job->num_chunks;
  });
}

}  // namespace recpriv
