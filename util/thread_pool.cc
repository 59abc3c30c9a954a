#include "util/thread_pool.h"

#include <algorithm>

namespace structride {

namespace {

// The pool this thread is currently draining a generation for. A nested
// ParallelFor on the same pool (a task that calls back into its own pool)
// would wait forever on the generation barrier, so ParallelFor checks this
// marker and runs nested ranges inline instead.
thread_local const ThreadPool* tls_active_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  int workers = std::max(0, num_threads - 1);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Drain() {
  // Claim indices until the range is exhausted; fn_ stays valid for the
  // whole generation because ParallelFor only returns after every worker
  // reports back.
  const std::function<void(size_t)>& fn = *fn_;
  const size_t n = n_;
  const ThreadPool* prev = tls_active_pool;
  tls_active_pool = this;
  for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    fn(i);
  }
  tls_active_pool = prev;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    Drain();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_active_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (tls_active_pool == this || workers_.empty() || n == 1) {
    // Inline path: trivial ranges, no workers, or a nested call from inside
    // a generation this thread is already draining (re-arming the barrier
    // from a worker would deadlock). Serial, hence deterministic.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    workers_active_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  Drain();  // the caller is a worker too
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return workers_active_ == 0; });
  fn_ = nullptr;
}

}  // namespace structride
