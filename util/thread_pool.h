// A persistent worker pool with a blocking ParallelFor. The simulation
// engine keeps one per multi-shard run and runs each round's shard batches
// on it (DESIGN.md §12), instead of spawning and joining fresh std::threads
// every round — at bench scale thread startup was a measurable share of a
// batch. Dispatchers run on the calling thread; they never get the pool.
//
// Determinism contract: ParallelFor(n, fn) runs fn(0..n-1) exactly once
// each, in an unspecified interleaving. Callers keep results deterministic
// by writing to disjoint, index-addressed slots and doing any order-
// sensitive merging serially afterwards.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace structride {

class ThreadPool {
 public:
  /// Spawns max(0, num_threads - 1) workers; the calling thread participates
  /// in every ParallelFor, so `num_threads` is the total parallelism.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that work a ParallelFor (workers + caller).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n); blocks until all complete. Indices
  /// are claimed dynamically, so uneven task costs balance. One top-level
  /// ParallelFor at a time per pool; a nested call made from inside fn on
  /// the same pool is detected and runs its whole range inline on the
  /// calling thread (serially, hence deterministically) instead of
  /// deadlocking on the generation barrier.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  void Drain();

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* fn_ = nullptr;  // guarded by mutex_
  size_t n_ = 0;
  std::atomic<size_t> next_{0};
  size_t workers_active_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace structride
