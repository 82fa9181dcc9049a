// Fixed-size thread pool used to parallelize prediction throughput
// (Section 3.6: "throughput scales with processor cores"), forest training,
// annealing chains and simulator replications.
//
// Determinism contract: ParallelFor hands out chunks of the index range
// dynamically, so fn(i) must only read shared inputs and write state owned
// by index i. Under that contract every parallel stage in the library is
// bit-identical for any pool size (including 1), which the determinism
// tests enforce.

#ifndef MSPRINT_SRC_COMMON_THREAD_POOL_H_
#define MSPRINT_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace msprint {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. If the task throws, the first exception is captured
  // and rethrown by the next Wait().
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished, then rethrows the
  // first exception any task raised since the last Wait().
  void Wait();

  size_t size() const { return workers_.size(); }

  // Runs fn(i) for i in [0, n) and blocks until every index has run. Work
  // is issued in chunks of `grain` indices (0 picks a grain automatically)
  // and the calling thread participates, so a pool of size 1 degenerates
  // to a plain serial loop. Calls nested inside a task of this same pool,
  // or inside a chunk the calling thread runs, run inline on that thread
  // instead of re-entering the queue, so parallel stages compose without
  // waiting for a busy worker: a batch of predictions fans out over
  // inputs, while a lone prediction fans out over its replications. Once
  // every chunk is claimed the caller waits only for helpers running one,
  // never for a helper still queued, so loops on different pools may nest
  // in either order without deadlock. The first exception fn throws is
  // rethrown here once in-flight chunks settle; remaining chunks are
  // abandoned.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t grain = 0);

  // Process-wide shared pool, created on first use. Sized from the
  // MSPRINT_THREADS environment variable when set, else from
  // std::thread::hardware_concurrency(). Library entry points taking a
  // `ThreadPool* pool` treat nullptr as this pool — prefer that over
  // constructing a pool per call.
  static ThreadPool& Global();

  // Overrides the size Global() will use. Only effective before the first
  // Global() call (e.g. from main after flag parsing); returns false once
  // the shared pool already exists.
  static bool SetGlobalSize(size_t num_threads);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_error_;  // guarded by mutex_
};

// Resolves the pool argument convention used across the library: a null
// `pool` means the process-wide shared pool.
inline ThreadPool& ResolvePool(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::Global();
}

}  // namespace msprint

#endif  // MSPRINT_SRC_COMMON_THREAD_POOL_H_
