#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

namespace msprint {

namespace {

// Set while a thread executes tasks for some pool, or runs its own chunks
// of that pool's ParallelFor; lets ParallelFor detect calls nested inside
// its own participants and run them inline instead of blocking one on
// work only the busy participants could drain.
thread_local const ThreadPool* current_worker_pool = nullptr;

std::atomic<size_t> global_size_override{0};
std::atomic<bool> global_pool_created{false};

size_t GlobalPoolSize() {
  const size_t requested = global_size_override.load();
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("MSPRINT_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<size_t>(parsed);
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 4 : hardware;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             size_t grain) {
  if (n == 0) {
    return;
  }
  if (size() <= 1 || n == 1 || current_worker_pool == this) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  if (grain == 0) {
    // A handful of chunks per participant keeps the tail balanced without
    // paying queue traffic per index.
    grain = std::max<size_t>(1, n / (4 * (size() + 1)));
  }
  const size_t num_chunks = (n + grain - 1) / grain;

  struct SharedState {
    std::atomic<size_t> next_chunk{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable helpers_done;
    std::exception_ptr error;  // guarded by mutex
    size_t helpers_running = 0;  // guarded by mutex
    bool closed = false;  // guarded by mutex; later helpers return at once
  };
  auto state = std::make_shared<SharedState>();

  // &fn stays valid: this frame does not return before every helper that
  // started has finished (helpers_done below), and a helper that starts
  // after `closed` never touches it.
  auto run_chunks = [state, &fn, n, grain, num_chunks] {
    while (!state->failed.load(std::memory_order_relaxed)) {
      const size_t chunk =
          state->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) {
        return;
      }
      const size_t begin = chunk * grain;
      const size_t end = std::min(n, begin + grain);
      try {
        for (size_t i = begin; i < end; ++i) {
          fn(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error) {
          state->error = std::current_exception();
        }
        state->failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const size_t num_helpers = std::min(size(), num_chunks - 1);
  for (size_t h = 0; h < num_helpers; ++h) {
    Submit([state, run_chunks] {
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->closed) {
          return;
        }
        ++state->helpers_running;
      }
      run_chunks();
      std::lock_guard<std::mutex> lock(state->mutex);
      if (--state->helpers_running == 0) {
        state->helpers_done.notify_all();
      }
    });
  }
  // The calling thread works too, and while it runs its chunks it counts
  // as one of this pool's workers: a call nested in one of them runs
  // inline instead of waiting for a worker the outer loop keeps busy.
  const ThreadPool* const outer = std::exchange(current_worker_pool, this);
  run_chunks();
  current_worker_pool = outer;

  // Every chunk is claimed now (or abandoned after a throw). Wait only for
  // helpers still running one: a helper this pool has not dequeued yet
  // may sit behind tasks that wait on this very loop, as when a worker of
  // another pool calls in while every worker here waits on that pool.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->closed = true;
    state->helpers_done.wait(lock,
                             [&] { return state->helpers_running == 0; });
    error = std::exchange(state->error, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::Global() {
  global_pool_created.store(true);
  static ThreadPool pool(GlobalPoolSize());
  return pool;
}

bool ThreadPool::SetGlobalSize(size_t num_threads) {
  if (global_pool_created.load()) {
    return false;
  }
  global_size_override.store(num_threads);
  return true;
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace msprint
