#include "src/util/task_pool.hpp"

#include <stdexcept>
#include <utility>

namespace p2sim::util {
namespace {

/// One spin-wait step: the CPU's pause hint where the ISA has one.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Polls `ready` for the spin budget; true as soon as it holds.
template <typename Ready>
bool spin_until(const Ready& ready) {
  for (int i = 0; i < TaskPool::kSpinIterations; ++i) {
    if (ready()) return true;
    cpu_relax();
  }
  return ready();
}

}  // namespace

TaskPool::TaskPool(int threads) {
  if (threads < 0) {
    throw std::invalid_argument("TaskPool threads must be >= 0");
  }
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  threads_ = threads;
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

TaskPool::~TaskPool() {
  {
    // Under the mutex, like a dispatch, so a parking worker cannot miss it.
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::run_shard(const ShardTask& task, std::size_t n,
                         int worker_index) {
  const ShardRange shard = shard_range(n, worker_index, threads_);
  if (shard.empty()) return;
  task(worker_index, shard.begin, shard.end);
}

bool TaskPool::await_dispatch(std::uint64_t seen) {
  const auto ready = [this, seen] {
    return stopping_.load(std::memory_order_acquire) ||
           epoch_.load(std::memory_order_acquire) != seen;
  };
  if (!spin_until(ready)) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_ready_.wait(lock, ready);
  }
  return !stopping_.load(std::memory_order_acquire);
}

void TaskPool::await_workers() {
  const auto done = [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (spin_until(done)) return;
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, done);
}

void TaskPool::worker_loop(int worker_index) {
  std::uint64_t seen = 0;
  while (await_dispatch(seen)) {
    // The caller cannot publish another epoch before this worker reports
    // back, so this is the epoch await_dispatch saw.
    seen = epoch_.load(std::memory_order_acquire);
    std::exception_ptr error;
    try {
      run_shard(*task_, task_items_, worker_index);
    } catch (...) {
      error = std::current_exception();
    }
    if (error) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::move(error);
    }
    if (pending_.fetch_sub(1, std::memory_order_release) == 1) {
      // The last worker out wakes a parked caller.  Passing through the
      // mutex orders the notify after the caller's predicate check, so the
      // wake-up cannot fall between that check and its wait.
      { const std::lock_guard<std::mutex> lock(mutex_); }
      work_done_.notify_one();
    }
  }
}

void TaskPool::run(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& task) {
  run(n, ShardTask([&task](int, std::size_t begin, std::size_t end) {
        task(begin, end);
      }));
}

void TaskPool::run(std::size_t n, const ShardTask& task) {
  if (n == 0) return;
  if (threads_ == 1) {
    task(0, 0, n);  // the serial bypass: no locks, no workers, no barrier
    return;
  }
  task_ = &task;
  task_items_ = n;
  pending_.store(threads_ - 1, std::memory_order_relaxed);
  {
    // The release store publishes the slot; holding the mutex keeps a
    // worker that is about to park from missing it.
    const std::lock_guard<std::mutex> lock(mutex_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  work_ready_.notify_all();
  // The calling thread is worker 0: it always runs the first shard while
  // the pool threads run the rest.
  std::exception_ptr caller_error;
  try {
    run_shard(task, n, 0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  await_workers();
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (caller_error && !first_error_) first_error_ = std::move(caller_error);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace p2sim::util
