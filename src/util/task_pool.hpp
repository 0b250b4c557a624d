// A deterministic worker pool for embarrassingly parallel node loops.
//
// The campaign driver advances 144 per-node lanes every 15-minute interval;
// the lanes share no state, so the loop parallelizes with a cheap serial
// merge (the structure ScALPEL and the LIKWID stack exploit for per-node
// monitoring pipelines).  TaskPool provides exactly that shape: a fixed set
// of std::thread workers, *static* sharding — worker w of t always owns the
// contiguous index range [n*w/t, n*(w+1)/t) — and a full barrier per
// dispatch.  Because the shard map depends only on (n, t) and the lanes are
// independent, the work a given index receives is identical for every
// thread count, which is what makes "bit-identical for threads ∈ {1, 4, N}"
// a structural property rather than a hope.
//
// threads == 1 is the explicit serial bypass: no workers are spawned, no
// locks are taken, and run() invokes the task inline — a TaskPool(1) build
// is the pre-pool serial driver, not a pool with one worker.
//
// Waiting spins, then parks.  The driver dispatches once per horizon, and
// horizons average 1.65 intervals, so dispatches arrive back to back with
// tens of microseconds of serial work between them.  An idle worker first
// polls the atomic dispatch epoch for kSpinIterations CPU pause steps, and
// the caller polls the atomic pending count the same way; only a waiter
// that exhausts the budget parks on a condition variable.  A dispatch that
// lands inside the budget therefore costs no futex wake-up, while a pool
// left idle longer (between campaigns, in tests) sleeps instead of burning
// its cores.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/check/annotate.hpp"

namespace p2sim::util {

/// Half-open index range [begin, end) owned by one worker.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  P2SIM_PAR_SAFE bool empty() const noexcept { return begin >= end; }
};

/// The static shard of `n` items owned by `worker` of `workers`: contiguous,
/// sizes differing by at most one, and a pure function of (n, worker,
/// workers) — never of scheduling order.
constexpr ShardRange shard_range(std::size_t n, int worker,
                                 int workers) noexcept {
  const auto w = static_cast<std::size_t>(worker);
  const auto t = static_cast<std::size_t>(workers);
  return {n * w / t, n * (w + 1) / t};
}

class TaskPool {
 public:
  /// A shard body that also receives its shard index in [0, threads()), so
  /// it can write a per-shard output slot.
  using ShardTask = std::function<void(int, std::size_t, std::size_t)>;

  /// CPU pause steps a waiter polls before parking: about 43 µs on an
  /// AMD EPYC (Zen 5) core, where one pause takes 21 ns (other x86 cores
  /// range from a few ns to ~50 ns per pause).  That covers the driver's
  /// serial work between two horizons and is far shorter than any
  /// deliberate pause.
  static constexpr int kSpinIterations = 2048;

  /// threads >= 2 spawns threads-1 workers (the calling thread runs shard
  /// 0); threads == 1 runs everything inline; threads == 0 means one per
  /// hardware core.  Throws std::invalid_argument on negative counts.
  explicit TaskPool(int threads = 1);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int threads() const noexcept { return threads_; }

  /// Runs task(begin, end) once per shard of [0, n) and returns only when
  /// every shard has finished (a full barrier: everything the shards wrote
  /// happens-before the return).  The first exception any shard throws is
  /// rethrown here after the barrier.  Not reentrant: shards must not call
  /// run() on the same pool.
  P2SIM_SERIAL_ONLY void run(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& task);
  /// As above, with task(shard, begin, end).  The shard index is a pure
  /// function of (n, threads) like the range itself; with threads == 1 the
  /// one inline call is shard 0.
  P2SIM_SERIAL_ONLY void run(std::size_t n, const ShardTask& task);

 private:
  void worker_loop(int worker_index);
  void run_shard(const ShardTask& task, std::size_t n, int worker_index);
  /// Spins, then parks, until a dispatch newer than `seen` is published
  /// (returns true) or the pool is stopping (returns false).
  bool await_dispatch(std::uint64_t seen);
  /// Spins, then parks, until every worker has finished the dispatch.
  void await_workers();

  int threads_ = 1;

  // Dispatch slot: written by run() before it publishes the new epoch_
  // with a release store, read by workers after an acquire load sees that
  // epoch, and left untouched until every worker has reported back.
  const ShardTask* task_ = nullptr;
  std::size_t task_items_ = 0;
  // epoch_ increments once per run() so a worker can tell a fresh dispatch
  // from the one it just ran; pending_ counts workers still running it.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> pending_{0};
  std::atomic<bool> stopping_{false};

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::exception_ptr first_error_ P2SIM_GUARDED_BY(mutex_);

  // Last, after everything the workers use.
  std::vector<std::thread> workers_;
};

}  // namespace p2sim::util
