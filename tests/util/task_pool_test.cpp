#include "src/util/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace p2sim::util {
namespace {

// The static shard map is the determinism contract: it must cover [0, n)
// exactly once, in order, for every worker count — and it must be a pure
// function of (n, workers), never of scheduling.
TEST(ShardRange, CoversEveryIndexExactlyOnceInOrder) {
  for (std::size_t n : {0UL, 1UL, 2UL, 7UL, 16UL, 144UL, 1000UL}) {
    for (int workers : {1, 2, 3, 4, 7, 16}) {
      std::size_t next = 0;
      for (int w = 0; w < workers; ++w) {
        const ShardRange r = shard_range(n, w, workers);
        EXPECT_EQ(r.begin, next) << "n=" << n << " w=" << w;
        EXPECT_LE(r.begin, r.end);
        next = r.end;
      }
      EXPECT_EQ(next, n) << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(ShardRange, BalancedToWithinOneItem) {
  const std::size_t n = 144;
  for (int workers : {2, 3, 4, 5, 7}) {
    for (int w = 0; w < workers; ++w) {
      const ShardRange r = shard_range(n, w, workers);
      const std::size_t len = r.end - r.begin;
      EXPECT_GE(len, n / static_cast<std::size_t>(workers));
      EXPECT_LE(len, n / static_cast<std::size_t>(workers) + 1);
    }
  }
}

TEST(ShardRange, MoreWorkersThanItemsYieldsEmptyTailShards) {
  int nonempty = 0;
  for (int w = 0; w < 8; ++w) {
    if (!shard_range(3, w, 8).empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 3);
}

TEST(TaskPool, RejectsNegativeThreadCount) {
  EXPECT_THROW(TaskPool(-1), std::invalid_argument);
}

TEST(TaskPool, ZeroResolvesToHardwareConcurrency) {
  const TaskPool pool(0);
  EXPECT_GE(pool.threads(), 1);
}

TEST(TaskPool, SerialBypassRunsWholeRangeInline) {
  TaskPool pool(1);
  std::vector<int> hit(10, 0);
  pool.run(hit.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hit[i];
  });
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(TaskPool, ZeroItemsIsANoOp) {
  TaskPool pool(4);
  bool called = false;
  pool.run(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TaskPool, ParallelRunTouchesEveryIndexExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hit(144);
  pool.run(hit.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
  });
  for (const auto& h : hit) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, FewerItemsThanThreadsStillCoversAll) {
  TaskPool pool(8);
  std::vector<std::atomic<int>> hit(3);
  pool.run(hit.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
  });
  for (const auto& h : hit) EXPECT_EQ(h.load(), 1);
}

// The pool is reusable across dispatches (the driver calls run() once per
// interval, ~26k times per campaign) and results must match serial math.
TEST(TaskPool, RepeatedDispatchesMatchSerialSum) {
  const std::size_t n = 1000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = 0.001 * static_cast<double>(i);
  }
  std::vector<double> out_serial(n), out_parallel(n);
  TaskPool serial(1), parallel(4);
  for (int round = 0; round < 50; ++round) {
    auto body = [&](std::vector<double>& out) {
      return [&values, &out](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) out[i] += values[i] * values[i];
      };
    };
    serial.run(n, body(out_serial));
    parallel.run(n, body(out_parallel));
  }
  // Element-wise bitwise equality: each index is computed by exactly one
  // worker with the same arithmetic, so no tolerance is needed.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out_serial[i], out_parallel[i]) << "i=" << i;
  }
}

TEST(TaskPool, WorkerExceptionPropagatesToCaller) {
  TaskPool pool(4);
  EXPECT_THROW(
      pool.run(100,
               [](std::size_t b, std::size_t) {
                 if (b >= 25) throw std::runtime_error("shard failed");
               }),
      std::runtime_error);
  // The pool must stay usable after a failed dispatch.
  std::atomic<int> total{0};
  pool.run(100, [&](std::size_t b, std::size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(TaskPool, CallerShardExceptionAlsoPropagates) {
  TaskPool pool(2);
  EXPECT_THROW(pool.run(10,
                        [](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("caller shard");
                        }),
               std::runtime_error);
}

// --- spin-then-park waiting ------------------------------------------------
//
// Idle waiters poll for TaskPool::kSpinIterations pause steps (tens of
// microseconds), then park on a condition variable.  A pause far beyond the
// budget makes every worker park; dispatches back to back keep them
// spinning.  Either way every dispatch must run each shard exactly once.

// Far longer than any spin budget on any host.
constexpr auto kParkGap = std::chrono::milliseconds(20);

void expect_one_pass(TaskPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> hit(n);
  pool.run(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hit[i].load(), 1) << i;
}

TEST(TaskPool, DispatchesAfterGapsLongerThanTheSpinBudget) {
  TaskPool pool(4);
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(kParkGap);  // every worker parks
    expect_one_pass(pool, 144);
  }
}

TEST(TaskPool, BackToBackDispatchesWhileWorkersSpin) {
  TaskPool pool(4);
  std::vector<long> sum(144, 0);
  for (int round = 0; round < 5000; ++round) {
    pool.run(sum.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sum[i] += 1;
    });
  }
  for (long v : sum) EXPECT_EQ(v, 5000);
}

TEST(TaskPool, MixedSpinningAndParkedDispatches) {
  TaskPool pool(3);
  for (int round = 0; round < 40; ++round) {
    if (round % 8 == 0) std::this_thread::sleep_for(kParkGap);
    expect_one_pass(pool, 1 + static_cast<std::size_t>(round) * 7);
  }
}

// The caller finishes shard 0 at once and outlasts its own spin budget
// waiting for a slow worker shard, so it parks on the completion signal.
TEST(TaskPool, CallerParksUntilASlowShardFinishes) {
  TaskPool pool(4);
  std::atomic<int> done{0};
  pool.run(4, [&](std::size_t b, std::size_t) {
    if (b == 3) std::this_thread::sleep_for(kParkGap);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 4);
}

TEST(TaskPool, ShardIndexFollowsTheStaticShardMap) {
  for (int threads : {1, 2, 3, 4, 8}) {
    TaskPool pool(threads);
    for (std::size_t n : {3UL, 144UL}) {
      std::vector<ShardRange> seen(static_cast<std::size_t>(threads));
      std::vector<std::atomic<int>> calls(static_cast<std::size_t>(threads));
      pool.run(n, [&](int shard, std::size_t b, std::size_t e) {
        const auto w = static_cast<std::size_t>(shard);
        seen[w] = {b, e};
        calls[w].fetch_add(1);
      });
      for (int w = 0; w < threads; ++w) {
        const auto wu = static_cast<std::size_t>(w);
        const ShardRange want = shard_range(n, w, threads);
        // Empty shards are never invoked.
        EXPECT_EQ(calls[wu].load(), want.empty() ? 0 : 1)
            << "threads=" << threads << " n=" << n << " w=" << w;
        if (!want.empty()) {
          EXPECT_EQ(seen[wu].begin, want.begin);
          EXPECT_EQ(seen[wu].end, want.end);
        }
      }
    }
  }
}

TEST(TaskPool, ShardThrowingAfterWorkersParkedPropagates) {
  TaskPool pool(4);
  expect_one_pass(pool, 100);
  std::this_thread::sleep_for(kParkGap);
  EXPECT_THROW(pool.run(100,
                        [](std::size_t b, std::size_t) {
                          if (b >= 50) throw std::runtime_error("parked");
                        }),
               std::runtime_error);
  std::this_thread::sleep_for(kParkGap);
  expect_one_pass(pool, 100);  // still usable, parked or not
  expect_one_pass(pool, 100);
}

TEST(TaskPool, DestructionWhileWorkersSpin) {
  for (int round = 0; round < 50; ++round) {
    TaskPool pool(4);
    expect_one_pass(pool, 16);
  }  // destroyed straight after a dispatch, inside the spin budget
}

TEST(TaskPool, DestructionWhileWorkersParked) {
  for (int round = 0; round < 3; ++round) {
    TaskPool pool(4);
    expect_one_pass(pool, 16);
    std::this_thread::sleep_for(kParkGap);
  }
  {
    TaskPool never_used(4);
    std::this_thread::sleep_for(kParkGap);
  }
}

}  // namespace
}  // namespace p2sim::util
