// Per-lane metric shards: how telemetry stays exact inside a parallel loop
// and visible to the monitoring plane while the loop runs.
//
// The node-advance phase runs one lane per worker thread, so lanes must
// not touch the registry at all; instead each lane accumulates its
// interval tallies into its own MetricShard — no registry allocation, safe
// without a session — and the driver folds the shards in fixed node order
// during the serial merge phase, publishing the fold into the registry at
// the interval boundary.  Counts therefore stay exact (no sampling) and
// the simulated-time exports stay byte-identical for every thread count:
// the published values are sums of per-lane integers whose per-lane values
// never depend on scheduling.
//
// The fields are relaxed atomics so a live scrape can *also* read the
// shards mid-interval (merge-on-read: the monitoring service sums the
// published registry counters plus the unfolded shard residue) without a
// single lock-prefixed instruction on the worker's increment path.
// Atomicity here is only for cross-thread visibility — the values a lane
// writes are deterministic, and the exports fold them in fixed serial
// order exactly as before.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "src/check/annotate.hpp"

namespace p2sim::telemetry {

// A shard is written only by its owning lane; every method is safe inside
// the parallel region (the serial merge and concurrent scrape readers use
// relaxed loads).
P2SIM_PAR_SAFE_FILE;

/// One lane's tallies for the current interval.  Reset after each merge.
struct MetricShard {
  /// Node-intervals spent servicing a PBS job / idle / out of service.
  std::atomic<std::uint64_t> busy_node_intervals{0};
  std::atomic<std::uint64_t> idle_node_intervals{0};
  std::atomic<std::uint64_t> down_node_intervals{0};

  MetricShard() = default;
  MetricShard(const MetricShard& other) { copy_from(other); }
  MetricShard& operator=(const MetricShard& other) {
    copy_from(other);
    return *this;
  }

  std::uint64_t busy() const {
    return busy_node_intervals.load(std::memory_order_relaxed);
  }
  std::uint64_t idle() const {
    return idle_node_intervals.load(std::memory_order_relaxed);
  }
  std::uint64_t down() const {
    return down_node_intervals.load(std::memory_order_relaxed);
  }

  // Each shard has a single writer, so an add is a relaxed load and store
  // rather than a locked read-modify-write: no other thread's increment
  // can fall between them, and a concurrent reader sees either value.
  void add_busy(std::uint64_t n = 1) {
    busy_node_intervals.store(busy() + n, std::memory_order_relaxed);
  }
  void add_idle(std::uint64_t n = 1) {
    idle_node_intervals.store(idle() + n, std::memory_order_relaxed);
  }
  void add_down(std::uint64_t n = 1) {
    down_node_intervals.store(down() + n, std::memory_order_relaxed);
  }

  /// Folds `other` into this shard.  The driver calls this in ascending
  /// node order, so the fold itself is deterministic.
  void merge_from(const MetricShard& other) {
    add_busy(other.busy());
    add_idle(other.idle());
    add_down(other.down());
  }

  void reset() {
    busy_node_intervals.store(0, std::memory_order_relaxed);
    idle_node_intervals.store(0, std::memory_order_relaxed);
    down_node_intervals.store(0, std::memory_order_relaxed);
  }

  bool empty() const { return busy() == 0 && idle() == 0 && down() == 0; }

  /// The registry identity of each tally — the single registration site
  /// for the p2sim_lane_* counters: the driver's fold and the monitoring
  /// service's merge-on-read both go through this table, so a scrape can
  /// never disagree with the export about what a shard field means.
  struct Field {
    const char* name;
    const char* help;
    std::uint64_t (MetricShard::*value)() const;
  };
  static const std::array<Field, 3>& fields();

 private:
  void copy_from(const MetricShard& other) {
    busy_node_intervals.store(other.busy(), std::memory_order_relaxed);
    idle_node_intervals.store(other.idle(), std::memory_order_relaxed);
    down_node_intervals.store(other.down(), std::memory_order_relaxed);
  }
};

inline const std::array<MetricShard::Field, 3>& MetricShard::fields() {
  static const std::array<Field, 3> kFields = {{
      {"p2sim_lane_busy_node_intervals_total",
       "Node-intervals spent servicing a PBS job", &MetricShard::busy},
      {"p2sim_lane_idle_node_intervals_total",
       "Node-intervals spent idle (OS noise only)", &MetricShard::idle},
      {"p2sim_lane_down_node_intervals_total",
       "Node-intervals spent out of service after a crash",
       &MetricShard::down},
  }};
  return kFields;
}

}  // namespace p2sim::telemetry
