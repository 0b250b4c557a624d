// NodeLane: everything one node's worker thread may touch, and nothing else.
//
// The campaign driver's lane-pipeline phase runs the 144 lanes in parallel
// (util::TaskPool, static sharding), each lane draining a whole horizon of
// intervals end-to-end.  The determinism and data-race story both reduce to
// one ownership rule: inside the parallel region a worker reads and writes
// exactly one lane at a time — the Node with its counters, the lane's
// private RNG stream, its read-only fault view and its telemetry shard —
// plus two driver-owned outputs: its own pool shard's interval tallies and
// its own column of the pass's busy-seconds matrix (row k holds every
// lane's busy seconds at horizon offset k; lane i writes only entry i of
// each row) — and immutable shared inputs (configs, the job's
// EventSignature, this horizon's LaneStep and miss bitmap).  Cross-node
// state (scheduler, daemon, job monitor, the metrics registry, the
// driver's master RNG) is touched only in the serial phases.  Lane outputs
// come back in two parts: integer probe tallies, summed per shard in the
// region (any order gives the same sums), and busy seconds, each row
// folded serially in a fixed pairwise tree (telemetry::tree_fold).  So
// campaign results are bit-identical for every thread count.
//
// RNG ownership: the lane stream is seeded from (campaign seed, node id)
// through splitmix64 — never from the master stream, whose draw sequence
// belongs to the serial demand/arrival phases, and never from iteration
// order.  Any future per-node stochastic effect (OS-noise jitter, local
// degradation) must draw from lane.rng so that adding it, or changing the
// thread count, perturbs nothing else.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/cluster/node.hpp"
#include "src/fault/fault.hpp"
#include "src/power2/signature.hpp"
#include "src/rs2hpm/snapshot.hpp"
#include "src/telemetry/shard.hpp"
#include "src/util/rng.hpp"

namespace p2sim::workload {

/// One horizon's work order for a lane, written by the serial
/// scheduling/launch phases and read only inside the parallel region.  The
/// order stays valid for every interval of the horizon because the horizon
/// phase only extends a pass across intervals where no cross-node event
/// (arrival, start, crash, reboot, completion) intervenes.
struct LaneStep {
  /// Kernel signature of the job holding this node; nullptr when idle.
  const power2::EventSignature* sig = nullptr;
  /// Activity mix for the busy part of the interval (valid when sig set).
  cluster::ActivityProfile activity{};
  /// Seconds of the current interval spent running the job (<= interval
  /// length); recomputed per interval by run_pipeline from end_s.
  double busy_s = 0.0;
  /// Absolute sim time the job ends (valid when sig set): the pipeline
  /// derives each interval's busy_s as min(end_s, interval end) - now.
  double end_s = 0.0;
};

/// The integer part of one interval's fleet-wide probe merge: counter
/// deltas, the quad diagnostic and the per-node outcome counts, mirroring
/// the per-node arms of SamplingDaemon::collect.  Each pool shard sums its
/// lanes' probes into its own tally inside the parallel region, and the
/// fold phase adds the shard tallies.  Every field is an integer, so the
/// totals do not depend on how lanes are split into shards: uint64 wrap-add
/// is associative and commutative.
struct IntervalTally {
  rs2hpm::ModeTotals delta;        ///< summed counter deltas (clean samples)
  std::uint64_t quad_surplus = 0;  ///< summed quad diagnostic deltas
  int sampled = 0;       ///< clean monotone deltas
  int reprimed = 0;      ///< counter reset detected; baseline re-established
  int newly_primed = 0;  ///< first successful contact; baseline established
  int down = 0;          ///< node was down: unreachable, baseline kept
  int lost = 0;          ///< node up but its fetch was dropped in flight

  IntervalTally& operator+=(const IntervalTally& o) {
    delta += o.delta;
    quad_surplus += o.quad_surplus;
    sampled += o.sampled;
    reprimed += o.reprimed;
    newly_primed += o.newly_primed;
    down += o.down;
    lost += o.lost;
    return *this;
  }
};

/// The per-node bundle owned by exactly one worker during the parallel
/// lane-pipeline phase.
class NodeLane {
 public:
  /// `rng_seed` is the campaign seed; the lane derives its private stream
  /// from (rng_seed, id) so streams are keyed to the node, not to order.
  ///
  /// The probe baseline starts primed at zero: a fresh node's counters are
  /// all-zero, so this is exactly the baseline the daemon's historical
  /// priming pass (a collect at interval -1) would have established.
  NodeLane(int id, const cluster::NodeConfig& cfg, std::uint64_t rng_seed,
           const fault::FaultSchedule* fault_view)
      : node(id, cfg),
        rng(util::SplitMix64(rng_seed ^
                             (0x9e3779b97f4a7c15ULL *
                              (static_cast<std::uint64_t>(id) + 1)))
                .next()),
        fault_view(fault_view) {}

  /// The parallel-region body: advance this lane's node through one
  /// interval according to `step`, exactly as the serial driver did —
  /// busy seconds under the job's signature, the remainder idle.  A whole
  /// interval (idle, or busy for all of it) whose work order equals the
  /// previous interval's — the same signature pointer, the same activity
  /// bits, the same length — replays that interval (Node::repeat) when
  /// the node can.  Pointer identity is sound here, not inside Node: the
  /// run's signature table is immutable, so one address is one signature.
  /// Touches only lane-local state.
  P2SIM_PAR_SAFE void advance_interval(double interval_s) {
    interval_busy_s = 0.0;
    if (!node.is_up()) {
      shard.add_down();
      return;
    }
    const bool whole = step.sig == nullptr || step.busy_s == interval_s;
    const bool same =
        whole && last_whole_ && step.sig == last_sig_ &&
        interval_s == last_interval_s_ &&
        (step.sig == nullptr ||
         std::memcmp(&step.activity, &last_activity_,
                     sizeof step.activity) == 0);
    last_whole_ = whole;
    last_sig_ = step.sig;
    last_activity_ = step.activity;
    last_interval_s_ = interval_s;
    if (same && node.can_repeat()) {
      node.repeat();
    } else if (step.sig == nullptr) {
      node.advance_idle(interval_s);
    } else {
      node.advance(step.busy_s, step.sig, step.activity);
      if (step.busy_s < interval_s) {
        node.advance_idle(interval_s - step.busy_s);
      }
    }
    if (step.sig == nullptr) {
      shard.add_idle();
      return;
    }
    interval_busy_s = step.busy_s;
    shard.add_busy();
  }

  /// Drains `h` consecutive intervals starting at t0 end-to-end: per
  /// interval, derive the busy split from the work order, advance the
  /// node, then probe its counters exactly as the daemon's serial per-node
  /// loop did, adding the outcome to `tally[k]` (this lane's shard's
  /// tallies) and recording the busy seconds in `busy[k * stride]` (this
  /// lane's column of the pass's busy-seconds matrix).  `miss[k]` marks
  /// horizon offset k as a whole-interval cron miss (no probe draw,
  /// baseline kept).  Touches only lane-local state, the shard's tallies
  /// and the lane's column; the horizon phase guarantees the work order
  /// holds for every interval.  The telemetry shard starts the pass empty:
  /// under a session the fold has just reset it (so this is a no-op a
  /// scrape cannot see), and without one nothing reads it.
  P2SIM_PAR_SAFE void run_pipeline(std::int64_t t0, std::int64_t h,
                                   double interval_s,
                                   const std::uint8_t* miss,
                                   IntervalTally* tally, double* busy,
                                   std::size_t stride) {
    shard.reset();
    for (std::int64_t k = 0; k < h; ++k) {
      const double now = static_cast<double>(t0 + k) * interval_s;
      if (step.sig != nullptr) {
        step.busy_s = std::min(step.end_s, now + interval_s) - now;
      }
      advance_interval(interval_s);
      busy[static_cast<std::size_t>(k) * stride] = interval_busy_s;
      if (miss[k] == 0) probe(t0 + k, tally[k]);
    }
  }

  /// One daemon probe of this lane's node, added to the interval's
  /// `tally`.  The monotone guard, reprime and priming arms are the
  /// per-node body of SamplingDaemon::collect, relocated so the probe can
  /// run inside the parallel region against lane-owned baselines.  A
  /// whole-interval cron miss never probes (the caller skips it).
  P2SIM_PAR_SAFE void probe(std::int64_t interval, IntervalTally& tally) {
    if (!node.is_up()) {
      ++tally.down;  // unreachable, baseline kept
      return;
    }
    if (fault_view != nullptr &&
        fault_view->node_sample_lost(node.id(), interval)) {
      ++tally.lost;  // dropped in flight, baseline kept
      return;
    }
    const rs2hpm::ModeTotals& totals = node.totals();
    const std::uint64_t quad = node.quad_total();
    // The guard is unconditional in every build: subtracting a baseline
    // from reset counters would wrap the uint64 deltas into astronomical
    // garbage that no downstream check could attribute.  covers() and
    // since() fused, with no temporary: one pass tests, one adds the
    // deltas (masked to zero when the guard fails) and moves the baseline.
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
      below |= static_cast<std::uint64_t>(totals.user[i] <
                                          probe_prev.user[i]) |
               static_cast<std::uint64_t>(totals.system[i] <
                                          probe_prev.system[i]);
    }
    const bool monotone =
        probe_primed && below == 0 && quad >= probe_prev_quad;
    const std::uint64_t keep = monotone ? ~std::uint64_t{0} : 0;
    for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
      tally.delta.user[i] += (totals.user[i] - probe_prev.user[i]) & keep;
      tally.delta.system[i] +=
          (totals.system[i] - probe_prev.system[i]) & keep;
      probe_prev.user[i] = totals.user[i];
      probe_prev.system[i] = totals.system[i];
    }
    if (monotone) {
      tally.quad_surplus += quad - probe_prev_quad;
      ++tally.sampled;
    } else if (probe_primed) {
      // Counter reset (node reboot) between samples: drop this interval's
      // contribution and re-establish the baseline.
      ++tally.reprimed;
    } else {
      ++tally.newly_primed;
    }
    probe_prev_quad = quad;
    probe_primed = true;
  }

  cluster::Node node;
  /// Lane-private RNG stream (see the ownership rule above).
  util::Xoshiro256StarStar rng;
  /// Read-only view of the deterministic fault schedule: lanes may query
  /// it (stateless, keyed draws) but never log through the injector —
  /// fault accounting is a serial-phase concern.  Null when faults are off.
  const fault::FaultSchedule* fault_view = nullptr;
  /// This lane's telemetry tallies, tree-merged serially each horizon.
  telemetry::MetricShard shard;

  /// Input for the current horizon (serial phases write, lane reads).
  LaneStep step;
  /// Output: busy seconds this lane contributed in the most recent
  /// interval (also recorded per interval in the busy-seconds matrix).
  double interval_busy_s = 0.0;

  /// Lane-owned daemon baseline (was SamplingDaemon's per-node state).
  rs2hpm::ModeTotals probe_prev;
  std::uint64_t probe_prev_quad = 0;
  bool probe_primed = true;

 private:
  // Repeat bookkeeping, lane-local and never checkpointed: a restored node
  // cannot repeat until it has advanced once.
  /// The previous interval's work order, and whether it was whole.
  const power2::EventSignature* last_sig_ = nullptr;
  cluster::ActivityProfile last_activity_{};
  double last_interval_s_ = 0.0;
  bool last_whole_ = false;
};

/// One pool shard's share of the lane-pipeline phase: drains lanes
/// [begin, end) through the horizon, each adding its probes to the shard's
/// own `tally[0..h)` and writing its busy seconds to its own column i of
/// the h x lanes.size() matrix `busy`.  No other shard writes those
/// tallies or columns.
P2SIM_PAR_SAFE inline void run_lane_shard(std::vector<NodeLane>& lanes,
                                          std::size_t begin, std::size_t end,
                                          std::int64_t t0, std::int64_t h,
                                          double interval_s,
                                          const std::uint8_t* miss,
                                          IntervalTally* tally,
                                          double* busy) {
  for (std::size_t i = begin; i < end; ++i) {
    lanes[i].run_pipeline(t0, h, interval_s, miss, tally, busy + i,
                          lanes.size());
  }
}

}  // namespace p2sim::workload
