// NodeLane's interval repeat.  A lane on the batched accrual path replays
// a steady node-interval whole (Node::repeat); a lane on
// NodeConfig::reference_accrual walks every slice.  Fed the same work orders,
// miss bitmaps and fault view, the two must agree on every interval's
// tally and busy seconds, on the probe baseline and on the node's
// checkpoint bytes — through crash/reboot, lost samples, cron misses, an
// NFS-grant change mid-job and checkpoint round trips between repeats.

#include "src/workload/lane.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/fault.hpp"
#include "src/power2/core.hpp"
#include "src/power2/kernel_desc.hpp"
#include "src/power2/signature.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::workload {
namespace {

constexpr double kInterval = 900.0;
constexpr int kNode = 5;
constexpr std::uint64_t kSeed = 0x1A7E;

power2::EventSignature measured_signature() {
  power2::KernelBuilder b("lane_test");
  const auto s = b.stream(1 << 18, 8);
  const auto l = b.load(s);
  b.load(s, /*quad=*/true);  // so the quad diagnostic moves
  b.fma(l);
  b.fp_add();
  power2::Power2Core core;
  return power2::measure_signature(core, b.warmup(64).measure(2048).build());
}

cluster::ActivityProfile job_mix(double disk_read_bytes_per_s) {
  cluster::ActivityProfile a;
  a.compute_fraction = 0.7;
  a.comm_wait_fraction = 0.2;
  a.io_wait_fraction = 0.05;
  a.comm_send_bytes_per_s = 1.2e6;
  a.comm_recv_bytes_per_s = 1.1e6;
  a.disk_read_bytes_per_s = disk_read_bytes_per_s;
  a.disk_write_bytes_per_s = 15e3;
  return a;
}

std::string node_bytes(const NodeLane& lane) {
  util::CkptWriter w;
  lane.node.save_ckpt(w);
  return w.bytes();
}

/// The lane state the campaign checkpoint carries.
std::string lane_bytes(const NodeLane& lane) {
  util::CkptWriter w;
  lane.node.save_ckpt(w);
  lane.rng.save_ckpt(w);
  lane.probe_prev.save_ckpt(w);
  w.put_u64(lane.probe_prev_quad);
  w.put_bool(lane.probe_primed);
  return w.bytes();
}

void restore_lane(NodeLane& lane, const std::string& bytes) {
  util::CkptReader r(bytes);
  lane.node.restore_ckpt(r);
  lane.rng.restore_ckpt(r);
  lane.probe_prev.restore_ckpt(r);
  lane.probe_prev_quad = r.read_u64("test.lane_probe_quad");
  lane.probe_primed = r.read_bool("test.lane_probe_primed");
}

void expect_same_tally(const IntervalTally& fast, const IntervalTally& ref,
                       const std::string& where) {
  EXPECT_EQ(fast.delta, ref.delta) << where << ": delta";
  EXPECT_EQ(fast.quad_surplus, ref.quad_surplus) << where << ": quad";
  EXPECT_EQ(fast.sampled, ref.sampled) << where << ": sampled";
  EXPECT_EQ(fast.reprimed, ref.reprimed) << where << ": reprimed";
  EXPECT_EQ(fast.newly_primed, ref.newly_primed) << where << ": primed";
  EXPECT_EQ(fast.down, ref.down) << where << ": down";
  EXPECT_EQ(fast.lost, ref.lost) << where << ": lost";
}

/// A batched lane and a reference lane on the same node id, seed and
/// fault view, driven pass by pass like the driver drives them.
class LanePair {
 public:
  explicit LanePair(const fault::FaultSchedule* faults)
      : faults_(faults),
        fast_(std::make_unique<NodeLane>(kNode, config(false), kSeed,
                                         faults)),
        ref_(kNode, config(true), kSeed, faults) {}

  /// One pass of `h` intervals under `step`, with cron misses at the
  /// offsets in `missed`; compares every interval and the end state.
  void pass(const LaneStep& step, std::int64_t h,
            const std::vector<std::int64_t>& missed = {}) {
    std::vector<std::uint8_t> miss(static_cast<std::size_t>(h), 0);
    for (std::int64_t k : missed) miss[static_cast<std::size_t>(k)] = 1;
    std::vector<IntervalTally> fast_tally(static_cast<std::size_t>(h));
    std::vector<IntervalTally> ref_tally(static_cast<std::size_t>(h));
    std::vector<double> fast_busy(static_cast<std::size_t>(h), -1.0);
    std::vector<double> ref_busy(static_cast<std::size_t>(h), -1.0);
    fast_->step = step;
    ref_.step = step;
    fast_->run_pipeline(t_, h, kInterval, miss.data(), fast_tally.data(),
                        fast_busy.data(), 1);
    ref_.run_pipeline(t_, h, kInterval, miss.data(), ref_tally.data(),
                      ref_busy.data(), 1);
    for (std::int64_t k = 0; k < h; ++k) {
      const std::size_t i = static_cast<std::size_t>(k);
      const std::string where = "interval " + std::to_string(t_ + k);
      expect_same_tally(fast_tally[i], ref_tally[i], where);
      EXPECT_EQ(fast_busy[i], ref_busy[i]) << where << ": busy seconds";
      lost_ += fast_tally[i].lost;
      sampled_ += fast_tally[i].sampled;
      quad_ += fast_tally[i].quad_surplus;
    }
    t_ += h;
    EXPECT_EQ(fast_->probe_prev, ref_.probe_prev) << "baseline at " << t_;
    EXPECT_EQ(fast_->probe_prev_quad, ref_.probe_prev_quad);
    EXPECT_EQ(fast_->probe_primed, ref_.probe_primed);
    EXPECT_EQ(node_bytes(*fast_), node_bytes(ref_)) << "node at " << t_;
  }

  void crash() {
    fast_->node.crash();
    ref_.node.crash();
  }
  void reboot() {
    fast_->node.reboot();
    ref_.node.reboot();
  }
  /// Replaces the batched lane by a fresh one restored from its
  /// checkpoint, as a resumed campaign would build it.
  void resume_fast() {
    const std::string bytes = lane_bytes(*fast_);
    fast_ = std::make_unique<NodeLane>(kNode, config(false), kSeed, faults_);
    restore_lane(*fast_, bytes);
    EXPECT_FALSE(fast_->node.can_repeat());
  }
  /// Restores the batched lane in place from its own checkpoint.
  void rewind_fast_in_place() {
    restore_lane(*fast_, lane_bytes(*fast_));
    EXPECT_FALSE(fast_->node.can_repeat());
  }

  bool fast_can_repeat() const { return fast_->node.can_repeat(); }
  double now() const { return static_cast<double>(t_) * kInterval; }
  int lost() const { return lost_; }
  int sampled() const { return sampled_; }
  std::uint64_t quad() const { return quad_; }

 private:
  static cluster::NodeConfig config(bool reference) {
    cluster::NodeConfig cfg;
    cfg.reference_accrual = reference;
    return cfg;
  }
  const fault::FaultSchedule* faults_;
  std::unique_ptr<NodeLane> fast_;
  NodeLane ref_;
  std::int64_t t_ = 0;
  int lost_ = 0;
  int sampled_ = 0;
  std::uint64_t quad_ = 0;
};

TEST(NodeLane, RepeatMatchesReferenceLane) {
  fault::FaultConfig fc;
  fc.enabled = true;
  fc.node_sample_loss_prob = 0.1;
  const fault::FaultSchedule faults(fc);
  const power2::EventSignature sig = measured_signature();
  LanePair p(&faults);

  const LaneStep idle{};
  p.pass(idle, 6);
  EXPECT_TRUE(p.fast_can_repeat()) << "a settled idle node repeats";

  // A job over three passes, ending mid-interval; the NFS grant changes
  // the mix between its second and third pass.
  LaneStep job;
  job.sig = &sig;
  job.activity = job_mix(8e3);
  job.end_s = p.now() + 14.5 * kInterval;
  p.pass(job, 4);
  EXPECT_TRUE(p.fast_can_repeat()) << "a steady busy node repeats";
  p.pass(job, 5, {1, 2});
  job.activity = job_mix(4e3);
  p.pass(job, 6, {4});
  p.pass(idle, 5);

  // Crash with down intervals, reboot, then idle and a new job.
  p.crash();
  p.pass(idle, 3);
  p.reboot();
  p.pass(idle, 4);
  job.activity = job_mix(8e3);
  job.end_s = p.now() + 30.0 * kInterval;
  p.pass(job, 5);

  // Checkpoint round trips between repeats: a resumed lane, then an
  // in-place restore, each mid-job.
  p.resume_fast();
  p.pass(job, 4);
  EXPECT_TRUE(p.fast_can_repeat());
  p.rewind_fast_in_place();
  p.pass(job, 4, {0});
  p.pass(job, 6);
  // A crash inside a job while its lane keeps the job's work order.
  p.crash();
  p.pass(job, 2);
  p.reboot();
  p.pass(job, 4);
  p.pass(idle, 40, {3, 17});

  EXPECT_GT(p.lost(), 0) << "the fault view dropped no sample";
  EXPECT_GT(p.sampled(), 60);
  EXPECT_GT(p.quad(), 0u) << "the quad diagnostic never moved";
}

}  // namespace
}  // namespace p2sim::workload
