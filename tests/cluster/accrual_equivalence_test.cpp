// The closed-form accrual path's contract: bit-identical node state to the
// reference slice-by-slice loop, for any signature, activity profile,
// slice length, interval length and crash/reboot sequence — including the
// interval repeat (Node::repeat), which replays the last advance whole when
// it ended at the carry fixed point.
//
// Two nodes differing only in NodeConfig::reference_accrual receive the
// same operation stream; after every operation the full observable state —
// both wrapping 32-bit banks, the RS2HPM 64-bit extension, the DMA
// engine's totals and sub-transfer residuals, the quad diagnostic and
// busy_seconds — must match exactly (doubles compared bitwise via ==).

#include "src/cluster/node.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/hpm/events.hpp"
#include "src/power2/field_table.hpp"
#include "src/util/ckpt.hpp"
#include "src/util/rng.hpp"

namespace p2sim::cluster {
namespace {

// Random rates kept physical (each <= ~1 event/cycle) and consistent with
// the audit identities, which are enforced here as single-field
// inequalities: fma <= add (per unit), reload <= miss <= memory,
// store <= reload, tlb/quad <= memory, and miss rates <= a single FXU
// rate (the totals rules bound misses by fxu0+fxu1; a one-field bound is
// the rounding-safe way to satisfy them, since llround is monotone so
// single-field rate inequalities survive scaling on every slice length).
power2::EventSignature random_signature(util::Xoshiro256StarStar& rng) {
  power2::EventSignature s;
  s.cycles_per_iter = rng.uniform(1.0, 100.0);
  s.fxu0_inst = rng.uniform(0.0, 0.9);
  s.fxu1_inst = rng.uniform(0.0, 0.9);
  s.fpu0_inst = rng.uniform(0.0, 0.9);
  s.fpu1_inst = rng.uniform(0.0, 0.9);
  s.fp_add0 = rng.uniform(0.0, 0.9);
  s.fp_add1 = rng.uniform(0.0, 0.9);
  s.fp_mul0 = rng.uniform(0.0, 0.9);
  s.fp_mul1 = rng.uniform(0.0, 0.9);
  s.fp_div0 = rng.uniform(0.0, 0.2);
  s.fp_div1 = rng.uniform(0.0, 0.2);
  s.fp_fma0 = s.fp_add0 * rng.uniform();
  s.fp_fma1 = s.fp_add1 * rng.uniform();
  s.icu_type1 = rng.uniform(0.0, 0.5);
  s.icu_type2 = rng.uniform(0.0, 0.5);
  s.icache_reload = rng.uniform(0.0, 0.1);
  s.memory_inst = rng.uniform(0.0, 0.9);
  s.dcache_miss = std::min(s.memory_inst, s.fxu0_inst) * rng.uniform();
  s.dcache_reload = s.dcache_miss * rng.uniform();
  s.dcache_store = s.dcache_reload * rng.uniform();
  s.tlb_miss = std::min(s.memory_inst, s.fxu1_inst) * rng.uniform(0.0, 0.1);
  s.quad_inst = s.memory_inst * rng.uniform();
  s.stall_dcache = rng.uniform(0.0, 0.5);
  s.stall_tlb = rng.uniform(0.0, 0.3);
  return s;
}

ActivityProfile random_profile(util::Xoshiro256StarStar& rng) {
  ActivityProfile a;
  a.compute_fraction = rng.uniform();
  a.comm_wait_fraction = rng.uniform();
  a.io_wait_fraction = rng.uniform();
  a.comm_send_bytes_per_s = rng.uniform(0.0, 5e6);
  a.comm_recv_bytes_per_s = rng.uniform(0.0, 5e6);
  a.disk_read_bytes_per_s = rng.uniform(0.0, 10e6);
  a.disk_write_bytes_per_s = rng.uniform(0.0, 10e6);
  a.page_faults_per_s = rng.uniform(0.0, 50.0);
  return a;
}

void expect_identical(const Node& fast, const Node& ref,
                      const std::string& where) {
  EXPECT_EQ(fast.monitor().bank(hpm::PrivilegeMode::kUser).raw(),
            ref.monitor().bank(hpm::PrivilegeMode::kUser).raw())
      << where << ": user bank";
  EXPECT_EQ(fast.monitor().bank(hpm::PrivilegeMode::kSystem).raw(),
            ref.monitor().bank(hpm::PrivilegeMode::kSystem).raw())
      << where << ": system bank";
  EXPECT_EQ(fast.totals(), ref.totals()) << where << ": extended totals";
  EXPECT_EQ(fast.quad_total(), ref.quad_total()) << where << ": quad";
  EXPECT_EQ(fast.busy_seconds(), ref.busy_seconds()) << where << ": busy";
  EXPECT_EQ(fast.dma().total_read_bytes(), ref.dma().total_read_bytes())
      << where << ": dma read";
  EXPECT_EQ(fast.dma().total_write_bytes(), ref.dma().total_write_bytes())
      << where << ": dma write";
  EXPECT_EQ(fast.dma().pending_read_bytes(), ref.dma().pending_read_bytes())
      << where << ": dma pending read";
  EXPECT_EQ(fast.dma().pending_write_bytes(), ref.dma().pending_write_bytes())
      << where << ": dma pending write";
}

void fuzz_config(NodeConfig cfg, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  for (int round = 0; round < 12; ++round) {
    NodeConfig fast_cfg = cfg;
    fast_cfg.reference_accrual = false;
    NodeConfig ref_cfg = cfg;
    ref_cfg.reference_accrual = true;
    Node fast(1, fast_cfg);
    Node ref(1, ref_cfg);
    const power2::EventSignature sig = random_signature(rng);

    for (int op = 0; op < 30; ++op) {
      const std::uint64_t kind = rng.below(10);
      if (kind < 6) {
        // Busy interval; occasionally an exact multiple of the slice
        // length to hit the remainder == max boundary.
        double seconds = rng.uniform(0.01, 1800.0);
        if (rng.below(5) == 0) {
          seconds =
              cfg.max_sample_slice_s * static_cast<double>(1 + rng.below(20));
        }
        const ActivityProfile act = random_profile(rng);
        fast.advance(seconds, &sig, act);
        ref.advance(seconds, &sig, act);
      } else if (kind < 8) {
        const double seconds = rng.uniform(0.01, 1800.0);
        fast.advance_idle(seconds);
        ref.advance_idle(seconds);
      } else if (kind == 8) {
        fast.crash();
        ref.crash();
        if (rng.below(2) == 0) {
          // Advances while down are no-ops on both paths.
          const ActivityProfile act = random_profile(rng);
          fast.advance(100.0, &sig, act);
          ref.advance(100.0, &sig, act);
        }
        fast.reboot();
        ref.reboot();
      } else {
        // Zero / negative durations are no-ops.
        const ActivityProfile act = random_profile(rng);
        fast.advance(0.0, &sig, act);
        ref.advance(0.0, &sig, act);
        fast.advance(-5.0, &sig, act);
        ref.advance(-5.0, &sig, act);
      }
      expect_identical(fast, ref,
                       "round " + std::to_string(round) + " op " +
                           std::to_string(op));
      if (testing::Test::HasFailure()) return;  // first divergence is enough
    }
  }
}

TEST(AccrualEquivalence, DefaultConfig) { fuzz_config(NodeConfig{}, 0xA11CE); }

TEST(AccrualEquivalence, ShortSlices) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 13.3;
  fuzz_config(cfg, 0xB0B);
}

TEST(AccrualEquivalence, OddSliceLength) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 37.7;
  fuzz_config(cfg, 0xC4B1E);
}

TEST(AccrualEquivalence, WaitStateSelection) {
  NodeConfig cfg;
  cfg.monitor.selection = hpm::CounterSelection::kWaitStates;
  fuzz_config(cfg, 0xD00D);
}

TEST(AccrualEquivalence, DivideCounterFixed) {
  NodeConfig cfg;
  cfg.monitor.divide_counter_bug = false;
  fuzz_config(cfg, 0xE66);
}

// The slice decomposition itself: a duration equal to, just under and just
// over one slice must land identically (these are the boundary cases of
// the closed-form n_full/remainder split).
TEST(AccrualEquivalence, SliceBoundaryDurations) {
  util::Xoshiro256StarStar rng(0xF00F);
  const power2::EventSignature sig = random_signature(rng);
  const ActivityProfile act = random_profile(rng);
  NodeConfig fast_cfg;
  fast_cfg.reference_accrual = false;
  NodeConfig ref_cfg;
  ref_cfg.reference_accrual = true;
  Node fast(7, fast_cfg);
  Node ref(7, ref_cfg);
  const double max = fast_cfg.max_sample_slice_s;
  for (double seconds : {max, max - 1e-9, max + 1e-9, 2.0 * max, 0.5 * max,
                         900.0, 1e-6}) {
    fast.advance(seconds, &sig, act);
    ref.advance(seconds, &sig, act);
    expect_identical(fast, ref, "seconds=" + std::to_string(seconds));
  }
}

// --- idle reuse ------------------------------------------------------------
//
// An idle node's residuals reach a fixed point after one 15-minute advance,
// so from the second consecutive idle interval on the fast path replays its
// memo instead of the slice loop.  These scenarios drive the memo through
// every way its inputs can change under it.

/// A fast/reference node pair fed the same operations, checked after each.
class Pair {
 public:
  explicit Pair(NodeConfig cfg) : fast_(2, with(cfg, false)),
                                  ref_(2, with(cfg, true)) {}

  void idle(double seconds, int times = 1) {
    for (int i = 0; i < times; ++i) {
      fast_.advance_idle(seconds);
      ref_.advance_idle(seconds);
      remember(seconds, nullptr, idle_profile());
      check("idle " + std::to_string(seconds));
    }
  }
  void busy(double seconds, const power2::EventSignature& sig,
            const ActivityProfile& act) {
    fast_.advance(seconds, &sig, act);
    ref_.advance(seconds, &sig, act);
    remember(seconds, &sig, act);
    check("busy " + std::to_string(seconds));
  }
  /// Replays the last advance: Node::repeat on the fast node, the same
  /// advance() again on the reference.
  void repeat(int times = 1) {
    for (int i = 0; i < times; ++i) {
      ASSERT_TRUE(fast_.can_repeat()) << "op " << ops_;
      fast_.repeat();
      ref_.advance(last_seconds_, last_sig_, last_act_);
      check("repeat " + std::to_string(last_seconds_));
      EXPECT_TRUE(fast_.can_repeat()) << "a repeat stays repeatable";
    }
  }
  bool can_repeat() const { return fast_.can_repeat(); }
  /// A job-free slice that still moves traffic: not quiet, never reused.
  void idle_with_traffic(double seconds, const ActivityProfile& act) {
    ActivityProfile a = act;
    a.compute_fraction = 0.0;
    a.comm_wait_fraction = 0.0;
    a.io_wait_fraction = 0.0;
    fast_.advance(seconds, nullptr, a);
    ref_.advance(seconds, nullptr, a);
    remember(seconds, nullptr, a);
    check("traffic " + std::to_string(seconds));
  }
  void crash_reboot() {
    fast_.crash();
    ref_.crash();
    EXPECT_FALSE(fast_.can_repeat()) << "a crash clears the repeat";
    fast_.advance_idle(900.0);  // a no-op while down, on both paths
    ref_.advance_idle(900.0);
    fast_.reboot();
    ref_.reboot();
    check("crash/reboot");
  }
  /// Replaces the fast node by a fresh one restored from its checkpoint:
  /// the restored node starts without a memo.
  void restore_fast() {
    util::CkptWriter w;
    fast_.save_ckpt(w);
    Node restored(2, fast_.config());
    util::CkptReader r(w.bytes());
    restored.restore_ckpt(r);
    fast_ = restored;
    EXPECT_FALSE(fast_.can_repeat()) << "the repeat is not checkpointed";
    check("restore");
  }
  /// Checkpoints both nodes; rewind() later restores them in place, so the
  /// fast node keeps the memo of the run it is rewound out of.
  void mark() {
    fast_mark_ = util::CkptWriter{};
    ref_mark_ = util::CkptWriter{};
    fast_.save_ckpt(fast_mark_);
    ref_.save_ckpt(ref_mark_);
  }
  void rewind() {
    util::CkptReader fr(fast_mark_.bytes());
    util::CkptReader rr(ref_mark_.bytes());
    fast_.restore_ckpt(fr);
    ref_.restore_ckpt(rr);
    EXPECT_FALSE(fast_.can_repeat()) << "restore_ckpt clears the repeat";
    check("rewind");
  }
  void check(const std::string& what) {
    ++ops_;
    expect_identical(fast_, ref_, "op " + std::to_string(ops_) + " " + what);
    // The whole dynamic state, residual accumulators included.
    util::CkptWriter fw;
    util::CkptWriter rw;
    fast_.save_ckpt(fw);
    ref_.save_ckpt(rw);
    EXPECT_EQ(fw.bytes(), rw.bytes())
        << "op " << ops_ << " " << what << ": checkpoint bytes";
  }

 private:
  static NodeConfig with(NodeConfig cfg, bool reference) {
    cfg.reference_accrual = reference;
    return cfg;
  }
  static ActivityProfile idle_profile() {
    ActivityProfile a;
    a.compute_fraction = 0.0;
    return a;
  }
  void remember(double seconds, const power2::EventSignature* sig,
                const ActivityProfile& act) {
    last_seconds_ = seconds;
    last_sig_ = sig;
    last_act_ = act;
  }
  Node fast_;
  Node ref_;
  double last_seconds_ = 0.0;
  const power2::EventSignature* last_sig_ = nullptr;
  ActivityProfile last_act_{};
  util::CkptWriter fast_mark_;
  util::CkptWriter ref_mark_;
  int ops_ = 0;
};

void idle_reuse_scenarios(const NodeConfig& cfg, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  const power2::EventSignature sig = random_signature(rng);
  const ActivityProfile act = random_profile(rng);
  Pair p(cfg);

  // Long idle runs from a fresh node, including a non-slice-multiple length.
  p.idle(900.0, 5);
  p.idle(333.3, 4);
  p.idle(900.0, 3);

  // Idle -> busy -> idle, with the busy part leaving DMA and paging
  // residuals behind; the idle run after it must not reuse the old memo.
  for (int round = 0; round < 4; ++round) {
    p.busy(rng.uniform(10.0, 900.0), sig, act);
    p.idle(900.0, 3);
    // A job ending mid-interval: busy head, idle tail, then idle intervals.
    const double head = rng.uniform(1.0, 899.0);
    p.busy(head, sig, act);
    p.idle(900.0 - head);
    p.idle(900.0, 3);
  }

  // Traffic without a job is not quiet; the idle run after it resumes.
  // Without paging the residuals stay put and only the DMA state moves.
  ActivityProfile no_paging = act;
  no_paging.page_faults_per_s = 0.0;
  p.idle(900.0, 2);
  p.idle_with_traffic(900.0, act);
  p.idle(900.0, 3);
  p.idle_with_traffic(900.0, no_paging);
  p.idle(900.0, 3);
  p.idle_with_traffic(0.5, no_paging);
  p.idle(900.0, 3);

  // Crash and reboot inside an idle run: the carry restarts from zero.
  p.idle(900.0, 3);
  p.crash_reboot();
  p.idle(900.0, 3);
  p.busy(450.0, sig, act);
  p.idle(900.0, 2);
  p.crash_reboot();
  p.crash_reboot();
  p.idle(900.0, 3);

  // restore_ckpt in the middle of an idle run.
  p.busy(700.0, sig, act);
  p.idle(900.0, 2);
  p.restore_fast();
  p.idle(900.0, 3);
  p.restore_fast();
  p.busy(60.0, sig, act);
  p.idle(900.0, 3);

  // Rewind in place into an earlier idle run: the fast node still holds
  // the memo of the later run, whose carry-in no longer matches.
  p.busy(120.0, sig, act);
  p.idle(900.0, 1);
  p.mark();
  p.idle(900.0, 2);
  p.busy(900.0, sig, act);
  p.idle(900.0, 3);
  p.rewind();
  p.idle(900.0, 3);

  // Rewind to just before a memo was recorded: the next advance replays a
  // memo whose carry-out differs from its carry-in.
  p.busy(300.0, sig, act);
  p.mark();
  p.idle(900.0, 1);
  p.rewind();
  p.idle(900.0, 3);
}

TEST(AccrualEquivalence, IdleReuseDefaultConfig) {
  idle_reuse_scenarios(NodeConfig{}, 0x1D1E);
}

TEST(AccrualEquivalence, IdleReuseShortSlicesAndNarrowTransfers) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 37.7;
  cfg.dma.eight_word_fraction = 0.13;
  idle_reuse_scenarios(cfg, 0x1D2E);
}

TEST(AccrualEquivalence, IdleReuseAllEightWordTransfers) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 13.3;
  cfg.dma.eight_word_fraction = 1.0;
  idle_reuse_scenarios(cfg, 0x1D3E);
}

// The fuzz mix again, with idle runs of 3-6 whole intervals interleaved so
// the memo is hit from random carry states.
// Noise rates whose per-slice increments are not whole counts: idle
// residuals never settle, so the memo is reused only after a rewind.
TEST(AccrualEquivalence, IdleReuseFractionalNoise) {
  NodeConfig cfg;
  cfg.os_noise_fxu_per_s = 151234.567;
  cfg.os_noise_icu_per_s = 40321.123;
  cfg.dma.eight_word_fraction = 0.37;
  idle_reuse_scenarios(cfg, 0x1D5E);
}

TEST(AccrualEquivalence, IdleRunsInterleavedWithRandomOps) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 45.0;
  cfg.dma.eight_word_fraction = 0.8;
  util::Xoshiro256StarStar rng(0x1D4E);
  const power2::EventSignature sig = random_signature(rng);
  Pair p(cfg);
  for (int op = 0; op < 60 && !testing::Test::HasFailure(); ++op) {
    switch (rng.below(5)) {
      case 0:
        p.busy(rng.uniform(0.01, 1800.0), sig, random_profile(rng));
        break;
      case 1:
        p.idle_with_traffic(rng.uniform(0.01, 1800.0), random_profile(rng));
        break;
      case 2:
        p.crash_reboot();
        break;
      case 3:
        p.restore_fast();
        break;
      default:
        break;
    }
    p.idle(900.0, 3 + static_cast<int>(rng.below(4)));
  }
}

// --- busy reuse and the steady-state closed form ---------------------------
//
// Without paging, a busy advance of three or more full slices replays two
// slices, then multiplies the rest out when the residuals have settled and
// both DMA chains fit DmaEngine::replay_slices; the user-mode scale of a
// repeated (signature, mix, length) comes from the busy memo.  These
// scenarios drive both through their edges.

/// A busy profile that does not page, with the slice traffic set directly
/// (bytes per slice = rate * slice length).
ActivityProfile steady_profile(util::Xoshiro256StarStar& rng) {
  ActivityProfile a = random_profile(rng);
  a.page_faults_per_s = 0.0;
  return a;
}

void steady_scenarios(const NodeConfig& cfg, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  const power2::EventSignature sig = random_signature(rng);
  const ActivityProfile act = steady_profile(rng);
  const double max = cfg.max_sample_slice_s;
  Pair p(cfg);

  // Whole-slice intervals of 3..64 slices, each length twice in a row so
  // the second call hits the memo from a different carry.
  for (int k = 3; k <= 64 && !testing::Test::HasFailure(); ++k) {
    p.busy(max * k, sig, act);
    p.busy(max * k, sig, act);
  }
  // Runs of 15-minute intervals, a partial remainder, fewer than three
  // slices, and an idle tail between jobs.
  for (int round = 0; round < 3; ++round) {
    const ActivityProfile mix = steady_profile(rng);
    for (int i = 0; i < 4; ++i) p.busy(900.0, sig, mix);
    p.busy(900.0 - rng.uniform(1.0, 899.0), sig, mix);
    p.busy(max * 2.0, sig, mix);
    p.busy(max * 1.5, sig, mix);
    p.idle(900.0, 2);
  }
  // A paging interval in the middle of a steady run falls back to the loop.
  ActivityProfile paging = act;
  paging.page_faults_per_s = 3.0;
  p.busy(900.0, sig, act);
  p.busy(900.0, sig, paging);
  p.busy(900.0, sig, act);

  // Crash/reboot and checkpoint round trips between busy advances: the
  // memo survives them (it is pure), the carry does not.
  p.busy(900.0, sig, act);
  p.crash_reboot();
  p.busy(900.0, sig, act);
  p.busy(900.0, sig, act);
  p.restore_fast();
  p.busy(900.0, sig, act);
  p.mark();
  p.busy(900.0, sig, act);
  p.busy(900.0, sig, act);
  p.rewind();
  p.busy(900.0, sig, act);
}

TEST(AccrualEquivalence, SteadyBusyDefaultConfig) {
  steady_scenarios(NodeConfig{}, 0x57EA);
}

TEST(AccrualEquivalence, SteadyBusyOddSliceLength) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 37.7;
  steady_scenarios(cfg, 0x57EB);
}

// eight_word_fraction = 0.3 makes the transfer size 41.6 bytes, off the
// grid of any realistic slice traffic: every DMA chain takes the loop.
TEST(AccrualEquivalence, SteadyBusyNonIntegerTransferSize) {
  NodeConfig cfg;
  cfg.dma.eight_word_fraction = 0.3;
  steady_scenarios(cfg, 0x57EC);
}

TEST(AccrualEquivalence, SteadyBusyWaitStateSelection) {
  NodeConfig cfg;
  cfg.monitor.selection = hpm::CounterSelection::kWaitStates;
  steady_scenarios(cfg, 0x57ED);
}

// Slice traffic placed exactly at the edges of the closed form's domain.
// 32 s slices make bytes per slice = rate * 32 exact, so each rate below
// is the intended per-slice byte count divided by 32.
TEST(AccrualEquivalence, SteadyBusyDmaEdges) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 32.0;
  const double per = cfg.dma.avg_transfer_bytes();  // 48
  util::Xoshiro256StarStar rng(0x57EE);
  const power2::EventSignature sig = random_signature(rng);
  const auto rate = [](double bytes_per_slice) { return bytes_per_slice / 32; };
  const double g24 = std::ldexp(1.0, -28);  // ulp of [2^24, 2^25)
  const double g25 = std::ldexp(1.0, -27);  // ulp of [2^25, 2^26)
  struct Edge {
    const char* what;
    double read;   // bytes per slice, memory -> device
    double write;  // bytes per slice, device -> memory
  };
  const Edge edges[] = {
      {"at the binade guard", std::ldexp(1.0, 25) - 4 * per,
       std::ldexp(1.0, 25) - 4 * per},
      {"one step past the guard", std::ldexp(1.0, 25) - 4 * per + g24,
       std::ldexp(1.0, 25) - 4 * per + g24},
      // From an empty residual the first slice leaves per - g pending.
      {"residual one grid step below a transfer",
       3 * std::ldexp(1.0, 24) - g25, 3 * std::ldexp(1.0, 24) - 2 * g25},
      {"less than a transfer per slice", 20.0, 47.0},
      {"one idle direction", 5e7, 0.0},
      {"both directions idle", 0.0, 0.0},
  };
  for (const Edge& e : edges) {
    SCOPED_TRACE(e.what);
    Pair p(cfg);
    ActivityProfile act;
    act.compute_fraction = 0.6;
    act.comm_send_bytes_per_s = rate(e.read);
    act.comm_recv_bytes_per_s = rate(e.write);
    for (int i = 0; i < 5; ++i) p.busy(900.0, sig, act);
    p.busy(32.0 * 40, sig, act);
    p.busy(32.0 * 3, sig, act);
    if (testing::Test::HasFailure()) return;
  }
}

// One signature object whose rates change between calls: the memo keys on
// the values, so the second advance must not reuse the first's counts.
TEST(AccrualEquivalence, BusyMemoKeysOnSignatureValues) {
  util::Xoshiro256StarStar rng(0x57EF);
  power2::EventSignature sig = random_signature(rng);
  ActivityProfile act = steady_profile(rng);
  Pair p(NodeConfig{});
  p.busy(900.0, sig, act);
  p.busy(900.0, sig, act);
  sig.fxu0_inst *= 0.5;
  p.busy(900.0, sig, act);
  sig.quad_inst = sig.memory_inst;
  p.busy(900.0, sig, act);
  sig = random_signature(rng);
  p.busy(900.0, sig, act);
  // The same signature under a changed mix or length.
  act.comm_wait_fraction = std::min(1.0, act.comm_wait_fraction + 0.1);
  p.busy(900.0, sig, act);
  act.compute_fraction *= 0.5;
  p.busy(900.0, sig, act);
  p.busy(899.0, sig, act);
  p.busy(900.0, sig, act);
}

// --- the interval repeat -----------------------------------------------------
//
// After an advance that ends at the carry fixed point, Node::repeat replays
// it whole: fixed counter adds plus one step of each DMA chain's integer
// recurrence.  Each scenario checks the repeat against the reference
// node's advance() with the same inputs, bit for bit, and that the adds
// the repeat reports are exactly what the totals gained.

TEST(AccrualEquivalence, RepeatIdle) {
  struct Case {
    const char* what;
    NodeConfig cfg;
    double seconds;
    bool settles;  // the idle residuals reach a fixed point
  };
  const Case cases[] = {
      {"15-minute intervals of 50 s slices", NodeConfig{}, 900.0, true},
      // A remainder slice: the DMA state does not move, so an interval
      // that ends where it began on the residuals repeats as well.
      {"a remainder slice", NodeConfig{}, 325.0, true},
      {"45 s slices", NodeConfig{.max_sample_slice_s = 45.0}, 900.0, true},
      // Idle increments that are not whole counts: the residuals keep
      // moving, so the node never offers the repeat.
      {"37.7 s slices", NodeConfig{.max_sample_slice_s = 37.7}, 900.0, false},
      {"fractional noise",
       NodeConfig{.os_noise_fxu_per_s = 151234.567,
                  .os_noise_icu_per_s = 40321.123},
       900.0, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    util::Xoshiro256StarStar rng(0x4E91);
    const power2::EventSignature sig = random_signature(rng);
    Pair p(c.cfg);
    const auto idle_run = [&] {
      // Advance until the node can repeat, as a lane would, then repeat.
      for (int i = 0; i < 4 && !p.can_repeat(); ++i) p.idle(c.seconds);
      EXPECT_EQ(p.can_repeat(), c.settles);
      if (p.can_repeat()) p.repeat(6);
    };
    p.idle(c.seconds);
    idle_run();
    p.busy(900.0, sig, steady_profile(rng));
    p.idle(c.seconds);
    idle_run();
    p.crash_reboot();
    p.idle(c.seconds);
    idle_run();
    p.restore_fast();
    p.idle(c.seconds);
    idle_run();
    if (testing::Test::HasFailure()) return;
  }
}

void repeat_busy_scenarios(const NodeConfig& cfg, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  const power2::EventSignature sig = random_signature(rng);
  Pair p(cfg);
  for (int round = 0; round < 6 && !testing::Test::HasFailure(); ++round) {
    const ActivityProfile act = steady_profile(rng);
    // The first interval leaves the idle residuals behind, the second
    // starts settled: from then on every interval is a repeat.
    p.busy(900.0, sig, act);
    p.busy(900.0, sig, act);
    p.repeat(12);
    // A mix change (an NFS grant change) advances normally from a settled
    // carry, and is repeatable at once.
    ActivityProfile regrant = act;
    regrant.disk_read_bytes_per_s *= 0.5;
    p.busy(900.0, sig, regrant);
    p.repeat(3);
    // A paging interval is never repeatable.
    ActivityProfile paging = act;
    paging.page_faults_per_s = 2.0;
    p.busy(900.0, sig, paging);
    EXPECT_FALSE(p.can_repeat());
    p.busy(900.0, sig, act);
    p.busy(900.0, sig, act);
    p.repeat(2);
    // A remainder slice breaks the closed form's chain of full slices:
    // with DMA traffic, an interval that has one never repeats, even when
    // its residuals end where they began.
    p.busy(910.0, sig, act);
    p.busy(910.0, sig, act);
    EXPECT_FALSE(p.can_repeat());
    // A job-end partial interval, then idle.
    p.busy(rng.uniform(1.0, 899.0), sig, act);
    p.idle(900.0, 2);
    p.repeat(2);
  }
  // Crash, restore and rewind between repeats.
  const ActivityProfile act = steady_profile(rng);
  p.busy(900.0, sig, act);
  p.busy(900.0, sig, act);
  p.repeat(2);
  p.crash_reboot();
  p.busy(900.0, sig, act);
  p.busy(900.0, sig, act);
  p.repeat(2);
  p.restore_fast();
  p.busy(900.0, sig, act);
  p.repeat(2);
  p.mark();
  p.repeat(3);
  p.rewind();
  p.busy(900.0, sig, act);
  p.repeat(3);
}

TEST(AccrualEquivalence, RepeatSteadyBusyDefaultConfig) {
  repeat_busy_scenarios(NodeConfig{}, 0x4E92);
}

// A busy interval that starts off the recorded fixed point: an idle
// remainder slice leaves a fractional noise residual, which the next busy
// interval's first slice rounds onto the grid of its whole increments.
// The node must replay slices 1-2 there and repeat only once the
// residuals settle.
TEST(AccrualEquivalence, RepeatAfterFractionalResidual) {
  util::Xoshiro256StarStar rng(0x4E97);
  const power2::EventSignature sig = random_signature(rng);
  const ActivityProfile act = steady_profile(rng);
  Pair p(NodeConfig{});
  p.busy(900.0, sig, act);
  p.busy(900.0, sig, act);
  p.repeat(2);
  for (double tail : {333.3, 12.345, 0.1}) {
    p.idle(tail);
    p.busy(900.0, sig, act);
    for (int i = 0; i < 3 && !p.can_repeat(); ++i) p.busy(900.0, sig, act);
    p.repeat(3);
  }
}

TEST(AccrualEquivalence, RepeatSteadyBusyWaitStateSelection) {
  NodeConfig cfg;
  cfg.monitor.selection = hpm::CounterSelection::kWaitStates;
  cfg.dma.eight_word_fraction = 1.0;
  repeat_busy_scenarios(cfg, 0x4E93);
}

// The DMA domain's edges, as in SteadyBusyDmaEdges, now across whole
// intervals: 28 slices of 32 s, so the recurrence steps 28 slices a time.
TEST(AccrualEquivalence, RepeatDmaEdges) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 32.0;
  const double per = cfg.dma.avg_transfer_bytes();  // 48
  const double interval = 32.0 * 28;
  util::Xoshiro256StarStar rng(0x4E94);
  const power2::EventSignature sig = random_signature(rng);
  const auto rate = [](double bytes_per_slice) { return bytes_per_slice / 32; };
  const double g24 = std::ldexp(1.0, -28);  // ulp of [2^24, 2^25)
  const double g25 = std::ldexp(1.0, -27);  // ulp of [2^25, 2^26)
  struct Edge {
    const char* what;
    double read;   // bytes per slice, memory -> device
    double write;  // bytes per slice, device -> memory
    bool repeats;  // inside the closed form's domain
  };
  const Edge edges[] = {
      {"at the binade guard", std::ldexp(1.0, 25) - 4 * per,
       std::ldexp(1.0, 25) - 4 * per, true},
      {"one step past the guard", std::ldexp(1.0, 25) - 4 * per + g24,
       std::ldexp(1.0, 25) - 4 * per + g24, false},
      {"residual one grid step below a transfer",
       3 * std::ldexp(1.0, 24) - g25, 3 * std::ldexp(1.0, 24) - 2 * g25,
       true},
      {"less than a transfer per slice", 20.0, 47.0, false},
      {"exactly one transfer per slice", 48.0, 48.0, false},
      {"one idle direction", 5e7, 0.0, true},
      {"both directions idle", 0.0, 0.0, true},
  };
  for (const Edge& e : edges) {
    SCOPED_TRACE(e.what);
    Pair p(cfg);
    ActivityProfile act;
    act.compute_fraction = 0.6;
    act.comm_send_bytes_per_s = rate(e.read);
    act.comm_recv_bytes_per_s = rate(e.write);
    p.busy(interval, sig, act);
    p.busy(interval, sig, act);
    EXPECT_EQ(p.can_repeat(), e.repeats);
    if (e.repeats) p.repeat(40);
    if (testing::Test::HasFailure()) return;
  }
}

// A direction with no bytes keeps whatever residual the job before left
// in it: each repeat leaves it bitwise alone while the other direction
// steps.
TEST(AccrualEquivalence, RepeatWithOneIdleDirection) {
  util::Xoshiro256StarStar rng(0x4E95);
  const power2::EventSignature sig = random_signature(rng);
  Pair p(NodeConfig{});
  ActivityProfile both = steady_profile(rng);
  p.busy(900.0, sig, both);
  ActivityProfile reads_only = both;
  reads_only.comm_recv_bytes_per_s = 0.0;
  reads_only.disk_read_bytes_per_s = 0.0;
  p.busy(900.0, sig, reads_only);
  p.busy(900.0, sig, reads_only);
  p.repeat(10);
  ActivityProfile writes_only = both;
  writes_only.comm_send_bytes_per_s = 0.0;
  writes_only.disk_write_bytes_per_s = 0.0;
  p.busy(900.0, sig, writes_only);
  p.repeat(10);
}

// A transfer size off the grid of any slice's bytes (eight_word_fraction
// = 0.3 gives 41.6 bytes) puts every busy DMA chain outside the domain:
// the node never offers the repeat, and the normal path keeps matching.
TEST(AccrualEquivalence, RepeatDeclinesNonIntegerTransferSize) {
  NodeConfig cfg;
  cfg.dma.eight_word_fraction = 0.3;
  util::Xoshiro256StarStar rng(0x4E96);
  const power2::EventSignature sig = random_signature(rng);
  Pair p(cfg);
  const ActivityProfile act = steady_profile(rng);
  for (int i = 0; i < 6; ++i) {
    p.busy(900.0, sig, act);
    EXPECT_FALSE(p.can_repeat()) << "interval " << i;
  }
  // Without traffic the chains are the identity, so idle still repeats.
  p.idle(900.0, 2);
  p.repeat(3);
}

}  // namespace
}  // namespace p2sim::cluster
