// One SP2 node: a POWER2 CPU with its performance monitor, the RS2HPM
// extension layer, and a Micro Channel DMA engine.
//
// At workload (level B) granularity the node advances in wall-time slices:
// user work accrues counter events from a kernel's EventSignature, system
// work (paging, OS overhead) accrues into the system-mode bank, and I/O
// traffic accrues DMA transfers.  Faithfulness detail: events pass through
// the real 32-bit wrapping CounterBank and are recovered by sub-wrap
// multipass sampling, exactly as the Maki tools did — advance() internally
// chunks long slices so no counter can wrap twice between samples.
#pragma once

#include <cstdint>

#include "src/check/annotate.hpp"
#include "src/cluster/dma.hpp"
#include "src/hpm/monitor.hpp"
#include "src/power2/signature.hpp"
#include "src/rs2hpm/snapshot.hpp"
#include "src/util/sim_time.hpp"

namespace p2sim::cluster {

/// What a node is doing during a wall-time slice.
struct ActivityProfile {
  /// Fraction of wall time executing user compute (the rest is comm wait,
  /// I/O wait, fault service or idle — none of which retire user events).
  double compute_fraction = 1.0;
  /// Message-passing traffic rates (bytes/s of wall time).
  double comm_send_bytes_per_s = 0.0;
  double comm_recv_bytes_per_s = 0.0;
  /// Filesystem traffic (bytes/s): reads enter memory, writes leave it.
  double disk_read_bytes_per_s = 0.0;
  double disk_write_bytes_per_s = 0.0;
  /// Paging intensity (see PagingModel) and per-fault OS costs.
  double page_faults_per_s = 0.0;
  /// Wait-state shares of wall time (for the kWaitStates selection): time
  /// blocked in message-passing and in disk/fault service respectively.
  double comm_wait_fraction = 0.0;
  double io_wait_fraction = 0.0;
};

struct NodeConfig {
  double clock_hz = util::MachineClock::kHz;
  double memory_mb = 128.0;
  hpm::MonitorConfig monitor{};
  DmaConfig dma{};
  /// System-mode costs per page fault (kept here so the node can convert a
  /// fault rate into counter events without knowing the paging model).
  double fault_fxu_inst = 55000.0;
  double fault_icu_inst = 13000.0;
  double fault_cycles = 130000.0;
  double page_bytes = 4096.0;
  /// Background OS noise while busy (system-mode instructions per second).
  double os_noise_fxu_per_s = 150e3;
  double os_noise_icu_per_s = 40e3;
  /// Longest slice applied between multipass samples; must stay below the
  /// 32-bit cycle-counter wrap (~64 s at 66.7 MHz).
  double max_sample_slice_s = 50.0;
  /// Use the original slice-by-slice accrual loop instead of the
  /// closed-form batched path.  The two are bit-identical by contract
  /// (tests/cluster/accrual_equivalence_test.cpp); the reference loop is
  /// kept as the oracle and for perf comparison, not for correctness.
  bool reference_accrual = false;
};

class Node {
 public:
  explicit Node(int id, const NodeConfig& cfg = {});

  /// Advances `seconds` of wall time running user work described by `sig`
  /// and `profile`.  Pass sig == nullptr for a purely idle/system slice.
  ///
  /// `seconds` must be finite in every build (std::invalid_argument
  /// otherwise): an infinite slice would never finish its slice loop and a
  /// NaN one would write garbage counts.
  ///
  /// Contract (checked under P2SIM_CHECKS): every ActivityProfile fraction
  /// must be finite and in [0, 1], and every rate finite and >= 0 — a NaN
  /// rate would silently poison the residual accumulators.  Wait-state
  /// fractions require sig != nullptr: without a job there is nothing to
  /// attribute blocked time to, so the slice counts as idle/system time,
  /// no wait-state cycles are recorded, and busy_seconds() does not grow.
  P2SIM_PAR_SAFE void advance(double seconds,
                              const power2::EventSignature* sig,
                              const ActivityProfile& profile);

  /// Idle slice: only daemon-level OS noise accrues.
  P2SIM_PAR_SAFE void advance_idle(double seconds);

  /// True when the last advance can be replayed whole by repeat(): it ran
  /// the batched path without paging, both DMA chains were inside the
  /// closed form's domain, it ended at the carry fixed point (its five
  /// residuals bitwise where they began), and either its slices were all
  /// full or it moved no DMA traffic.  Cleared by every other advance, by
  /// crash() and by restore_ckpt(); never checkpointed.
  P2SIM_PAR_SAFE bool can_repeat() const { return repeat_.valid; }

  /// Replays the last advance whole, bit-identically to calling advance()
  /// again with the same arguments — which the caller must guarantee: the
  /// same length, signature values and profile.  The node cannot check
  /// the signature itself (a caller may reuse one address for new rates),
  /// so the caller decides.  Requires can_repeat(); stays repeatable.
  P2SIM_PAR_SAFE void repeat();

  /// Power failure: the node drops out of service instantly.  Monitor
  /// state does not survive — the 32-bit banks, the RS2HPM 64-bit
  /// extension and the quad diagnostic all restart from zero, which is
  /// exactly the non-monotonicity downstream consumers must tolerate.
  /// advance()/advance_idle() are no-ops while the node is down.
  P2SIM_SERIAL_ONLY void crash();
  /// Returns the node to service (counters stay zeroed from the crash).
  P2SIM_SERIAL_ONLY void reboot();
  P2SIM_PAR_SAFE bool is_up() const { return up_; }

  P2SIM_PAR_SAFE int id() const { return id_; }
  const NodeConfig& config() const { return cfg_; }

  /// RS2HPM view: monotone 64-bit extended totals.  Lane-local reads, so
  /// the owning lane may probe them inside the parallel region.
  P2SIM_PAR_SAFE const rs2hpm::ModeTotals& totals() const {
    return ext_.totals();
  }
  /// Diagnostic channel (not a hardware counter): cumulative quad ops.
  P2SIM_PAR_SAFE std::uint64_t quad_total() const { return quad_total_; }
  /// Raw monitor (tests peek at the wrapping banks).
  const hpm::PerformanceMonitor& monitor() const { return monitor_; }
  /// DMA engine state (equivalence tests compare it byte-for-byte).
  const DmaEngine& dma() const { return dma_; }

  double busy_seconds() const { return busy_seconds_; }

  /// Checkpoint support: the complete per-node dynamic state (wrapping
  /// banks, 64-bit extension, DMA residuals, up/down flag, event
  /// residuals), so a restored node advances bit-identically.
  void save_ckpt(util::CkptWriter& w) const {
    monitor_.save_ckpt(w);
    ext_.save_ckpt(w);
    dma_.save_ckpt(w);
    w.put_u64(quad_total_);
    w.put_f64(busy_seconds_);
    w.put_bool(up_);
    w.put_f64(resid_fault_fxu_);
    w.put_f64(resid_fault_icu_);
    w.put_f64(resid_fault_cycles_);
    w.put_f64(resid_noise_fxu_);
    w.put_f64(resid_noise_icu_);
  }
  void restore_ckpt(util::CkptReader& r) {
    repeat_.valid = false;
    monitor_.restore_ckpt(r);
    ext_.restore_ckpt(r);
    dma_.restore_ckpt(r);
    quad_total_ = r.read_u64("node.quad_total");
    busy_seconds_ = r.read_f64("node.busy_seconds");
    up_ = r.read_bool("node.up");
    resid_fault_fxu_ = r.read_f64("node.resid_fault_fxu");
    resid_fault_icu_ = r.read_f64("node.resid_fault_icu");
    resid_fault_cycles_ = r.read_f64("node.resid_fault_cycles");
    resid_noise_fxu_ = r.read_f64("node.resid_noise_fxu");
    resid_noise_icu_ = r.read_f64("node.resid_noise_icu");
  }

 private:
  P2SIM_PAR_SAFE void apply_slice(double seconds,
                                  const power2::EventSignature* sig,
                                  const ActivityProfile& profile);
  P2SIM_PAR_SAFE void advance_reference(double seconds,
                                        const power2::EventSignature* sig,
                                        const ActivityProfile& profile);
  P2SIM_PAR_SAFE void advance_batched(double seconds,
                                      const power2::EventSignature* sig,
                                      const ActivityProfile& profile);
  P2SIM_PAR_SAFE void check_profile(const power2::EventSignature* sig,
                                    const ActivityProfile& profile) const;

  /// Everything the batched slice replay carries from one call to the
  /// next: the five residual accumulators and the DMA byte state.  Nine
  /// doubles and no padding, so two carries compare bitwise with memcmp.
  struct Carry {
    double fault_fxu = 0.0;
    double fault_icu = 0.0;
    double fault_cycles = 0.0;
    double noise_fxu = 0.0;
    double noise_icu = 0.0;
    DmaEngine::Bytes dma{};
  };
  static_assert(sizeof(Carry) == 9 * sizeof(double),
                "Carry must have no padding");
  P2SIM_PAR_SAFE Carry carry() const;
  P2SIM_PAR_SAFE void set_carry(const Carry& c);

  /// Interval repeat (see can_repeat()): the last advance's counter adds
  /// of both modes, its quad and busy-second increments, and its DMA
  /// chains' recurrence, which fills the user adds' DMA slots with each
  /// repeat's transfers.
  struct Repeat {
    bool valid = false;
    double busy_seconds = 0.0;
    std::uint64_t quad = 0;
    DmaEngine::Steady dma{};
    hpm::CounterAdds user_adds{};
    hpm::CounterAdds sys_adds{};
  };

  /// Busy reuse.  The user-mode half of a busy advance — the signature
  /// scale and its counter mapping — is a pure function of the signature's
  /// values, the three fractions it reads and the advance's length; the
  /// node config fixes everything else.  advance_batched keeps the last
  /// such result and replays it when the next busy call's inputs match bit
  /// for bit (a job's node runs whole intervals of one kernel at one mix).
  /// The key holds the signature by value: a caller may reuse one address
  /// for different rates.  Pure, so never invalidated and not checkpointed.
  struct BusyMemo {
    bool valid = false;
    double seconds = 0.0;
    double compute_fraction = 0.0;
    double comm_wait_fraction = 0.0;
    double io_wait_fraction = 0.0;
    power2::EventSignature sig{};
    hpm::CounterAdds user_adds{};
    std::uint64_t quad = 0;
  };

  int id_;
  NodeConfig cfg_;
  hpm::PerformanceMonitor monitor_;
  rs2hpm::ExtendedCounters ext_;
  DmaEngine dma_;
  std::uint64_t quad_total_ = 0;
  double busy_seconds_ = 0.0;
  bool up_ = true;
  // Residual accumulators so sub-event rates survive chunking.
  double resid_fault_fxu_ = 0.0;
  double resid_fault_icu_ = 0.0;
  double resid_fault_cycles_ = 0.0;
  double resid_noise_fxu_ = 0.0;
  double resid_noise_icu_ = 0.0;
  BusyMemo busy_{};
  Repeat repeat_{};
};

}  // namespace p2sim::cluster
