#include "src/cluster/node.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "src/check/check.hpp"
#include "src/power2/field_table.hpp"

namespace p2sim::cluster {
namespace {

// The busy memo compares signatures with memcmp: every byte must be a rate.
static_assert(sizeof(power2::EventSignature) ==
                  (1 + power2::kScaledFieldCount) * sizeof(double),
              "EventSignature must be padding-free doubles");

/// Bitwise double equality: -0.0 differs from 0.0 and a NaN matches its
/// own bits, as the memo and fixed-point tests need.
P2SIM_PAR_SAFE bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The five residual accumulators lead a Carry; the DMA state follows.
constexpr std::size_t kResidualBytes = 5 * sizeof(double);

/// Splits an accumulated fractional count into a whole number plus residual.
P2SIM_PAR_SAFE std::uint64_t take_whole(double& residual) {
  const double whole = std::floor(residual);
  residual -= whole;
  return static_cast<std::uint64_t>(whole);
}

}  // namespace

Node::Node(int id, const NodeConfig& cfg)
    : id_(id), cfg_(cfg), monitor_(cfg.monitor), dma_(cfg.dma) {
  if (cfg_.max_sample_slice_s <= 0.0 ||
      cfg_.max_sample_slice_s * cfg_.clock_hz >= 4.0e9) {
    throw std::invalid_argument(
        "max_sample_slice_s must keep the cycle counter below one wrap");
  }
  ext_.attach(monitor_);
}

void Node::crash() {
  up_ = false;
  // Everything volatile dies with the OS: raw 32-bit banks, the daemon's
  // 64-bit extension (its process is gone), the DMA engine's residuals and
  // the quad diagnostic.  busy_seconds_ survives — it is the simulator's
  // own lifetime statistic, not node state.
  monitor_.clear();
  ext_ = rs2hpm::ExtendedCounters{};
  ext_.attach(monitor_);
  dma_ = DmaEngine(cfg_.dma);
  quad_total_ = 0;
  resid_fault_fxu_ = resid_fault_icu_ = resid_fault_cycles_ = 0.0;
  resid_noise_fxu_ = resid_noise_icu_ = 0.0;
  repeat_.valid = false;
}

void Node::reboot() { up_ = true; }

void Node::advance(double seconds, const power2::EventSignature* sig,
                   const ActivityProfile& profile) {
  if (!std::isfinite(seconds)) {
    throw std::invalid_argument("Node::advance: seconds must be finite");
  }
  repeat_.valid = false;
  if (!up_) return;  // a down node executes nothing and counts nothing
  if (seconds <= 0.0) return;
  check_profile(sig, profile);
  if (cfg_.reference_accrual) {
    advance_reference(seconds, sig, profile);
  } else {
    advance_batched(seconds, sig, profile);
  }
  // busy_seconds_ counts job-attached wall time only: with sig == nullptr
  // the slice is idle/system time even when wait fractions were requested
  // (check_profile forbids that combination — see the advance() contract).
  if (sig != nullptr) busy_seconds_ += seconds;
}

void Node::advance_reference(double seconds, const power2::EventSignature* sig,
                             const ActivityProfile& profile) {
  double left = seconds;
  while (left > 0.0) {
    const double slice = std::min(left, cfg_.max_sample_slice_s);
    apply_slice(slice, sig, profile);
    ext_.sample(monitor_);  // multipass: sample well below the wrap period
    left -= slice;
  }
}

// The closed-form fast path.  The reference loop above cuts `seconds` into
// n identical full slices of max_sample_slice_s plus one fp-exact remainder
// (repeated `left -= max` reproduces the same doubles), and every full
// slice is arithmetically identical: the same `rounded(rate * cycles)` per
// field, the same wait-state truncation.  So the user-mode total is
//     n * scale(full_slice) + scale(remainder)
// computed with two scales instead of n + 1 — one when the remainder is
// itself a full slice, as in every 15-minute interval — and replayed from
// the busy memo while a node keeps running one job.  The 32-bit banks only
// ever see sums mod 2^32, and each reference slice advances every mapped
// counter by < 2^32 (the ctor's wrap bound on cycles; physical rates are
// <= a few per cycle), so each per-slice wrap_delta equals the true
// increment and the summed 64-bit totals handed to ExtendedCounters::
// accrue are exactly what slice-by-slice sampling would have accumulated.
// Only the floating-point carry state — the five residual accumulators,
// the integer fxu split, and the DMA byte residuals — depends on slice
// boundaries, so just that state is replayed per slice.  The replay keeps
// the carry in locals and adds per-slice increments computed once per
// slice length: each increment is the same product apply_slice forms, and
// each chain runs the same IEEE operations in the same order, so the
// result is bit-identical by construction.  Without paging, the residuals
// usually settle after one slice; from then on every full slice repeats
// the same whole counts, so the rest of the run is multiplied out instead
// of replayed.  The DMA chains have an exact modular closed form
// (DmaEngine::steady), solved for all full slices at once.  A call that
// ends where it began on the residuals leaves what repeat() needs to
// replay it whole.
void Node::advance_batched(double seconds, const power2::EventSignature* sig,
                           const ActivityProfile& profile) {
  // Replicate the reference slice decomposition bit-for-bit.
  const double max_slice = cfg_.max_sample_slice_s;
  std::uint64_t n_full = 0;
  double left = seconds;
  while (left > max_slice) {
    left -= max_slice;
    ++n_full;
  }
  const double rem = left;  // in (0, max_sample_slice_s]
  // A remainder equal to a full slice is one: n_same slices share the full
  // slice's increments, and only a shorter remainder needs its own.
  const bool rem_is_full = same_bits(rem, max_slice);
  const std::uint64_t n_same = n_full + (rem_is_full ? 1 : 0);

  hpm::CounterAdds user_adds{};
  std::uint64_t quad = 0;

  // --- user-mode work, closed form ---
  if (sig != nullptr && profile.compute_fraction > 0.0) {
    const bool hit =
        busy_.valid && same_bits(busy_.seconds, seconds) &&
        same_bits(busy_.compute_fraction, profile.compute_fraction) &&
        same_bits(busy_.comm_wait_fraction, profile.comm_wait_fraction) &&
        same_bits(busy_.io_wait_fraction, profile.io_wait_fraction) &&
        std::memcmp(&busy_.sig, sig, sizeof *sig) == 0;
    if (!hit) {
      const auto slice_user = [&](double slice) {
        const double cycles =
            slice * cfg_.clock_hz * std::min(profile.compute_fraction, 1.0);
        P2SIM_INVARIANT(cycles < 4294967296.0,
                        "slice cycles must stay below one counter wrap");
        power2::EventCounts ev = sig->scale(cycles);
        ev.comm_wait_cycles = static_cast<std::uint64_t>(
            slice * cfg_.clock_hz * std::min(profile.comm_wait_fraction, 1.0));
        ev.io_wait_cycles = static_cast<std::uint64_t>(
            slice * cfg_.clock_hz * std::min(profile.io_wait_fraction, 1.0));
        return ev;
      };
      power2::EventCounts user_total;
      if (n_same > 0) {
        const power2::EventCounts full = slice_user(max_slice);
        user_total.cycles = full.cycles * n_same;
        for (const power2::ScaledField& f : power2::kScaledFields)
          user_total.*(f.count) = (full.*(f.count)) * n_same;
        user_total.comm_wait_cycles = full.comm_wait_cycles * n_same;
        user_total.io_wait_cycles = full.io_wait_cycles * n_same;
      }
      if (!rem_is_full) user_total += slice_user(rem);
      busy_.valid = true;
      busy_.seconds = seconds;
      busy_.compute_fraction = profile.compute_fraction;
      busy_.comm_wait_fraction = profile.comm_wait_fraction;
      busy_.io_wait_fraction = profile.io_wait_fraction;
      busy_.sig = *sig;
      busy_.user_adds = {};
      monitor_.map_events(user_total, busy_.user_adds);
      busy_.quad = user_total.quad_inst;
    }
    user_adds = busy_.user_adds;
    quad = busy_.quad;
    quad_total_ += quad;
  }

  // --- system-mode work + DMA: replay only the fp carry state per slice ---
  // The per-slice increments of apply_slice, formed once per slice length
  // (`0.05 * noise * seconds` parses as `(0.05 * noise) * seconds`, so the
  // idle rate folds the 0.05 in first, exactly as there).
  const bool faulting = profile.page_faults_per_s > 0.0;
  const double noise_fxu_rate = sig != nullptr
                                    ? cfg_.os_noise_fxu_per_s
                                    : 0.05 * cfg_.os_noise_fxu_per_s;
  const double noise_icu_rate = sig != nullptr
                                    ? cfg_.os_noise_icu_per_s
                                    : 0.05 * cfg_.os_noise_icu_per_s;
  struct SliceCarry {
    double fault_fxu = 0.0;
    double fault_icu = 0.0;
    double fault_cycles = 0.0;
    double noise_fxu = 0.0;
    double noise_icu = 0.0;
    DmaEngine::SliceTraffic traffic;
  };
  const auto increments = [&](double slice) {
    SliceCarry c;
    if (faulting) {
      const double faults = profile.page_faults_per_s * slice;
      c.fault_fxu = faults * cfg_.fault_fxu_inst;
      c.fault_icu = faults * cfg_.fault_icu_inst;
      c.fault_cycles = faults * cfg_.fault_cycles;
      c.traffic.page_bytes = faults * cfg_.page_bytes;
    }
    c.noise_fxu = noise_fxu_rate * slice;
    c.noise_icu = noise_icu_rate * slice;
    c.traffic.read_bytes =
        (profile.comm_send_bytes_per_s + profile.disk_write_bytes_per_s) *
        slice;
    c.traffic.write_bytes =
        (profile.comm_recv_bytes_per_s + profile.disk_read_bytes_per_s) *
        slice;
    return c;
  };
  const SliceCarry full = increments(max_slice);

  static_assert(offsetof(Carry, dma) == kResidualBytes,
                "the residuals must lead the carry");
  const Carry carry_in = carry();
  Carry c = carry_in;
  const double per_transfer = dma_.config().avg_transfer_bytes();
  DmaEngine::Harvest io;
  power2::EventCounts sys_total;
  const auto replay_residuals = [&](const SliceCarry& inc) {
    if (faulting) {
      c.fault_fxu += inc.fault_fxu;
      c.fault_icu += inc.fault_icu;
      c.fault_cycles += inc.fault_cycles;
    }
    c.noise_fxu += inc.noise_fxu;
    c.noise_icu += inc.noise_icu;
    const std::uint64_t f_fxu =
        take_whole(c.fault_fxu) + take_whole(c.noise_fxu);
    const std::uint64_t f_icu =
        take_whole(c.fault_icu) + take_whole(c.noise_icu);
    sys_total.fxu0_inst += f_fxu / 2;
    sys_total.fxu1_inst += f_fxu - f_fxu / 2;
    sys_total.icu_type1 += f_icu;
    sys_total.cycles += take_whole(c.fault_cycles);
  };
  const auto replay = [&](const SliceCarry& inc) {
    replay_residuals(inc);
    DmaEngine::replay_slice(c.dma, inc.traffic, per_transfer, io);
  };
  // Without paging the DMA chains never touch the residuals: when both are
  // inside the closed form's domain, all n_same full slices of them are
  // solved up front and the full slices below replay the residuals only.
  // The recurrence is left where the call leaves the chains, for repeat().
  DmaEngine::Steady dma{};
  const bool dma_closed =
      !faulting && n_same > 0 &&
      DmaEngine::steady(c.dma, full.traffic, per_transfer, n_same, dma);
  if (dma_closed) DmaEngine::step(c.dma, dma, io);
  const auto replay_full = [&] {
    dma_closed ? replay_residuals(full) : replay(full);
  };
  std::uint64_t replayed = 0;
  if (!faulting && n_same >= 3) {
    // Slices 1 and 2 as the loop runs them.  If slice 2 leaves the
    // residuals bitwise where slice 1 left them, they are at a fixed point:
    // every later full slice starts from the same bits, so it repeats
    // slice 2's whole counts.
    replay_full();
    const Carry settled = c;
    const power2::EventCounts before = sys_total;
    replay_full();
    replayed = 2;
    const std::uint64_t m = n_same - 2;
    if (std::memcmp(&c, &settled, kResidualBytes) == 0 &&
        (dma_closed || DmaEngine::replay_slices(c.dma, full.traffic,
                                                per_transfer, m, io))) {
      sys_total.fxu0_inst += (sys_total.fxu0_inst - before.fxu0_inst) * m;
      sys_total.fxu1_inst += (sys_total.fxu1_inst - before.fxu1_inst) * m;
      sys_total.icu_type1 += (sys_total.icu_type1 - before.icu_type1) * m;
      sys_total.cycles += (sys_total.cycles - before.cycles) * m;
      replayed = n_same;
    }
  }
  for (std::uint64_t i = replayed; i < n_same; ++i) replay_full();
  if (!rem_is_full) replay(increments(rem));
  set_carry(c);

  hpm::CounterAdds sys_adds{};
  monitor_.map_events(sys_total, sys_adds);
  // The interval repeat: a call that ends where it began on the residuals
  // replays whole from the same inputs — the residual chain runs from the
  // same bits, the user half is the memo's — once the DMA chains follow
  // too: all n_same slices in closed form.  A remainder slice breaks that
  // chain, so then only a node without DMA traffic repeats (each chain's
  // recurrence is the identity).  dma_closed implies no paging.
  const bool no_traffic =
      full.traffic.read_bytes == 0.0 && full.traffic.write_bytes == 0.0;
  if (dma_closed && (rem_is_full || no_traffic) &&
      std::memcmp(&c, &carry_in, kResidualBytes) == 0) {
    repeat_.valid = true;
    repeat_.busy_seconds = sig != nullptr ? seconds : 0.0;
    repeat_.quad = quad;
    repeat_.dma = dma;
    repeat_.user_adds = user_adds;
    repeat_.sys_adds = sys_adds;
  }
  if (io.read_transfers != 0 || io.write_transfers != 0) {
    power2::EventCounts dma_events;
    dma_events.dma_read = io.read_transfers;
    dma_events.dma_write = io.write_transfers;
    monitor_.map_events(dma_events, user_adds);
  }
  monitor_.accumulate_adds(user_adds, hpm::PrivilegeMode::kUser);
  monitor_.accumulate_adds(sys_adds, hpm::PrivilegeMode::kSystem);
  ext_.accrue(monitor_, user_adds, sys_adds);
}

void Node::repeat() {
  P2SIM_CHECK(up_ && repeat_.valid, "Node::repeat needs can_repeat()");
  constexpr std::size_t kRead = hpm::index_of(hpm::HpmCounter::kDmaRead);
  constexpr std::size_t kWrite = hpm::index_of(hpm::HpmCounter::kDmaWrite);
  DmaEngine::Bytes bytes = dma_.bytes();
  DmaEngine::Harvest io;
  DmaEngine::step(bytes, repeat_.dma, io);
  dma_.set_bytes(bytes);
  // The user adds hold no DMA transfers of their own (map_events adds
  // only dma_read/dma_write there), so the slots take this step's counts.
  repeat_.user_adds[kRead] = io.read_transfers;
  repeat_.user_adds[kWrite] = io.write_transfers;
  monitor_.accumulate_adds(repeat_.user_adds, hpm::PrivilegeMode::kUser);
  monitor_.accumulate_adds(repeat_.sys_adds, hpm::PrivilegeMode::kSystem);
  ext_.accrue(monitor_, repeat_.user_adds, repeat_.sys_adds);
  quad_total_ += repeat_.quad;
  if (repeat_.busy_seconds > 0.0) busy_seconds_ += repeat_.busy_seconds;
}

Node::Carry Node::carry() const {
  return {resid_fault_fxu_, resid_fault_icu_, resid_fault_cycles_,
          resid_noise_fxu_, resid_noise_icu_, dma_.bytes()};
}

void Node::set_carry(const Carry& c) {
  resid_fault_fxu_ = c.fault_fxu;
  resid_fault_icu_ = c.fault_icu;
  resid_fault_cycles_ = c.fault_cycles;
  resid_noise_fxu_ = c.noise_fxu;
  resid_noise_icu_ = c.noise_icu;
  dma_.set_bytes(c.dma);
}

void Node::check_profile(const power2::EventSignature* sig,
                         const ActivityProfile& profile) const {
#if P2SIM_CHECKS_ENABLED
  const auto fraction_ok = [](double f) {
    return std::isfinite(f) && f >= 0.0 && f <= 1.0;
  };
  const auto rate_ok = [](double r) { return std::isfinite(r) && r >= 0.0; };
  P2SIM_CHECK(fraction_ok(profile.compute_fraction),
              "compute_fraction must be finite and in [0,1]");
  P2SIM_CHECK(fraction_ok(profile.comm_wait_fraction),
              "comm_wait_fraction must be finite and in [0,1]");
  P2SIM_CHECK(fraction_ok(profile.io_wait_fraction),
              "io_wait_fraction must be finite and in [0,1]");
  P2SIM_CHECK(rate_ok(profile.comm_send_bytes_per_s) &&
                  rate_ok(profile.comm_recv_bytes_per_s) &&
                  rate_ok(profile.disk_read_bytes_per_s) &&
                  rate_ok(profile.disk_write_bytes_per_s) &&
                  rate_ok(profile.page_faults_per_s),
              "traffic and fault rates must be finite and >= 0");
  // Wait time belongs to a job; without a signature the slice is idle and
  // the wait-state counters stay silent (see the advance() contract).
  P2SIM_CHECK(sig != nullptr || (profile.comm_wait_fraction == 0.0 &&
                                 profile.io_wait_fraction == 0.0),
              "wait fractions require a running job (sig != nullptr)");
#else
  (void)sig;
  (void)profile;
#endif
}

void Node::advance_idle(double seconds) {
  ActivityProfile idle;
  idle.compute_fraction = 0.0;
  advance(seconds, nullptr, idle);
}

void Node::apply_slice(double seconds, const power2::EventSignature* sig,
                       const ActivityProfile& profile) {
  // --- user-mode work ---
  if (sig != nullptr && profile.compute_fraction > 0.0) {
    const double cycles =
        seconds * cfg_.clock_hz * std::min(profile.compute_fraction, 1.0);
    // The multipass-sampling contract: no slice may advance any counter by
    // a full 2^32, or the wrap correction in ExtendedCounters under-counts
    // (the paper's 15-minute-vs-64-second sampling rule).
    P2SIM_INVARIANT(cycles < 4294967296.0,
                    "slice cycles must stay below one counter wrap");
    power2::EventCounts ev = sig->scale(cycles);
    // Wait-state signals are slice-level, not per-compute-cycle: they count
    // the wall time the processor spent blocked.
    ev.comm_wait_cycles = static_cast<std::uint64_t>(
        seconds * cfg_.clock_hz * std::min(profile.comm_wait_fraction, 1.0));
    ev.io_wait_cycles = static_cast<std::uint64_t>(
        seconds * cfg_.clock_hz * std::min(profile.io_wait_fraction, 1.0));
    monitor_.accumulate(ev, hpm::PrivilegeMode::kUser);
    quad_total_ += ev.quad_inst;
  }

  // --- system-mode work: page-fault handling + background OS noise ---
  power2::EventCounts sys;
  if (profile.page_faults_per_s > 0.0) {
    const double faults = profile.page_faults_per_s * seconds;
    resid_fault_fxu_ += faults * cfg_.fault_fxu_inst;
    resid_fault_icu_ += faults * cfg_.fault_icu_inst;
    resid_fault_cycles_ += faults * cfg_.fault_cycles;
    // Paging I/O moves pages over DMA: evictions out, refills in.
    const double page_bytes = faults * cfg_.page_bytes;
    dma_.transfer(/*read_bytes=*/page_bytes, /*write_bytes=*/page_bytes);
  }
  const bool busy = sig != nullptr;
  if (busy) {
    resid_noise_fxu_ += cfg_.os_noise_fxu_per_s * seconds;
    resid_noise_icu_ += cfg_.os_noise_icu_per_s * seconds;
  } else {
    // Idle nodes still run daemons at a trickle.
    resid_noise_fxu_ += 0.05 * cfg_.os_noise_fxu_per_s * seconds;
    resid_noise_icu_ += 0.05 * cfg_.os_noise_icu_per_s * seconds;
  }
  const std::uint64_t f_fxu = take_whole(resid_fault_fxu_) +
                              take_whole(resid_noise_fxu_);
  const std::uint64_t f_icu = take_whole(resid_fault_icu_) +
                              take_whole(resid_noise_icu_);
  sys.fxu0_inst = f_fxu / 2;
  sys.fxu1_inst = f_fxu - f_fxu / 2;
  sys.icu_type1 = f_icu;
  sys.cycles = take_whole(resid_fault_cycles_);
  monitor_.accumulate(sys, hpm::PrivilegeMode::kSystem);

  // --- DMA traffic: messages and filesystem ---
  // "Reads" move data from memory to a device (sends, file writes);
  // "writes" move data into memory (receives, file reads).
  dma_.transfer(
      (profile.comm_send_bytes_per_s + profile.disk_write_bytes_per_s) *
          seconds,
      (profile.comm_recv_bytes_per_s + profile.disk_read_bytes_per_s) *
          seconds);
  const DmaEngine::Harvest h = dma_.harvest();
  if (h.read_transfers || h.write_transfers) {
    power2::EventCounts io;
    io.dma_read = h.read_transfers;
    io.dma_write = h.write_transfers;
    monitor_.accumulate(io, hpm::PrivilegeMode::kUser);
  }
}

}  // namespace p2sim::cluster
