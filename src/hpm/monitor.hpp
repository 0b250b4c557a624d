// The POWER2 performance monitor proper: 22 physical 32-bit counters per
// privilege mode, fed by EventCounts from the core model (or, at level B,
// by scaled kernel signatures).
//
// Hardware fidelity points:
//   * counters are 32 bits wide and wrap silently — at 66.7 MHz the cycle
//     counter wraps every ~64 seconds, which is why the RS2HPM library must
//     sample well below the wrap period (see rs2hpm::ExtendedCounters);
//   * the NAS configuration suffered a monitor implementation error that
//     "prevented the proper reporting of the division operations" —
//     modelled by the `divide_counter_bug` flag (default on, matching the
//     0.0 Mflops-div rows of Table 3);
//   * user-mode and system-mode events accumulate separately.
#pragma once

#include <array>
#include <cstdint>

#include "src/check/annotate.hpp"
#include "src/check/check.hpp"
#include "src/hpm/events.hpp"
#include "src/power2/event_counts.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::hpm {

/// Per-counter 64-bit increments, indexed like CounterBank slots.  The
/// batched accrual path maps a whole interval's events into one of these
/// before touching the wrapping hardware registers.
using CounterAdds = std::array<std::uint64_t, kNumCounters>;

/// One bank of 22 physical counters; arithmetic wraps mod 2^32 like the
/// real 32-bit registers.
///
/// `add`/`add_batch` enforce the multipass-sampling contract: a single
/// increment must stay below one wrap (2^32), or the sampling layer's
/// wrap-delta recovery silently undercounts.  `fold`/`fold_batch` are the
/// wrap-agnostic escape hatch for callers (the closed-form accrual path,
/// wrap-behaviour tests) that track the 64-bit truth separately and only
/// need the register's mod-2^32 residue to stay faithful.
class CounterBank {
 public:
  P2SIM_PAR_SAFE void add(HpmCounter c, std::uint64_t n) {
    P2SIM_CHECK(n < kWrap, "CounterBank::add: increment >= one wrap");
    fold(c, n);
  }
  P2SIM_PAR_SAFE void fold(HpmCounter c, std::uint64_t n) {
    counters_[index_of(c)] =
        static_cast<std::uint32_t>(counters_[index_of(c)] + n);
  }
  P2SIM_PAR_SAFE void add_batch(const CounterAdds& n) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      P2SIM_CHECK(n[i] < kWrap, "CounterBank::add_batch: increment >= wrap");
      counters_[i] = static_cast<std::uint32_t>(counters_[i] + n[i]);
    }
  }
  P2SIM_PAR_SAFE void fold_batch(const CounterAdds& n) {
    for (std::size_t i = 0; i < kNumCounters; ++i)
      counters_[i] = static_cast<std::uint32_t>(counters_[i] + n[i]);
  }
  P2SIM_PAR_SAFE std::uint32_t read(HpmCounter c) const {
    return counters_[index_of(c)];
  }
  P2SIM_PAR_SAFE const std::array<std::uint32_t, kNumCounters>& raw() const {
    return counters_;
  }
  P2SIM_PAR_SAFE void clear() { counters_.fill(0); }

  /// Checkpoint support: raw 32-bit register values round-trip exactly.
  void save_ckpt(util::CkptWriter& w) const {
    for (std::uint32_t c : counters_) w.put_u32(c);
  }
  void restore_ckpt(util::CkptReader& r) {
    for (std::uint32_t& c : counters_) c = r.read_u32("counter_bank.reg");
  }

 private:
  static constexpr std::uint64_t kWrap = 1ULL << 32;
  std::array<std::uint32_t, kNumCounters> counters_{};
};

struct MonitorConfig {
  /// The NAS campaign's hardware bug: divide operations never reach the
  /// fp_div counters (instruction counts in user.fpuN are unaffected).
  bool divide_counter_bug = true;
  /// Which signals the 22 counters record (see hpm::CounterSelection).
  CounterSelection selection = CounterSelection::kNasDefault;
};

class PerformanceMonitor {
 public:
  explicit PerformanceMonitor(const MonitorConfig& cfg = {}) : cfg_(cfg) {}

  /// Accumulates a batch of microarchitectural events into the bank for
  /// the given privilege mode.
  P2SIM_PAR_SAFE void accumulate(const power2::EventCounts& ev,
                                 PrivilegeMode mode);

  /// Maps `ev` onto per-counter increments under this monitor's selection
  /// (+= semantics: callers may fold several event batches into one
  /// CounterAdds).  This is exactly the event-to-slot wiring accumulate()
  /// applies, audited at the same kScaled gate.
  P2SIM_PAR_SAFE void map_events(const power2::EventCounts& ev,
                                 CounterAdds& adds) const;

  /// Batched register update: folds pre-mapped increments into the bank.
  /// Unlike accumulate(), one call may cover an arbitrary stretch of
  /// multipass slices — per-counter totals at or above 2^32 are legal, the
  /// registers keep only the faithful mod-2^32 residue, and the caller
  /// (rs2hpm::ExtendedCounters::accrue) owns the 64-bit truth.
  /// Inline: the interval repeat runs it once per node-interval.
  P2SIM_PAR_SAFE void accumulate_adds(const CounterAdds& adds,
                                      PrivilegeMode mode) {
    banks_[static_cast<std::size_t>(mode)].fold_batch(adds);
  }

  P2SIM_PAR_SAFE const CounterBank& bank(PrivilegeMode mode) const {
    return banks_[static_cast<std::size_t>(mode)];
  }
  P2SIM_PAR_SAFE void clear();

  const MonitorConfig& config() const { return cfg_; }

  /// Checkpoint support: both privilege-mode banks (config is rebuilt from
  /// the campaign configuration, not serialized).
  void save_ckpt(util::CkptWriter& w) const {
    for (const CounterBank& b : banks_) b.save_ckpt(w);
  }
  void restore_ckpt(util::CkptReader& r) {
    for (CounterBank& b : banks_) b.restore_ckpt(r);
  }

 private:
  MonitorConfig cfg_;
  std::array<CounterBank, 2> banks_{};
};

}  // namespace p2sim::hpm
