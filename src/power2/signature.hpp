// Event signatures: the bridge between the cycle-approximate kernel engine
// (level A) and the interval-analytic workload engine (level B).
//
// A signature is a kernel's steady-state event production per CPU cycle, as
// measured by actually running the kernel through the core model.  The
// nine-month workload simulation then advances node counters by
// signature-rate x busy-cycles per 15-minute interval — the same
// quantization the real RS2HPM daemon imposed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/power2/core.hpp"
#include "src/power2/event_counts.hpp"
#include "src/power2/kernel_desc.hpp"

namespace p2sim::power2 {

/// Per-cycle event rates for one kernel on one core configuration.
struct EventSignature {
  double cycles_per_iter = 0.0;

  // One rate per EventCounts field (events per cycle).  The authoritative
  // rate-to-counter mapping is the field table in
  // src/power2/field_table.hpp; scaling and store I/O iterate that table
  // rather than naming these members.
  double fxu0_inst = 0, fxu1_inst = 0;
  double dcache_miss = 0, tlb_miss = 0;
  double fpu0_inst = 0, fpu1_inst = 0;
  double fp_add0 = 0, fp_add1 = 0;
  double fp_mul0 = 0, fp_mul1 = 0;
  double fp_div0 = 0, fp_div1 = 0;
  double fp_fma0 = 0, fp_fma1 = 0;
  double icu_type1 = 0, icu_type2 = 0;
  double icache_reload = 0, dcache_reload = 0, dcache_store = 0;
  double memory_inst = 0, quad_inst = 0;
  double stall_dcache = 0, stall_tlb = 0;

  double flops_per_cycle() const {
    return fp_add0 + fp_add1 + fp_mul0 + fp_mul1 + fp_div0 + fp_div1 +
           fp_fma0 + fp_fma1;
  }
  double instructions_per_cycle() const {
    return fxu0_inst + fxu1_inst + fpu0_inst + fpu1_inst + icu_type1 +
           icu_type2;
  }
  double mflops(double clock_hz = telemetry::kClockHz) const {
    return flops_per_cycle() * clock_hz / 1e6;
  }

  /// Scales the signature to event totals over `cycles` busy cycles.
  /// Each field rounds independently via llround; the result for a given
  /// (signature, cycles) pair is deterministic and platform-stable.
  P2SIM_PAR_SAFE EventCounts scale(double cycles) const;

  /// Accumulating form: adds the scaled totals for `cycles` busy cycles
  /// into `ev` (table fields only — `ev.cycles` is the caller's business).
  /// `scale` is `scale_into` on a zeroed EventCounts plus the cycle count.
  P2SIM_PAR_SAFE void scale_into(double cycles, EventCounts& ev) const;

  bool operator==(const EventSignature&) const = default;
};

/// Derives a signature by running the kernel on a core.
EventSignature measure_signature(Power2Core& core, const KernelDesc& kernel);

/// One kernel measured without touching the telemetry session: the derived
/// signature plus the raw run and wall duration needed for the deferred
/// telemetry replay (Power2Core::note_kernel_run).
struct QuietMeasurement {
  EventSignature sig;
  RunResult run;
  std::int64_t wall_us = 0;
};

/// Measures a kernel's signature on a fresh worker-private core (a fresh
/// core is exactly the reset state measure_signature establishes) and emits
/// no telemetry — the parallel half of batched signature measurement.  The
/// result is bit-identical to measure_signature on a fresh core, in any
/// thread, in any order.
P2SIM_PAR_SAFE QuietMeasurement measure_quiet(const CoreConfig& core_cfg,
                                              const KernelDesc& kernel);

/// Optional persistence for SignatureCache: a versioned on-disk store keyed
/// by kernel-content hash and guarded by a core-config hash, so repeated
/// campaigns and benches skip the cycle-accurate cold start.  Empty path
/// disables persistence.
struct SignatureStoreConfig {
  std::string path;
  bool read = true;   ///< load the store (if present) at construction
  bool write = true;  ///< persist newly measured signatures on flush()
};

/// Signatures by (kernel content hash, core config): one sorted table,
/// filled during setup and immutable after it.  warm() measures each
/// kernel the persistent store lacks exactly once; every later get() is a
/// lookup, and a get() for a kernel that was never warmed is a caller bug
/// that throws.  Entries are pointer-stable for the cache's lifetime, so
/// callers may hold `const EventSignature*` across intervals.
///
/// Measurement emits no telemetry.  Each measured kernel's Level A run is
/// kept instead and replayed by note_first_use() the first time the kernel
/// is used, so the kernel-run spans land on the engine timeline in use
/// order however the batch was scheduled.  Store hits never emit.
class SignatureCache {
 public:
  /// Fills out[i] with measure_quiet(core_config(), kernels[i]) for every
  /// i, in any order and on any threads; warm() passes it the kernels the
  /// table lacks.
  using BatchMeasure = std::function<void(
      const std::vector<KernelDesc>& kernels,
      std::vector<QuietMeasurement>& out)>;

  explicit SignatureCache(const CoreConfig& core_cfg = {},
                          SignatureStoreConfig store = {});

  /// Measures every kernel in `kernels` the table lacks (deduplicated by
  /// content hash) through `measure`, or serially when it is empty, and
  /// adds the results.  Setup only: not safe concurrently with get().
  P2SIM_SERIAL_ONLY void warm(const std::vector<KernelDesc>& kernels,
                              const BatchMeasure& measure = {});

  /// The warmed signature; throws std::out_of_range for any other kernel.
  const EventSignature& get(const KernelDesc& kernel) const;

  /// Replays the kernel-run telemetry of a kernel warm() measured, the
  /// first time it is called for that kernel; a no-op for store hits and
  /// for every later call.
  P2SIM_SERIAL_ONLY void note_first_use(const KernelDesc& kernel);

  /// Hashes of the measured kernels whose first use has been noted, in
  /// noting order (the checkpoint payload).
  const std::vector<std::uint64_t>& first_uses() const { return first_uses_; }
  /// Resume: treats these kernels' first use as already noted.
  P2SIM_SERIAL_ONLY void restore_first_uses(
      const std::vector<std::uint64_t>& hashes);

  /// Writes newly measured signatures back to the persistent store.
  /// Returns false when a configured write fails; true otherwise
  /// (including when persistence is disabled or nothing is new).
  P2SIM_SERIAL_ONLY bool flush();

  const CoreConfig& core_config() const { return core_cfg_; }
  std::size_t size() const { return table_.size(); }

  /// Observability for tests and benches.
  struct Stats {
    std::uint64_t measured = 0;       ///< cold measurements actually run
    std::uint64_t store_loaded = 0;   ///< entries adopted from disk
    std::uint64_t store_corrupt_lines = 0;  ///< checksum/parse rejects
    bool store_rejected = false;  ///< whole store dropped (core-hash mismatch)
  };
  const Stats& stats() const { return stats_; }

 private:
  CoreConfig core_cfg_;
  std::uint64_t core_hash_ = 0;
  SignatureStoreConfig store_;

  /// The table, keyed and sorted by kernel content hash (std::map nodes
  /// are pointer-stable under insertion).
  std::map<std::uint64_t, EventSignature> table_;
  /// Measured kernels whose first use has not been noted yet.
  std::map<std::uint64_t, QuietMeasurement> unused_runs_;
  std::vector<std::uint64_t> first_uses_;
  bool dirty_ = false;
  Stats stats_{};
};

}  // namespace p2sim::power2
