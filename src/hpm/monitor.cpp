#include "src/hpm/monitor.hpp"

#include "src/check/invariants.hpp"

namespace p2sim::hpm {

void PerformanceMonitor::accumulate(const power2::EventCounts& ev,
                                    PrivilegeMode mode) {
  CounterAdds adds{};
  map_events(ev, adds);
  // add_batch keeps the historical per-slice contract: any single
  // accumulate() must stay below one counter wrap per slot.
  banks_[static_cast<std::size_t>(mode)].add_batch(adds);
}

void PerformanceMonitor::map_events(const power2::EventCounts& ev,
                                    CounterAdds& adds) const {
  // Gate at kScaled: batches arriving here may be signature-scaled (each
  // field rounded independently), so only rounding-stable identities apply.
  // Every kScaled rule is a single-field inequality, so auditing a summed
  // batch is exactly as strong as auditing each summand.
  P2SIM_AUDIT_EVENTS(ev, kScaled, "hpm::PerformanceMonitor::map_events");
  adds[index_of(HpmCounter::kUserFxu0)] += ev.fxu0_inst;
  adds[index_of(HpmCounter::kUserFxu1)] += ev.fxu1_inst;
  adds[index_of(HpmCounter::kUserDcacheMiss)] += ev.dcache_miss;
  adds[index_of(HpmCounter::kUserTlbMiss)] += ev.tlb_miss;
  adds[index_of(HpmCounter::kUserCycles)] += ev.cycles;
  adds[index_of(HpmCounter::kUserFpu0)] += ev.fpu0_inst;
  adds[index_of(HpmCounter::kFpAdd0)] += ev.fp_add0;
  adds[index_of(HpmCounter::kFpMul0)] += ev.fp_mul0;
  adds[index_of(HpmCounter::kFpMulAdd0)] += ev.fp_fma0;
  adds[index_of(HpmCounter::kUserFpu1)] += ev.fpu1_inst;
  adds[index_of(HpmCounter::kFpAdd1)] += ev.fp_add1;
  adds[index_of(HpmCounter::kFpMul1)] += ev.fp_mul1;
  adds[index_of(HpmCounter::kFpMulAdd1)] += ev.fp_fma1;
  if (cfg_.selection == CounterSelection::kWaitStates) {
    // The divide slots are rededicated to wait-state signals (the paper's
    // recommended configuration for future deployments).
    adds[index_of(kCommWaitSlot)] += ev.comm_wait_cycles;
    adds[index_of(kIoWaitSlot)] += ev.io_wait_cycles;
  } else if (!cfg_.divide_counter_bug) {
    adds[index_of(HpmCounter::kFpDiv0)] += ev.fp_div0;
    adds[index_of(HpmCounter::kFpDiv1)] += ev.fp_div1;
  }
  adds[index_of(HpmCounter::kUserIcu0)] += ev.icu_type1;
  adds[index_of(HpmCounter::kUserIcu1)] += ev.icu_type2;
  adds[index_of(HpmCounter::kIcacheReload)] += ev.icache_reload;
  adds[index_of(HpmCounter::kDcacheReload)] += ev.dcache_reload;
  adds[index_of(HpmCounter::kDcacheStore)] += ev.dcache_store;
  adds[index_of(HpmCounter::kDmaRead)] += ev.dma_read;
  adds[index_of(HpmCounter::kDmaWrite)] += ev.dma_write;
}

void PerformanceMonitor::clear() {
  for (auto& b : banks_) b.clear();
}

}  // namespace p2sim::hpm
